import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# Make the sibling oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def h8_chain(tmp_path_factory):
    """FCIDUMP path of the linear H8 chain at a bond length in bohr, 5
    electrons, MS2 = 1 (1568 determinants, 1008 doublet CSFs), written once
    per bond length by the fixture script's own integral code, as the
    benchmark's ``h8-oracle`` workload builds it."""
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    mf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mf)
    paths = {}

    def build(spacing: float) -> Path:
        if spacing not in paths:
            centers = [(0.0, 0.0, spacing * k) for k in range(8)]
            S, h_ao, eri_ao = mf.ao_integrals(mf.Basis(centers))
            h, g = mf.transform(h_ao, eri_ao, mf.lowdin_orbitals(S))
            path = tmp_path_factory.mktemp("h8") / f"h8_{spacing}.fcidump"
            mf.write_fcidump(path, h, g, mf.nuclear_repulsion(centers), 5, 1)
            paths[spacing] = path
        return paths[spacing]

    return build


@pytest.fixture(scope="session")
def h8_chain_fcidump(h8_chain):
    """The H8 chain at 1.75 bohr."""
    return h8_chain(1.75)
