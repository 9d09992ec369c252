import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# Make the sibling oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def h8_chain_fcidump(tmp_path_factory):
    """FCIDUMP of the linear H8 chain at 1.75 bohr, 5 electrons, MS2 = 1
    (1568 determinants, 1008 doublet CSFs), written by the fixture script's
    own integral code, as the benchmark's ``h8-oracle`` workload builds it."""
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    mf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mf)
    centers = [(0.0, 0.0, 1.75 * k) for k in range(8)]
    S, h_ao, eri_ao = mf.ao_integrals(mf.Basis(centers))
    h, g = mf.transform(h_ao, eri_ao, mf.lowdin_orbitals(S))
    path = tmp_path_factory.mktemp("h8") / "h8.fcidump"
    mf.write_fcidump(path, h, g, mf.nuclear_repulsion(centers), 5, 1)
    return path
