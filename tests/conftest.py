import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# Make the sibling oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def h8_chain(tmp_path_factory):
    """FCIDUMP path of the linear H8 chain at a bond length in bohr, written
    once per bond length by ``tools/make_fixtures.py``'s ``write_h8_chain``,
    as the benchmark's ``h8-oracle`` workload builds it."""
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    mf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mf)
    paths = {}

    def build(spacing: float) -> Path:
        if spacing not in paths:
            path = tmp_path_factory.mktemp("h8") / f"h8_{spacing}.fcidump"
            paths[spacing] = mf.write_h8_chain(path, spacing)
        return paths[spacing]

    return build


@pytest.fixture(scope="session")
def h8_chain_fcidump(h8_chain):
    """The H8 chain at 1.75 bohr."""
    return h8_chain(1.75)
