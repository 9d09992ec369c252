"""The bundled fixtures are what tools/make_fixtures.py generates."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "src" / "cgtns" / "fixtures"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    outdir = tmp_path_factory.mktemp("fixtures")
    make_fixtures.main(outdir)
    return outdir


@pytest.mark.parametrize("name", ["h2", "h4", "h6"])
def test_fcidump_is_byte_identical(regenerated, name):
    fresh = (regenerated / f"{name}.fcidump").read_bytes()
    assert fresh == (FIXTURES / f"{name}.fcidump").read_bytes()


@pytest.mark.parametrize("name", ["h2", "h4", "h6"])
def test_fci_energy_matches_provenance(regenerated, name):
    # The dense eigensolver may change the last bits of E_FCI, so the
    # provenance record is compared by value, not byte for byte.
    fresh = json.loads((regenerated / "provenance.json").read_text())
    committed = json.loads((FIXTURES / "provenance.json").read_text())
    assert fresh["systems"][name]["e_fci"] == pytest.approx(
        committed["systems"][name]["e_fci"], abs=1e-12
    )
