"""The golden panel of ``tools/golden.py``: every command's exit code and
the bytes of every file it writes, against ``tests/golden/manifest.json``.

The bytes depend on numpy and the BLAS build, so the byte comparison is
skipped where the platform differs from the manifest's; exit codes and
energies are compared everywhere."""

import importlib.util
import json
import sys

import pytest
from conftest import ROOT

_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = sys.modules["golden"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text())


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return golden.run_panel(tmp_path_factory.mktemp("golden") / "work")


def test_artifacts_are_byte_identical(observed):
    differs = golden.platform_differences(MANIFEST["platform"])
    if differs:
        pytest.skip(f"platform differs from the manifest's in {', '.join(differs)}")
    assert golden.byte_mismatches(MANIFEST["cases"], observed) == []


def test_exit_codes_and_energies(observed):
    assert golden.energy_mismatches(MANIFEST["cases"], observed) == []


def test_a_case_adapts_a_replica_step_above_one(tmp_path):
    # The wide-step case covers steps past 1.0, so a step cap there changes
    # its checkpoint and trace.
    case = next(c for c in golden.cases() if c.name == "run-h4-2s-wide-step-seed1")
    result = golden.run_case(case, tmp_path / "case", golden.FIXTURES / "h4.fcidump")
    assert result["exit"] == 0
    checkpoint = json.loads((tmp_path / "case" / "out" / "checkpoint.json").read_text())
    assert max(replica["step"] for replica in checkpoint["replicas"]) > 1.0


def test_every_exit_code_is_pinned():
    codes = {case["exit"] for case in MANIFEST["cases"].values()}
    assert codes == {0, 2, 3}


def test_mismatches_name_each_changed_file_and_energy(observed):
    changed = json.loads(json.dumps(observed))
    case = changed["oracle-h4"]
    case["files"]["oracle.json"] = "0" * 64
    case["energies"]["oracle.json"]["e0_csf_basis"] += 1e-9
    changed["run-h4-sweeps0"]["exit"] = 4
    assert golden.byte_mismatches(observed, changed) == [
        "oracle-h4: changed files oracle.json",
        "run-h4-sweeps0: exit 4, manifest 2",
    ]
    lines = golden.energy_mismatches(observed, changed)
    assert [line.split(" = ")[0] for line in lines] == [
        "oracle-h4: oracle.json e0_csf_basis",
        "run-h4-sweeps0: exit 4, manifest 2",
    ]
