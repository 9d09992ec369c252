"""Smoke test of the benchmark itself: every workload once, at minimal size,
untraced and traced, must pass its checks and print every metric that
``BENCHMARK.json`` declares, by name and with its unit.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    meta = json.loads(proc.stdout.strip().splitlines()[-2])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "seed"):
        assert key in meta
