"""The BLAS thread policy set by ``import cgtns``: idle OpenBLAS workers
sleep instead of spinning, unless the user chose otherwise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
H6 = SRC / "cgtns" / "fixtures" / "h6.fcidump"


def run_fresh(code: str, *argv: str, **env_vars: str) -> list[str]:
    """Output lines of ``code`` run in a fresh interpreter on this checkout,
    with ``OPENBLAS_THREAD_TIMEOUT`` removed from its environment unless
    given in ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout.splitlines()


READ_TIMEOUT = "import os\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"


def test_import_sets_the_shortest_timeout():
    assert run_fresh("import cgtns\n" + READ_TIMEOUT) == ["4"]


def test_the_users_timeout_wins():
    assert run_fresh("import cgtns\n" + READ_TIMEOUT, OPENBLAS_THREAD_TIMEOUT="20") == ["20"]


def test_no_timeout_once_numpy_is_loaded():
    # OpenBLAS has read its environment already; the value would only reach
    # child processes.
    assert run_fresh("import numpy\nimport cgtns\n" + READ_TIMEOUT) == ["None"]


def test_idle_blas_worker_spends_no_cpu(tmp_path):
    # After a whole `cgtns oracle` on H6, whose products are too small to
    # wake the worker, every thread but the main one has used at most 2
    # clock ticks; spinning for 2^28 cycles after start-up costs about 6.
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to read per-thread CPU from")
    code = (
        "import glob, os, sys\n"
        "import cgtns.cli\n"
        "maps = open('/proc/self/maps').read()\n"
        "status = cgtns.cli.main(sys.argv[1:])\n"
        "ticks = 0\n"
        "for task in glob.glob('/proc/self/task/*'):\n"
        "    if int(os.path.basename(task)) != os.getpid():\n"
        "        fields = open(task + '/stat').read().rsplit(')', 1)[1].split()\n"
        "        ticks += int(fields[11]) + int(fields[12])\n"
        "print(status, 'openblas' in maps.lower(), ticks)\n"
    )
    out = run_fresh(code, "oracle", "--integrals", str(H6),
                    "--oracle-out", str(tmp_path / "oracle.json"))
    status, openblas, ticks = out[-1].split()
    assert status == "0"
    if openblas != "True":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert int(ticks) <= 2
