"""cgtns benchmark: end-to-end and per-layer metrics of the ``cgtns`` CLI.

    python3 bench/run.py --workload h6-hybrid-sweeps --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  All three workloads are closed loops: one client, one
command at a time, each started when the previous one has ended.

``--trace 0`` alternates CLI commands and set-up probes, each its own
process, until ``--seconds`` have passed and at least ``MIN_COMMANDS``
commands (one per optimizer seed of the panel) and ``MIN_PROBES`` probes
have run, then prints the end-to-end
metrics (medians over the run's samples).  ``--trace 1`` runs one traced
command in-process between two untraced ones and prints the per-layer
metrics (see ``traced.py``).  Every command's outputs are checked; the last
line of stdout is the result object, the line before it the run metadata.
Scratch files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import ROOT, SEED_PANEL, SRC, WORKLOADS, import_cgtns, program_env

BENCH = Path(__file__).resolve().parent
#: Samples per untraced run, at least; the commands cover the seed panel.
#: Three of each make the medians robust to one slow sample while keeping
#: a run near half a minute, so that tens of runs per workload fit an hour.
MIN_COMMANDS = len(SEED_PANEL)
MIN_PROBES = 3
#: No new command starts after this many seconds, whatever the minimums.
HARD_STOP_S = 120.0
#: A single command or probe that runs longer than this is killed and fails.
COMMAND_TIMEOUT_S = 90.0


def spawn(argv: list[str], log: Path) -> dict:
    """Run one process to completion; its own wall, CPU and peak RSS.

    ``os.wait4`` reports the resource use of that child alone, so peak RSS
    is per command, not a maximum over every child the benchmark started.
    """
    start = time.perf_counter()
    with open(log, "w") as handle:
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                env=program_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


class Run:
    """One benchmark run of one workload: samples, checks and failures."""

    def __init__(self, workload, inputs, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.commands: list[dict] = []
        self.probes: list[dict] = []
        self.failures: dict[str, str] = {}  # operation -> first failure

    def command(self, traced_report: Path | None = None) -> dict:
        i = len(self.commands)
        out = self.work / f"cmd{i}"
        cli_args = self.workload.argv(self.inputs, i, out)
        if traced_report is None:
            argv = [sys.executable, "-m", "cgtns.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH / "traced.py"), "--report",
                    str(traced_report), "--", *cli_args]
        sample = spawn(argv, self.work / f"cmd{i}.log")
        sample.update(out=out, argv=cli_args)
        self.commands.append(sample)
        return sample

    def probe(self) -> dict:
        argv = [sys.executable, str(BENCH / "probe.py"), *self.workload.probe_args(self.inputs)]
        log = self.work / f"probe{len(self.probes)}.log"
        sample = spawn(argv, log)
        if sample["rc"] == 0:
            sample["setup_s"] = json.loads(log.read_text().splitlines()[-1])["setup_s"]
        else:
            self.fail(f"probe {len(self.probes)}", f"exited {sample['rc']}, see {log}")
        self.probes.append(sample)
        return sample

    def check_commands(self) -> list[float]:
        """Check every command's outputs; the error of each command, in Ha."""
        problem = self.workload.load_problem(self.inputs)
        errors = []
        for i, sample in enumerate(self.commands):
            if sample["rc"] != 0:
                self.fail(i, f"exited {sample['rc']}")
                errors.append(None)
                continue
            try:
                result = self.workload.check(self.inputs, sample["out"], problem)
            except Exception as exc:  # a malformed output fails this command only
                self.fail(i, f"check raised {exc!r}")
                errors.append(None)
                continue
            sample["error_ha"] = result.error_ha
            if not result.ok:
                self.fail(i, result.message)
            errors.append(result.error_ha)
        return errors

    def fail(self, operation, message: str) -> None:
        key = f"command {operation}" if isinstance(operation, int) else operation
        self.failures.setdefault(key, message)

    @property
    def attempted(self) -> int:
        return len(self.commands) + len(self.probes)


def timed_run(run: Run, seconds: float, min_commands: int, min_probes: int) -> dict:
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        need_command = len(run.commands) < min_commands
        need_probe = len(run.probes) < min_probes
        if (not need_command and not need_probe and elapsed >= seconds) or elapsed > HARD_STOP_S:
            break
        # Alternate, except while only one kind still lacks its minimum.
        if need_command != need_probe:
            take_command = need_command
        else:
            take_command = len(run.commands) <= len(run.probes)
        if take_command:
            run.command()
        else:
            run.probe()
    errors = run.check_commands()
    ok = [c for c in run.commands if c["rc"] == 0]
    panel = [e for e in errors[: len(run.inputs.seeds)] if e is not None]
    setups = [p["setup_s"] for p in run.probes if p["rc"] == 0]
    if not ok or not setups or not panel:
        return {}
    passed = run.attempted - len(run.failures)
    return {
        "run_s": (statistics.median(c["wall_s"] for c in ok), "s"),
        "cpu_s": (statistics.median(c["cpu_s"] for c in ok), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in ok), "MB"),
        "error_mha": (statistics.median(panel) * 1e3, "mHa"),
        "pass_frac": (passed / run.attempted, "ratio"),
    }


def traced_run(run: Run) -> dict:
    """Untraced, traced, untraced: the per-layer metrics and the overhead."""
    report = run.work / "traced.json"
    before = run.command()
    traced = run.command(traced_report=report)
    after = run.command()
    run.check_commands()
    if traced["rc"] != 0 or not report.exists():
        return {}
    doc = json.loads(report.read_text())
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    untraced = [c["wall_s"] for c in (before, after) if c["rc"] == 0]
    # The checkpoint reload after the command is not part of its wall time.
    traced_s = traced["wall_s"] - doc["post_s"]
    metrics["cli.unattributed_s"] = (traced_s - doc["attributed_s"], "s")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (statistics.fmean(untraced) if untraced else 0.0, "s")
    metrics["trace.overhead_s"] = (traced_s - metrics["trace.untraced_run_s"][0], "s")
    return metrics


def blas_info() -> dict:
    """OpenBLAS versions and thread counts of the numpy and scipy builds."""
    import ctypes
    import glob

    import numpy
    import scipy

    info = {}
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {"name": blas.get("name"), "version": blas.get("version")}
        libdir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    entry["threads"] = getattr(handle, symbol)()
                    break
        info[module.__name__] = entry
    return info


def metadata(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs and one sample each (for the smoke test)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        import_cgtns()
    except ImportError as exc:
        print(f"error: cannot import cgtns from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.prepare(args.seed, work, args.smoke)
    run = Run(workload, inputs, work)
    if args.trace:
        metrics = traced_run(run)
    else:
        minimums = (1, 1) if args.smoke else (MIN_COMMANDS, MIN_PROBES)
        metrics = timed_run(run, args.seconds, *minimums)
    for operation, message in run.failures.items():
        print(f"check failed: {operation}: {message}", file=sys.stderr)
    if not metrics:
        print("error: no successful sample to report", file=sys.stderr)
        return 1
    meta = metadata(args)
    meta["samples"] = {
        "commands": [{k: v for k, v in c.items() if k != "out"} for c in run.commands],
        "probes": run.probes,
        "failures": run.failures,
    }
    (work / "report.json").write_text(json.dumps(meta, indent=1, default=str) + "\n")
    print(json.dumps({k: meta[k] for k in meta if k != "samples"}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
