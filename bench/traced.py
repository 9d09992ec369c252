"""Traced run: one CLI command in this process, with the library's public
callables wrapped from outside, so that wall time is attributed to layers.

Every wrapper records a span (name, start, end, parent); a span's self time
is its duration minus that of its child spans.  ``slater_condon`` and
``swap_probability`` are called millions of times or as the base of a ratio,
so they are only counted.  ``cli`` binds names with ``from .x import y``, so
each wrapper replaces the original in every ``cgtns`` module that holds it.

    PYTHONPATH=src python3 bench/traced.py --report OUT.json -- run --config ...

Writes the per-layer metrics, the traced command's exit code, the time its
named spans cover and the time spent after it (one timed checkpoint
reload) to OUT.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """Spans and counts kept in memory and summarised when the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name, fn, after=None):
        """Wrap ``fn``; ``name`` may be a function of the call's arguments,
        ``after(args, kwargs, result)`` records counts from a finished call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{label}!{type(exc).__name__}"] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out


def replace_everywhere(original, wrapper):
    """Swap ``original`` for ``wrapper`` in every loaded cgtns module."""
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("cgtns"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class AbortedMoves(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "aborted" in record.getMessage():
            self.counts["aborted_moves"] += 1


def install(tracer: Tracer):
    from cgtns import analysis, cli, correlators, energy, fock, hamiltonian, optimizer

    counts = tracer.counts
    built = {}  # the command's CSF basis and Hamiltonian, for the timed reload

    def sweep_done(args, kwargs, ratio):
        evaluator = args[2] if len(args) > 2 else kwargs["evaluator"]
        n = len(evaluator.engine.active_indices)
        counts["moves"] += n
        counts["accepted"] += round(ratio * n)

    def gathered(args, kwargs, result):
        counts["gather_bytes"] += args[0].entry_table.nbytes

    def basis_built(args, kwargs, basis):
        built["basis"] = basis
        counts["n_det"] = basis.space.size
        counts["n_csf"] = basis.n_csfs
        counts["k_nnz"] = basis.K.nnz

    def matrix_built(args, kwargs, mat):
        built["ham"] = args[0]
        counts["dense_h_bytes"] = mat.nbytes

    def file_written(key):
        def after(args, kwargs, result):
            counts[key] += Path(args[1]).stat().st_size
        return after

    def eigh_kind(args, kwargs):
        basis = args[1] if len(args) > 1 else kwargs.get("basis")
        return "exact_diagonalize[det]" if basis is None else "exact_diagonalize[csf]"

    functions = [
        (hamiltonian.parse_fcidump, "parse_fcidump", None),
        (fock.enumerate_onvs, "enumerate_onvs", None),
        (fock.build_csf_basis, "build_csf_basis", basis_built),
        (hamiltonian.csf_hamiltonian, "csf_hamiltonian", None),
        (hamiltonian.exact_diagonalize, eigh_kind, None),
        (optimizer.run_parallel_tempering, "run_parallel_tempering", None),
        (optimizer.metropolis_sweep, "metropolis_sweep", sweep_done),
        (optimizer.gradient_subspace_solve, "gradient_subspace_solve", None),
        (optimizer.bfgs_refine, "bfgs_refine", None),
        (optimizer.save_checkpoint, "save_checkpoint", file_written("checkpoint_bytes")),
        (optimizer.load_checkpoint, "load_checkpoint", None),
        (analysis.export_trace, "export_trace", file_written("trace_bytes")),
        (cli.main, "cli.main", None),
    ]
    for fn, name, after in functions:
        replace_everywhere(fn, tracer.span(name, fn, after))
    for fn, name in ((hamiltonian.slater_condon, "slater_condon"),
                     (optimizer.swap_probability, "swap_attempts")):
        replace_everywhere(fn, tracer.counter(name, fn))
    methods = [
        (fock.CsfBasis, "overlap", None),
        (hamiltonian.HamiltonianOperator, "matrix", matrix_built),
        (correlators.AmplitudeEngine, "__init__", None),
        (correlators.AmplitudeEngine, "amplitudes", gathered),
        (correlators.AmplitudeEngine, "jacobian", None),
        (energy.EnergyEvaluator, "__init__", None),
        (energy.EnergyEvaluator, "energy", None),
        (energy.EnergyEvaluator, "gradient", None),
    ]
    for cls, attr, after in methods:
        setattr(cls, attr, tracer.span(f"{cls.__name__}.{attr}", getattr(cls, attr), after))
    logging.getLogger("cgtns.optimizer").addHandler(AbortedMoves(counts))
    return built


def swaps_accepted(out: Path) -> int:
    """Accepted pair swaps: each marks both partners' rows in the trace."""
    from cgtns.analysis import read_trace_csv

    marked = sum(
        row.swapped for path in sorted(out.glob("*trace.csv")) for row in read_trace_csv(path)
    )
    return marked // 2


def layer_metrics(tracer: Tracer, out: Path | None) -> dict:
    """Per-layer metrics, as {name: (value, unit)}."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1]

    def self_s(name):
        return spans[name][2]

    def mean(value, n, scale=1.0):
        return value / n * scale if n else 0.0

    def per_call(name, scale):
        return mean(total(name), calls(name), scale)

    moves = counts["moves"]
    swaps = counts["swap_attempts"]
    accepted_swaps = swaps_accepted(out) if out is not None and swaps else 0
    energy = "EnergyEvaluator.energy"
    return {
        "optimizer.sweeps": (calls("metropolis_sweep"), "count"),
        "optimizer.moves": (moves, "count"),
        "optimizer.move_us": (mean(total("metropolis_sweep"), moves, 1e6), "us"),
        "optimizer.pt_s": (total("run_parallel_tempering"), "s"),
        "energy.energy_calls": (calls(energy), "count"),
        "energy.energy_us": (per_call(energy, 1e6), "us"),
        "energy.energy_self_us": (mean(self_s(energy), calls(energy), 1e6), "us"),
        "correlators.amplitudes_calls": (calls("AmplitudeEngine.amplitudes"), "count"),
        "correlators.amplitudes_us": (per_call("AmplitudeEngine.amplitudes", 1e6), "us"),
        "correlators.gather_bytes": (
            mean(counts["gather_bytes"], calls("AmplitudeEngine.amplitudes")), "bytes"),
        "energy.evaluator_inits": (calls("EnergyEvaluator.__init__"), "count"),
        "energy.evaluator_init_s": (total("EnergyEvaluator.__init__"), "s"),
        "correlators.engine_inits": (calls("AmplitudeEngine.__init__"), "count"),
        "correlators.engine_init_s": (total("AmplitudeEngine.__init__"), "s"),
        "hamiltonian.csf_hamiltonian_calls": (calls("csf_hamiltonian"), "count"),
        "hamiltonian.csf_hamiltonian_s": (total("csf_hamiltonian"), "s"),
        "optimizer.subspace_solves": (calls("gradient_subspace_solve"), "count"),
        "optimizer.subspace_solve_ms": (per_call("gradient_subspace_solve", 1e3), "ms"),
        "optimizer.refine_s": (total("gradient_subspace_solve") + total("bfgs_refine"), "s"),
        "energy.gradient_calls": (calls("EnergyEvaluator.gradient"), "count"),
        "energy.gradient_ms": (per_call("EnergyEvaluator.gradient", 1e3), "ms"),
        "correlators.jacobian_calls": (calls("AmplitudeEngine.jacobian"), "count"),
        "correlators.jacobian_ms": (per_call("AmplitudeEngine.jacobian", 1e3), "ms"),
        "hamiltonian.parse_fcidump_s": (total("parse_fcidump"), "s"),
        "hamiltonian.matrix_s": (total("HamiltonianOperator.matrix"), "s"),
        "hamiltonian.slater_condon_calls": (counts["slater_condon"], "count"),
        "hamiltonian.dense_h_bytes": (counts["dense_h_bytes"], "bytes"),
        "hamiltonian.eigh_det_s": (self_s("exact_diagonalize[det]"), "s"),
        "hamiltonian.eigh_csf_s": (self_s("exact_diagonalize[csf]"), "s"),
        "fock.enumerate_onvs_s": (total("enumerate_onvs"), "s"),
        "fock.build_csf_basis_s": (total("build_csf_basis"), "s"),
        "fock.overlap_s": (total("CsfBasis.overlap"), "s"),
        "fock.n_det": (counts["n_det"], "count"),
        "fock.n_csf": (counts["n_csf"], "count"),
        "fock.k_nnz": (counts["k_nnz"], "count"),
        "optimizer.accept_ratio": (mean(counts["accepted"], moves), "ratio"),
        "optimizer.swap_attempts": (swaps, "count"),
        "optimizer.swap_accept_ratio": (mean(accepted_swaps, swaps), "ratio"),
        "optimizer.aborted_moves": (counts["aborted_moves"], "count"),
        "energy.degenerate_errors": (
            counts[f"{energy}!DegenerateStateError"]
            + counts["EnergyEvaluator.gradient!DegenerateStateError"], "count"),
        "optimizer.checkpoint_save_s": (total("save_checkpoint"), "s"),
        "optimizer.checkpoint_bytes": (counts["checkpoint_bytes"], "bytes"),
        "optimizer.checkpoint_load_s": (total("load_checkpoint"), "s"),
        "analysis.export_trace_s": (total("export_trace"), "s"),
        "analysis.trace_bytes": (counts["trace_bytes"], "bytes"),
        "trace.spans": (len(tracer.spans), "count"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    built = install(tracer)
    from cgtns import cli, optimizer

    rc = cli.main(cli_args)
    main_end = time.perf_counter()
    out = Path(cli_args[cli_args.index("--out") + 1]) if "--out" in cli_args else None
    metrics = layer_metrics(tracer, out)
    main_span = tracer.summary()["cli.main"]
    if cli_args[0] == "run" and rc == 0:
        # The command itself never reloads its checkpoint; timing one reload
        # here gives the load time.  The untraced commands' checks verify it.
        optimizer.load_checkpoint(out / "checkpoint.json", built["basis"], built["ham"])
        metrics["optimizer.checkpoint_load_s"] = (tracer.summary()["load_checkpoint"][1], "s")
    doc = {
        "exit_code": rc,
        # Wall time inside named spans below cli.main.
        "attributed_s": main_span[1] - main_span[2],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    doc["post_s"] = time.perf_counter() - main_end
    Path(args.report).write_text(json.dumps(doc, indent=1) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
