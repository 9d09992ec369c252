"""Batch front end: configure, run, and report optimizations and oracles.

Exit codes are a stable contract: 0 success, 2 configuration or input error,
3 capacity (space too large for the dense oracle), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import analysis
from .correlators import ANSATZ_KINDS, AnsatzSpec, select_sites
from .energy import EnergyEvaluator
from .errors import (
    CapacityError,
    CgtnsError,
    ConfigError,
    DimensionError,
    FrozenTensorError,
    ParseError,
)
from .fock import build_csf_basis, enumerate_onvs
from .hamiltonian import (
    HamiltonianOperator,
    exact_diagonalize,
    orbital_occupations,
    parse_fcidump,
)
from .optimizer import (
    PtConfig,
    bfgs_refine,
    run_stages,
    save_checkpoint,
    subspace_refine,
    write_atomic,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4

REFINERS = {
    "bfgs": bfgs_refine,
    "subspace": subspace_refine,
}
REFINE_STAGES = ("none", *REFINERS)


@dataclass
class RunConfig:
    """Flat key-value run configuration; field order is the canonical order."""

    integrals: str = ""
    n_electrons: str = "auto"
    ms2: str = "auto"
    spin2: str = "auto"
    ansatz: str = "2s"
    window_lo: float = 0.02
    window_hi: float = 1.98
    nat_occ: str = "auto"
    t_first: float = 0.001
    t_last: float = 0.05
    replicas: int = 4
    sweeps: int = 200
    swap_interval: int = 5
    step_size: float = 0.1
    target_acceptance: float = 0.4
    init: str = "warm"
    refine: str = "none"
    screen: float = 0.0
    seed: int = 0
    out: str = "cgtns_run"
    dense_limit: int = 20000

    def validate(self) -> None:
        if self.ansatz not in ANSATZ_KINDS:
            raise ConfigError(
                f"unknown ansatz {self.ansatz!r}; choose from {ANSATZ_KINDS}"
            )
        if self.refine not in REFINE_STAGES:
            raise ConfigError(
                f"unknown refinement stage {self.refine!r}; choose from {REFINE_STAGES}"
            )
        if self.init not in ("warm", "cold"):
            raise ConfigError("init must be 'warm' or 'cold'")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} = {value} is not finite")
        if not self.window_lo < self.window_hi:
            raise ConfigError("window_lo must be below window_hi")
        if not 0.0 <= self.screen <= 1.0:
            raise ConfigError(f"screen = {self.screen} is outside [0, 1]")
        if self.sweeps < 1:
            raise ConfigError(f"sweeps = {self.sweeps}; a run needs at least one")
        self.nat_occupations()
        # Tempering values fail here, before any file is read or written.
        _pt_config(self).temperatures()

    def nat_occupations(self) -> tuple[float, ...] | None:
        """The ``nat_occ`` values, None for ``auto``; ConfigError unless
        every value parses and lies in [0, 2]."""
        if self.nat_occ == "auto":
            return None
        try:
            occ = tuple(float(tok) for tok in self.nat_occ.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse nat_occ = {self.nat_occ!r}") from None
        if not all(0.0 <= value <= 2.0 for value in occ):
            raise ConfigError(f"nat_occ = {self.nat_occ!r} has a value outside [0, 2]")
        return occ


def dump_config(cfg: RunConfig) -> str:
    """Canonical textual form; parsing it back and dumping again is identical."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Read 'key = value' lines; '#' starts a comment, blank lines ignored."""
    known = {f.name: f for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        target = known[key].type
        try:
            if target == "int":
                values[key] = int(value)
            elif target == "float":
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse {value!r} for {key}"
            ) from None
    return RunConfig(**values)


def _resolve_spin_numbers(cfg: RunConfig, ints) -> tuple[int, int, int]:
    def pick(raw, fallback, name):
        if raw == "auto":
            if fallback is None:
                raise ConfigError(
                    f"{name} is 'auto' but the integral file does not provide it"
                )
            return int(fallback)
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"cannot parse {name} = {raw!r}") from None

    n_electrons = pick(cfg.n_electrons, ints.n_electrons, "n_electrons")
    ms2 = pick(cfg.ms2, ints.ms2, "ms2")
    spin2 = pick(cfg.spin2, abs(ms2), "spin2")
    if not 0 <= n_electrons <= 2 * ints.m_orb:
        raise ConfigError(
            f"n_electrons = {n_electrons} does not fit {ints.m_orb} orbitals"
        )
    highest = min(n_electrons, 2 * ints.m_orb - n_electrons)
    for name, value, lowest in (("ms2", ms2, -highest), ("spin2", spin2, abs(ms2))):
        if not lowest <= value <= highest or (value - n_electrons) % 2:
            raise ConfigError(
                f"{name} = {value} is out of range for {n_electrons} electrons "
                f"in {ints.m_orb} orbitals: it needs {lowest} <= {name} <= "
                f"{highest} and the parity of the electron count"
            )
    return n_electrons, ms2, spin2


def _load_problem(cfg: RunConfig):
    if not cfg.integrals:
        raise ConfigError("no integral file configured (key 'integrals')")
    ints = parse_fcidump(cfg.integrals)
    n_electrons, ms2, spin2 = _resolve_spin_numbers(cfg, ints)
    space = enumerate_onvs(2 * ints.m_orb, n_electrons, ms2 / 2.0)
    basis = build_csf_basis(space, spin2 / 2.0)
    ham = HamiltonianOperator(ints, space)
    return ints, space, basis, ham


def _resolve_ansatz(cfg: RunConfig, ints, ham, basis, oracle) -> AnsatzSpec:
    """The run's ansatz; ``oracle`` is the ground eigenpair in the CSF basis,
    if it was computed."""
    if not cfg.ansatz.endswith("sel"):
        return AnsatzSpec(cfg.ansatz)
    occ = cfg.nat_occupations()
    if occ is not None:
        if len(occ) != ints.m_orb:
            raise ConfigError(
                f"nat_occ lists {len(occ)} values for {ints.m_orb} orbitals"
            )
    elif oracle is None:
        raise ConfigError(
            "selected ansatz needs occupation numbers: provide nat_occ, "
            "the space is too large for the oracle density"
        )
    else:
        occ = orbital_occupations(ham, oracle[1] @ basis.K)
    sites = select_sites(occ, (cfg.window_lo, cfg.window_hi))
    if not sites:
        raise ConfigError(
            f"occupation window [{cfg.window_lo}, {cfg.window_hi}] selected no sites"
        )
    return AnsatzSpec(cfg.ansatz, selected_sites=sites)


def _pt_config(cfg: RunConfig) -> PtConfig:
    return PtConfig(
        t_first=cfg.t_first,
        t_last=cfg.t_last,
        n_replicas=cfg.replicas,
        sweeps=cfg.sweeps,
        swap_interval=cfg.swap_interval,
        step_size=cfg.step_size,
        seed=cfg.seed,
        target_acceptance=cfg.target_acceptance,
    )


def cmd_run(cfg: RunConfig) -> Path:
    """Full pipeline: the tempering stages, refinement, reports."""
    cfg.validate()
    ints, space, basis, ham = _load_problem(cfg)

    oracle = None
    if space.size <= cfg.dense_limit:
        # The ground state of the target spin, in the run's CSF basis.
        oracle = exact_diagonalize(ham, basis, dense_limit=cfg.dense_limit)
    e_oracle = None if oracle is None else oracle[0]

    spec = _resolve_ansatz(cfg, ints, ham, basis, oracle)
    try:  # an ansatz with no active tensor on these sites is user input
        spec.tensor_keys(space.m)
    except (DimensionError, FrozenTensorError) as exc:
        raise ConfigError(str(exc)) from None
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_atomic(outdir / "config.txt", dump_config(cfg))

    # Checkpoints land on disk as soon as each stage completes, so a failure
    # in a later stage never costs earlier results.
    stages = run_stages(
        _pt_config(cfg), spec, basis, ham, screen=cfg.screen, cold=cfg.init == "cold"
    )
    for ensemble in stages:
        prefix = "" if ensemble.evaluator.spec == spec else "stage1_"
        analysis.export_trace(ensemble.trace, outdir / f"{prefix}trace.csv")
        save_checkpoint(ensemble, outdir / f"{prefix}checkpoint.json")
        if prefix:
            del ensemble  # frees the pair stage's evaluator before stage 2's
    evaluator = ensemble.evaluator
    engine = evaluator.engine
    final_x, final_energy = ensemble.best_x, ensemble.best_energy

    if cfg.refine in REFINERS:
        if evaluator.screen > 0.0:
            # Refinements are defined on the unscreened energy.
            evaluator = EnergyEvaluator(spec, space.m, basis, ham)
        result = REFINERS[cfg.refine](evaluator, final_x)
        final_x, final_energy = result.x, result.energy

    write_atomic(outdir / "correlators.json", engine.dumps(final_x))

    n_active = len(engine.active_indices)
    record = analysis.RunRecord(
        kind=spec.kind,
        n_active_parameters=n_active,
        n_frozen_parameters=engine.n_params - n_active,
        reference_determinants=space.size,
        reference_csfs=basis.n_csfs,
        reduction_pct=analysis.reduction_percentage(n_active, space.size),
        final_energy=final_energy,
        trace_path="trace.csv",
        e_oracle=e_oracle,
        error_vs_oracle=None if e_oracle is None else final_energy - e_oracle,
        seed=cfg.seed,
    )
    write_atomic(outdir / "record.json", record.to_json() + "\n")

    print(f"ansatz {spec.kind}: E = {final_energy:.10f} Ha")
    if e_oracle is not None:
        print(f"oracle E0 = {e_oracle:.10f} Ha, error = {final_energy - e_oracle:.3e}")
    print(f"outputs in {outdir}")
    return outdir


def cmd_oracle(cfg: RunConfig, out: str | None = None) -> dict:
    ints, space, basis, ham = _load_problem(cfg)
    e_det, _ = exact_diagonalize(ham, dense_limit=cfg.dense_limit)
    e_csf, _ = exact_diagonalize(ham, basis, dense_limit=cfg.dense_limit)
    doc = {
        "determinants": space.size,
        "csfs": basis.n_csfs,
        "spin2": basis.s2,
        "e0_determinant_basis": e_det,
        "e0_csf_basis": e_csf,
        "e_core": ints.e_core,
    }
    print(f"determinants: {space.size}")
    print(f"csfs (2S={basis.s2}): {basis.n_csfs}")
    print(f"E0 (determinant basis) = {e_det:.10f} Ha")
    print(f"E0 (CSF basis)         = {e_csf:.10f} Ha")
    if out:
        write_atomic(out, json.dumps(doc, indent=2) + "\n")
    return doc


def cmd_count(kind: str, m: int, reference_dim: int, n_selected: int | None) -> str:
    if kind.endswith("sel") and not 1 <= (n_selected or 0) <= m:
        raise ConfigError(f"{kind} needs --selected between 1 and m = {m}")
    try:
        n, pct, shown = analysis.reduction_report(
            kind, m, reference_dim, n_selected=n_selected
        )
    except (DimensionError, FrozenTensorError) as exc:  # all user input
        raise ConfigError(str(exc)) from None
    line = f"{n}, {shown}%"
    print(line)
    return line


def cmd_compare(path_a: str, path_b: str) -> dict:
    rec_a = analysis.RunRecord.from_json(Path(path_a).read_bytes(), path_a)
    rec_b = analysis.RunRecord.from_json(Path(path_b).read_bytes(), path_b)
    hartree, kcal = analysis.spin_splitting(rec_a.final_energy, rec_b.final_energy)
    print(f"E(A) - E(B) = {hartree:.6f} Ha = {kcal:.2f} kcal/mol")
    print(
        f"reductions: A {rec_a.reduction_pct_display}% "
        f"({rec_a.kind}), B {rec_b.reduction_pct_display}% ({rec_b.kind})"
    )
    advisory = analysis.balanced_reduction_advisory(
        rec_a.reduction_pct, rec_b.reduction_pct
    )
    if advisory:
        print(f"advisory: {advisory}")
    return {
        "delta_hartree": hartree,
        "delta_kcal_per_mol": kcal,
        "advisory": advisory,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgtns",
        description="Correlator tensor network states over small active spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--integrals", help="FCIDUMP integral file")
        p.add_argument(
            "--dump-config",
            action="store_true",
            help="print the effective configuration and exit",
        )

    run_p = sub.add_parser("run", help="optimize an ansatz")
    add_problem(run_p)
    run_p.add_argument("--seed", type=int, help="optimizer seed")
    run_p.add_argument("--ansatz", help="ansatz kind")
    run_p.add_argument("--window", help="occupation window LO,HI")
    run_p.add_argument("--screen", type=float, help="CSF screening threshold")
    run_p.add_argument("--out", help="output directory")

    oracle_p = sub.add_parser("oracle", help="exact diagonalization summary")
    add_problem(oracle_p)
    oracle_p.add_argument("--oracle-out", help="write the report as JSON")

    count_p = sub.add_parser("count", help="parameter count and reduction")
    count_p.add_argument("kind")
    count_p.add_argument("m", type=int)
    count_p.add_argument("reference_dim", type=int)
    count_p.add_argument("--selected", type=int, default=None)

    cmp_p = sub.add_parser("compare", help="splitting report for two runs")
    cmp_p.add_argument("record_a")
    cmp_p.add_argument("record_b")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = parse_config(text, path=str(path))
    else:
        cfg = RunConfig()
    if args.integrals:
        cfg.integrals = args.integrals
    if args.command != "run":
        return cfg
    if args.seed is not None:
        cfg.seed = args.seed
    if args.ansatz:
        cfg.ansatz = args.ansatz
    if args.window:
        try:
            lo, hi = (float(tok) for tok in args.window.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse --window {args.window!r}") from None
        cfg.window_lo, cfg.window_hi = lo, hi
    if args.screen is not None:
        cfg.screen = args.screen
    if args.out:
        cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "oracle"):
            cfg = _config_from_args(args)
            if args.dump_config:
                sys.stdout.write(dump_config(cfg))
                return EXIT_OK
            if args.command == "run":
                cmd_run(cfg)
            else:
                cmd_oracle(cfg, out=args.oracle_out)
        elif args.command == "count":
            cmd_count(args.kind, args.m, args.reference_dim, args.selected)
        elif args.command == "compare":
            cmd_compare(args.record_a, args.record_b)
        return EXIT_OK
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CgtnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
