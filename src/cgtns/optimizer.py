"""Energy minimization over correlator space.

A parallel-tempering Metropolis walk does the global search; quasi-Newton,
per-pair reduced-gradient sweeps, and a local generalized-eigenvalue update
refine locally.  Every entry point is deterministic for a fixed seed and
keeps the best-so-far energy non-increasing.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import linalg

from .correlators import AmplitudeEngine, AnsatzSpec
from .energy import EnergyEvaluator
from .errors import (
    ConfigError,
    DegenerateStateError,
    DimensionError,
    FrozenTensorError,
)
from .fock import CsfBasis
from .hamiltonian import HamiltonianOperator

log = logging.getLogger(__name__)

#: Bounds on the adaptive Metropolis step width.
STEP_BOUNDS = (1e-9, 1e2)
#: Per-sweep cap on the multiplicative step update.
STEP_FACTOR_CAP = 2.0
#: Rows of trace kept inside a checkpoint document.
TRACE_TAIL = 200
#: Pass cap of ``subspace_refine``, and the energy drop (Ha) that makes a
#: pass count as an improvement.
SUBSPACE_PASSES = 50
SUBSPACE_GAIN = 1e-10


@dataclass
class PtConfig:
    """Parallel-tempering run parameters.

    Temperatures are artificial, in Hartree.  ``target_acceptance`` drives
    the bounded multiplicative step adaptation; set it to None to freeze the
    proposal width.
    """

    t_first: float = 0.001
    t_last: float = 0.05
    n_replicas: int = 4
    sweeps: int = 200
    swap_interval: int = 5
    step_size: float = 0.1
    seed: int = 0
    target_acceptance: float | None = 0.4

    def __post_init__(self):
        if not 0 < self.t_first <= self.t_last:
            raise ConfigError(
                f"need 0 < t_first <= t_last, got ({self.t_first}, {self.t_last})"
            )
        if self.n_replicas < 1:
            raise ConfigError("n_replicas must be >= 1")
        if self.step_size <= 0:
            raise ConfigError("step_size must be positive")
        if self.sweeps < 0:
            raise ConfigError("sweeps must be >= 0")
        if self.swap_interval < 1:
            raise ConfigError("swap_interval must be >= 1")
        if self.target_acceptance is not None and not 0 < self.target_acceptance < 1:
            raise ConfigError("target_acceptance must lie in (0, 1)")

    def temperatures(self) -> list[float]:
        """The replica ladder; several replicas need t_first < t_last."""
        if self.n_replicas > 1 and self.t_first == self.t_last:
            raise ConfigError(
                "multiple replicas need strictly increasing temperatures; "
                "equal endpoints make the swap rule undefined"
            )
        return temperature_ladder(self.t_first, self.t_last, self.n_replicas)


def temperature_ladder(t_first: float, t_last: float, p: int) -> list[float]:
    """Log-spaced temperatures T_l = T_1 * exp((ln T_P - ln T_1)/(P-1))**(l-1)."""
    if p < 1:
        raise ConfigError("replica count must be >= 1")
    if p == 1:
        if t_first != t_last:
            raise ConfigError(
                "a single replica requires equal first and last temperatures"
            )
        return [t_first]
    if not 0 < t_first <= t_last:
        raise ConfigError("need 0 < t_first <= t_last")
    ratio = math.exp((math.log(t_last) - math.log(t_first)) / (p - 1))
    return [t_first * ratio ** (l - 1) for l in range(1, p + 1)]


def swap_probability(t_i: float, e_i: float, t_j: float, e_j: float) -> float:
    """min{1, exp(dE/dT)} with dE = E_j - E_i and dT = T_j T_i / (T_i - T_j)."""
    if t_i == t_j:
        raise ConfigError("swap probability undefined for equal temperatures")
    delta_e = e_j - e_i
    delta_t = t_j * t_i / (t_i - t_j)
    arg = delta_e / delta_t
    if arg >= 0:
        return 1.0
    return math.exp(arg)


@dataclass
class TraceRow:
    sweep: int
    replica: int
    temperature: float
    energy: float
    acceptance: float
    swapped: bool

    def as_list(self):
        return [
            self.sweep,
            self.replica,
            self.temperature,
            self.energy,
            self.acceptance,
            self.swapped,
        ]


@dataclass
class ReplicaState:
    x: np.ndarray
    energy: float
    step: float
    rng: np.random.Generator


@dataclass
class ReplicaEnsemble:
    """Full optimizer state: replicas, best-so-far, and the run trace.

    The evaluator holds the ansatz and the site count.
    """

    config: PtConfig
    temperatures: list[float]
    replicas: list[ReplicaState]
    best_x: np.ndarray
    best_energy: float
    evaluator: EnergyEvaluator = field(repr=False)
    trace: list[TraceRow] = field(default_factory=list)
    sweeps_done: int = 0
    swap_attempts: int = 0
    swap_rng: np.random.Generator = None


def _replica_rng(seed: int, index: int) -> np.random.Generator:
    """Stream split: the base seed spawns one child sequence per replica.

    Replica r draws from SeedSequence(seed).spawn key (r,); the swap decisions
    use the extra key (n_replicas,).  Serial and parallel execution therefore
    see identical streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _renormalize_product_scale(engine, x: np.ndarray) -> np.ndarray:
    """Pull product-form amplitudes back toward unit scale, bit-exactly.

    Product ansatze have a flat direction (rescaling active tensors rescales
    every amplitude without changing the energy), so a long walk can drift
    the amplitude scale toward float overflow or underflow.  Multiplying
    active tensors by powers of two shifts only exponents: amplitudes, and
    hence the energy quotient, are unchanged except for the removed scale.
    Sum hybrids are left alone (their addend scale is physical).
    """
    if engine.sum_mode:
        return x
    amps = np.abs(engine.amplitudes(x))
    peak = float(np.max(amps))
    if not np.isfinite(peak) or peak == 0.0:
        return x
    if 2.0**-50 < peak < 2.0**50:
        return x
    k = -int(math.floor(math.log2(peak)))
    active_tensors = []
    for t, key in enumerate(engine.keys):
        sl = slice(engine.offsets[t], engine.offsets[t] + engine.sizes[t])
        if engine.active_mask[sl].any():
            active_tensors.append(sl)
    if not active_tensors:
        return x
    n = len(active_tensors)
    q, r = divmod(k, n)
    x = x.copy()
    for i, sl in enumerate(active_tensors):
        x[sl] *= 2.0 ** (q + 1 if i < r else q)
    return x


def metropolis_sweep(
    replica: ReplicaState,
    temperature: float,
    evaluator,
    target_acceptance: float | None = None,
) -> float:
    """One proposed move per active tensor entry, in fixed order.

    Proposals add a uniform perturbation from [-step, step] to one entry;
    acceptance follows min{1, exp(-(E_new - E_old)/T)}.  A failed energy
    evaluation aborts that move and leaves the state unchanged.  When a
    target acceptance is given, the step width is rescaled multiplicatively
    afterwards (bounded per sweep and globally).  Returns the acceptance
    ratio of the sweep.

    An unscreened ``EnergyEvaluator`` prices each proposal by a local update
    (``LocalMoves``) and stores one full evaluation of the final state as
    the replica energy.  Any other evaluator, and every proposal that
    ``LocalMoves.propose`` declines, is evaluated in full, exactly as in the
    full-recompute sweep.
    """
    active = evaluator.engine.active_indices
    if len(active) == 0:
        raise FrozenTensorError("no active parameters to optimize")
    rng = replica.rng
    x = replica.x.copy()
    moves = evaluator.local_moves(x) if isinstance(evaluator, EnergyEvaluator) else None
    # The full energy of x as a full-recompute sweep holds it; None while x
    # is only known through local updates.
    e_full = replica.energy
    accepted = 0
    for k, entry in enumerate(active):
        delta = rng.uniform(-replica.step, replica.step)
        e_new = None if moves is None else moves.propose(x, k, delta)
        full_new = None
        if e_new is None:
            x_new = x.copy()
            x_new[entry] += delta
            try:
                full_new = evaluator.energy(x_new).e
                if e_full is None:
                    e_full = evaluator.energy(x).e
            except DegenerateStateError:
                log.warning("energy evaluation failed; move on entry %d aborted", entry)
                continue
            de = full_new - e_full
        else:
            de = e_new - moves.energy
        if de <= 0.0 or rng.random() < math.exp(-de / temperature):
            x[entry] += delta
            accepted += 1
            e_full = full_new
            if moves is not None and not moves.accept():
                moves = None
    if accepted:
        replica.x = x
        replica.energy = evaluator.energy(x).e if e_full is None else e_full
    ratio = accepted / len(active)
    if target_acceptance is not None:
        factor = math.exp(ratio - target_acceptance)
        factor = min(max(factor, 1.0 / STEP_FACTOR_CAP), STEP_FACTOR_CAP)
        replica.step = min(max(replica.step * factor, STEP_BOUNDS[0]), STEP_BOUNDS[1])
    if isinstance(evaluator, EnergyEvaluator):
        replica.x = _renormalize_product_scale(evaluator.engine, replica.x)
    return ratio


def run_parallel_tempering(
    config: PtConfig, evaluator: EnergyEvaluator, x0: np.ndarray
) -> ReplicaEnsemble:
    """Minimize the evaluator's energy with replica-exchange Metropolis.

    All replicas start from the flat vector ``x0``; frozen entries never
    move.  Swap attempts run every ``swap_interval`` sweeps over adjacent
    temperature pairs with alternating even/odd pairing.
    """
    x0 = evaluator.engine.checked(x0)
    temperatures = config.temperatures()
    e0 = evaluator.energy(x0).e
    replicas = [
        ReplicaState(
            x=x0.copy(),
            energy=e0,
            step=config.step_size,
            rng=_replica_rng(config.seed, r),
        )
        for r in range(config.n_replicas)
    ]
    ensemble = ReplicaEnsemble(
        config=config,
        temperatures=temperatures,
        replicas=replicas,
        best_x=x0.copy(),
        best_energy=e0,
        swap_rng=_replica_rng(config.seed, config.n_replicas),
        evaluator=evaluator,
    )
    continue_parallel_tempering(ensemble, config.sweeps)
    return ensemble


def continue_parallel_tempering(ensemble: ReplicaEnsemble, sweeps: int) -> None:
    """Advance an ensemble by ``sweeps`` further sweeps, in place."""
    config = ensemble.config
    evaluator = ensemble.evaluator
    p = config.n_replicas
    for _ in range(sweeps):
        sweep = ensemble.sweeps_done + 1
        acceptances = []
        for r, replica in enumerate(ensemble.replicas):
            ratio = metropolis_sweep(
                replica,
                ensemble.temperatures[r],
                evaluator,
                config.target_acceptance,
            )
            acceptances.append(ratio)
            if replica.energy < ensemble.best_energy:
                ensemble.best_energy = replica.energy
                ensemble.best_x = replica.x.copy()
        swapped = [False] * p
        if p > 1 and sweep % config.swap_interval == 0:
            start = ensemble.swap_attempts % 2
            for i in range(start, p - 1, 2):
                prob = swap_probability(
                    ensemble.temperatures[i],
                    ensemble.replicas[i].energy,
                    ensemble.temperatures[i + 1],
                    ensemble.replicas[i + 1].energy,
                )
                if ensemble.swap_rng.random() < prob:
                    a, b = ensemble.replicas[i], ensemble.replicas[i + 1]
                    a.x, b.x = b.x, a.x
                    a.energy, b.energy = b.energy, a.energy
                    swapped[i] = swapped[i + 1] = True
            ensemble.swap_attempts += 1
        for r, replica in enumerate(ensemble.replicas):
            ensemble.trace.append(
                TraceRow(
                    sweep=sweep,
                    replica=r,
                    temperature=ensemble.temperatures[r],
                    energy=replica.energy,
                    acceptance=acceptances[r],
                    swapped=swapped[r],
                )
            )
        ensemble.sweeps_done = sweep


# ---------------------------------------------------------------------------
# Starts and stages
# ---------------------------------------------------------------------------


def cold_start(engine: AmplitudeEngine, rng: np.random.Generator) -> np.ndarray:
    """Identity-biased start: every active entry 1 + uniform noise in
    [-0.1, 0.1], drawn in layout order; frozen entries are one."""
    x = np.ones(engine.n_params)
    x[engine.active_indices] += rng.uniform(-0.1, 0.1, len(engine.active_indices))
    return x


def _slot_pairs(key: tuple[int, int, int]):
    i, j, k = key
    return (
        ((i, j), (0, 1, None)),
        ((i, k), (0, None, 1)),
        ((j, k), (None, 0, 1)),
    )


def _warm_triples(engine: AmplitudeEngine, pair_x: np.ndarray) -> np.ndarray:
    """Pure-triple parameters that reproduce the pair-product amplitudes.

    ``pair_x`` holds the tensors of the pair stage ``spec.pair_stage``.
    Every triple entry takes the geometric mean |C_ij C_ik C_jk|**(1/n) of its
    slot pair factors, with n the number of slot appearances of a pair across
    the triple set (m+2 with self-interaction triples, m-2 without), so that
    the full triple product recovers each pair factor to the first power.
    The sign of each pair factor is applied once, at its lexicographically
    first slot appearance.
    """
    spec, m = engine.spec, engine.m
    pair_keys = AnsatzSpec(spec.pair_stage).pair_keys(m)
    pairs = dict(zip(pair_keys, np.reshape(pair_x, (-1, 2, 2))))
    exponent = 1.0 / (m + 2) if spec.triples_si else 1.0 / (m - 2)

    x = np.ones(engine.n_params)
    triples = dict(zip(engine.triple_keys, x.reshape(-1, 2, 2, 2)))
    for key, tensor in triples.items():
        for pair, layout in _slot_pairs(key):
            source = pairs[pair]
            for a in range(2):
                for b in range(2):
                    magnitude = abs(source[a, b]) ** exponent
                    idx = [slice(None)] * 3
                    idx[layout.index(0)] = a
                    idx[layout.index(1)] = b
                    tensor[tuple(idx)] *= magnitude
    # Assign each pair-entry sign once, at the first slot appearance.
    assigned: set[tuple[int, int]] = set()
    for key, tensor in triples.items():
        for pair, layout in _slot_pairs(key):
            if pair in assigned:
                continue
            source = pairs[pair]
            for a in range(2):
                for b in range(2):
                    if source[a, b] < 0:
                        idx = [slice(None)] * 3
                        idx[layout.index(0)] = a
                        idx[layout.index(1)] = b
                        tensor[tuple(idx)] *= -1.0
            assigned.add(pair)
    return x


def run_stages(
    config: PtConfig,
    spec: AnsatzSpec,
    basis: CsfBasis,
    ham: HamiltonianOperator,
    screen: float = 0.0,
    cold: bool = False,
):
    """Tempering stages of ``spec``; yields each stage's ensemble as it ends.

    A triple-bearing ansatz first optimizes its pair stage
    (``spec.pair_stage``).  The hybrids freeze that stage's best vector under
    identity triples (near-zero triples for the sum hybrids); pure triples
    are warm-started from it, or with ``cold`` run alone from a cold start.
    Starts draw from ``SeedSequence(config.seed, spawn_key=(99,))`` and stage
    i runs on seed ``config.seed + i``.  Each stage builds its own evaluator
    and drops the previous one before it does.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(99,)))
    stages = [spec]
    if spec.pair_stage is not None and (spec.is_hybrid or not cold):
        stages.insert(0, AnsatzSpec(spec.pair_stage))
    pair_x = None
    for i, stage_spec in enumerate(stages):
        evaluator = EnergyEvaluator(
            stage_spec, basis.space.m, basis, ham, screen=screen
        )
        if pair_x is None:
            x0 = cold_start(evaluator.engine, rng)
        elif spec.is_hybrid:
            x0 = np.ones(evaluator.engine.n_params)
            x0[: len(pair_x)] = pair_x
            if spec.combine_mode == "sum":
                active = evaluator.engine.active_indices
                x0[active] = rng.uniform(-1e-3, 1e-3, len(active))
        else:
            x0 = _warm_triples(evaluator.engine, pair_x)
        ensemble = run_parallel_tempering(
            replace(config, seed=config.seed + i), evaluator, x0
        )
        pair_x = ensemble.best_x
        yield ensemble
        del ensemble, evaluator


# ---------------------------------------------------------------------------
# Gradient refinements
# ---------------------------------------------------------------------------
# Each refinement runs on the caller's evaluator (the search's, as a rule)
# from the flat vector ``x``, which it leaves unchanged; the result carries
# a new vector.


@dataclass
class RefineResult:
    x: np.ndarray
    energy: float
    n_iterations: int
    converged: bool
    message: str = ""


def _check_unscreened(evaluator: EnergyEvaluator) -> None:
    """Refinements are defined on the unscreened energy; a screened energy
    would not match the gradient and the subspace solves."""
    if evaluator.screen > 0.0:
        raise ConfigError(
            f"refinements need an unscreened evaluator, got screen = "
            f"{evaluator.screen}"
        )


def bfgs_refine(
    evaluator: EnergyEvaluator,
    x: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> RefineResult:
    """Quasi-Newton descent on the exact energy with the analytic gradient.

    Never returns a point with higher energy than the input; a line-search
    failure surfaces as ``converged=False`` with the best point found.
    """
    # Imported here: only BFGS needs it, and it slows every command's start.
    from scipy import optimize

    _check_unscreened(evaluator)
    active = evaluator.engine.active_indices
    if len(active) == 0:
        raise FrozenTensorError("no active parameters to refine")
    best = {"y": x[active].copy(), "e": evaluator.energy(x).e}

    def assemble(y):
        x_new = x.copy()
        x_new[active] = y
        return x_new

    def fun(y):
        try:
            e = evaluator.energy(assemble(y)).e
        except DegenerateStateError:
            return np.inf
        if e < best["e"]:
            best["e"] = e
            best["y"] = np.asarray(y).copy()
        return e

    def jac(y):
        try:
            return evaluator.gradient(assemble(y))
        except DegenerateStateError:
            return np.zeros(len(active))

    start_grad = jac(best["y"])
    if float(np.max(np.abs(start_grad), initial=0.0)) < tol:
        return RefineResult(
            x=assemble(best["y"]),
            energy=best["e"],
            n_iterations=0,
            converged=True,
            message="gradient already below tolerance",
        )
    res = optimize.minimize(
        fun,
        best["y"].copy(),
        jac=jac,
        method="BFGS",
        options={"gtol": tol, "maxiter": max_iter},
    )
    return RefineResult(
        x=assemble(best["y"]),
        energy=best["e"],
        n_iterations=int(res.nit),
        converged=bool(res.success),
        message=str(res.message),
    )


def reduced_gradient_sweep(
    evaluator: EnergyEvaluator,
    x: np.ndarray,
    passes: int = 3,
    initial_step: float = 0.5,
    tol: float = 1e-10,
) -> RefineResult:
    """Cycle over pair tensors, line-searching along each local 4-gradient.

    Each accepted step strictly lowers the energy; the sweep stops after
    ``passes`` full cycles or as soon as a cycle brings no improvement.
    """
    _check_unscreened(evaluator)
    active_pairs = () if evaluator.spec.pairs_frozen else evaluator.engine.pair_keys
    if not active_pairs:
        raise FrozenTensorError("reduced-gradient sweep needs active pair tensors")
    engine = evaluator.engine
    flat_of = {
        key: engine.active_indices[engine.active_rows(key)] for key in active_pairs
    }
    x = x.copy()
    energy = evaluator.energy(x).e
    done = 0
    for _ in range(passes):
        improved = False
        for key in active_pairs:
            # This pair's rows of the full gradient, bit for bit.
            dS = engine.jacobian_rows(x, key) @ evaluator.K.T
            grad = evaluator.gradient_from_weights(evaluator.weights(x), dS)
            norm = float(np.max(np.abs(grad), initial=0.0))
            if norm < tol:
                continue
            step = initial_step
            for _ in range(40):
                x_trial = x.copy()
                x_trial[flat_of[key]] -= step * grad
                try:
                    e_trial = evaluator.energy(x_trial).e
                except DegenerateStateError:
                    e_trial = np.inf
                if e_trial < energy - 1e-14:
                    x, energy = x_trial, e_trial
                    improved = True
                    break
                step *= 0.5
        done += 1
        if not improved:
            break
    return RefineResult(x=x, energy=energy, n_iterations=done, converged=True)


def gradient_subspace_solve(
    evaluator: EnergyEvaluator, x: np.ndarray, i: int, j: int
) -> tuple[np.ndarray, float]:
    """Optimal pair tensor (i, j) from a 4-dimensional eigenvalue problem.

    The state is linear in the chosen tensor's entries, so the partial
    derivative states span a subspace containing it; the lowest eigenpair of
    the Hamiltonian/overlap pencil in that subspace gives the replacement
    entries and the new energy.  Near-singular overlaps are rank-reduced at
    a relative eigenvalue floor of 1e-10.  Returns the updated copy of ``x``
    and its energy; the evaluator's screening is ignored.
    """
    key = (i, j) if i <= j else (j, i)
    rows = evaluator.engine.active_rows(key)
    V = np.asarray(evaluator.engine.jacobian_rows(x, key) @ evaluator.K.T)
    h_sub = V @ evaluator.h_csf @ V.T
    s_sub = V @ evaluator.overlap @ V.T
    h_sub = 0.5 * (h_sub + h_sub.T)
    s_sub = 0.5 * (s_sub + s_sub.T)
    w, U = linalg.eigh(s_sub)
    w_max = float(w[-1])
    if w_max <= 0.0:
        raise DegenerateStateError(
            "all subspace states vanish; cannot update this tensor"
        )
    keep = w > 1e-10 * w_max
    X = U[:, keep] / np.sqrt(w[keep])
    evals, Y = linalg.eigh(X.T @ h_sub @ X)
    coeff = X @ Y[:, 0]
    x_new = x.copy()
    x_new[evaluator.engine.active_indices[rows]] = coeff
    return x_new, float(evals[0])


def subspace_refine(evaluator: EnergyEvaluator, x: np.ndarray) -> RefineResult:
    """Cycle ``gradient_subspace_solve`` over the active pairs in sorted order.

    A pass improves when some solve lowers the energy by more than
    ``SUBSPACE_GAIN``; the cycle stops after the first pass that does not,
    or after ``SUBSPACE_PASSES`` passes (``converged=False``).  The energy
    returned is that of the last solve.
    """
    _check_unscreened(evaluator)
    active_pairs = () if evaluator.spec.pairs_frozen else evaluator.engine.pair_keys
    if not active_pairs:
        raise FrozenTensorError("subspace refinement needs active pair tensors")
    energy = evaluator.energy(x).e
    for done in range(1, SUBSPACE_PASSES + 1):
        improved = False
        for key in active_pairs:
            x, e_sub = gradient_subspace_solve(evaluator, x, *key)
            if energy - e_sub > SUBSPACE_GAIN:
                improved = True
            energy = e_sub
        if not improved:
            break
    return RefineResult(x=x, energy=energy, n_iterations=done, converged=not improved)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in its directory.

    ``os.replace`` swaps the finished file in, so ``path`` holds its old or
    its new content, never a part; a failed write leaves no temporary file.
    Newlines are written as given.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(ensemble: ReplicaEnsemble, path) -> None:
    """Write the full ensemble state (tensors, RNG streams, trace tail)."""
    spec = ensemble.evaluator.spec
    doc = {
        "format": "cgtns-checkpoint",
        "version": 2,
        "config": asdict(ensemble.config),
        "screen": ensemble.evaluator.screen,
        "ansatz": {
            "kind": spec.kind,
            "selected_sites": (
                list(spec.selected_sites) if spec.selected_sites else None
            ),
            "si_selected_triples": spec.si_selected_triples,
        },
        "m": ensemble.evaluator.engine.m,
        "temperatures": ensemble.temperatures,
        "sweeps_done": ensemble.sweeps_done,
        "swap_attempts": ensemble.swap_attempts,
        "best_energy": ensemble.best_energy,
        "best_x": ensemble.best_x.tolist(),
        "replicas": [
            {
                "x": r.x.tolist(),
                "energy": r.energy,
                "step": r.step,
                "rng_state": r.rng.bit_generator.state,
            }
            for r in ensemble.replicas
        ],
        "swap_rng_state": ensemble.swap_rng.bit_generator.state,
        "trace_tail": [row.as_list() for row in ensemble.trace[-TRACE_TAIL:]],
    }
    write_atomic(path, json.dumps(doc))


def _restore_rng(state: dict) -> np.random.Generator:
    bg = np.random.PCG64()
    bg.state = state
    return np.random.Generator(bg)


def load_checkpoint(
    path, basis: CsfBasis, ham: HamiltonianOperator
) -> ReplicaEnsemble:
    """Rebuild an ensemble; continuing it reproduces the uninterrupted run.

    Version-1 files do not record the screening threshold; they load with
    ``screen = 0``.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "cgtns-checkpoint" or doc.get("version") not in (1, 2):
        raise DimensionError(f"{path} is not a version-1 or version-2 checkpoint")
    screen = float(doc["screen"]) if doc["version"] == 2 else 0.0
    ansatz = doc["ansatz"]
    spec = AnsatzSpec(
        ansatz["kind"],
        selected_sites=(
            tuple(ansatz["selected_sites"]) if ansatz["selected_sites"] else None
        ),
        si_selected_triples=ansatz["si_selected_triples"],
    )
    config = PtConfig(**doc["config"])
    evaluator = EnergyEvaluator(spec, doc["m"], basis, ham, screen=screen)
    replicas = [
        ReplicaState(
            x=evaluator.engine.checked(r["x"]),
            energy=float(r["energy"]),
            step=float(r["step"]),
            rng=_restore_rng(r["rng_state"]),
        )
        for r in doc["replicas"]
    ]
    trace = [
        TraceRow(
            sweep=int(row[0]),
            replica=int(row[1]),
            temperature=float(row[2]),
            energy=float(row[3]),
            acceptance=float(row[4]),
            swapped=bool(row[5]),
        )
        for row in doc["trace_tail"]
    ]
    return ReplicaEnsemble(
        config=config,
        temperatures=[float(t) for t in doc["temperatures"]],
        replicas=replicas,
        best_x=evaluator.engine.checked(doc["best_x"]),
        best_energy=float(doc["best_energy"]),
        trace=trace,
        sweeps_done=int(doc["sweeps_done"]),
        swap_attempts=int(doc["swap_attempts"]),
        swap_rng=_restore_rng(doc["swap_rng_state"]),
        evaluator=evaluator,
    )
