"""Energy minimization over correlator space.

A parallel-tempering Metropolis walk does the global search; quasi-Newton
descent and tensor-wise generalized-eigenvalue solves refine locally.
Every entry point is deterministic for a fixed seed and keeps the
best-so-far energy non-increasing.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .correlators import AmplitudeEngine, AnsatzSpec
from .energy import UNSCALED_PEAK, EnergyEvaluator, peak_scale
from .errors import (
    ConfigError,
    DegenerateStateError,
    DimensionError,
    FrozenTensorError,
    ParseError,
)
from .fock import CsfBasis
from .hamiltonian import HamiltonianOperator, fix_sign

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
        for name in ("t_first", "t_last", "step_size"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


#: A move priced on its tensor's pencil is trusted while the squared norm
#: stays inside this range and above this fraction of the largest value
#: accepted since the pencil's sums were formed, as the incremental sums
#: keep an absolute error of order eps times that peak; otherwise the
#: proposal is evaluated in full.
LOCAL_NORM_RANGE = tuple(v * v for v in UNSCALED_PEAK)
LOCAL_NORM_DROP = 1e-3


class TensorPencil:
    """Energy changes of single-entry moves on one tensor, in O(1) each.

    Every determinant selects one entry of the tensor, so while only it
    moves the CSF weights are S = y V: V the tensor's derivative states (a
    sum hybrid's pair weights first), y their coefficients (the entries,
    after a fixed 1).  With the pencil ``HO`` = [V h V^T, V V^T] (h the CSF
    Hamiltonian; the CSFs are orthonormal, the derivative states are not),
    moving y_j by delta changes num = y.H y to num + 2 delta (H y)_j +
    delta^2 H_jj, and den = y.O y likewise; an accepted move adds delta
    times column j to H y and O y.  Where V's row j is zero, so is column
    j, and every move of y_j is priced exactly 0.0.
    """

    def __init__(self, HO: np.ndarray, y: np.ndarray):
        self.HO = HO
        self.columns = HO.transpose(2, 0, 1).tolist()  # [j]: columns j of H, O
        self.y = y
        self._form()

    def _form(self) -> None:
        """Form H y, O y and the quotient from the pencil, and restart the
        trusted range from them; a quotient outside it trusts no move."""
        hoy = self.HO @ self.y
        self.hy, self.oy = hoy.tolist()
        self.num, self.den = (hoy @ self.y).tolist()
        lo, hi = LOCAL_NORM_RANGE
        if math.isfinite(self.num) and lo < self.den < hi:
            self.energy = self.num / self.den
            self.floor = max(lo, LOCAL_NORM_DROP * self.den)
        else:
            self.energy, self.floor = math.nan, math.inf

    def price(self, j: int, delta: float) -> float | None:
        """Energy change of adding ``delta`` to y_j, or None when the
        quotient left the trusted range and only a full evaluation decides
        the move as a full-recompute sweep would."""
        h_j, o_j = self.columns[j]
        num = self.num + delta * (2.0 * self.hy[j] + delta * h_j[j])
        den = self.den + delta * (2.0 * self.oy[j] + delta * o_j[j])
        if not (math.isfinite(num) and self.floor < den < LOCAL_NORM_RANGE[1]):
            self._pending = None
            return None
        self._pending = num, den, num / den
        return num / den - self.energy

    def accept(self, j: int, delta: float) -> None:
        """Move y_j by ``delta``, the last move priced.  One that left the
        trusted range was accepted by its full evaluation: the sums are
        formed anew from the pencil, not from the incremental ones, whose
        error follows the largest norm they held."""
        self.y[j] += delta
        if self._pending is None:
            self._form()
            return
        h_j, o_j = self.columns[j]
        self.hy = [a + delta * b for a, b in zip(self.hy, h_j)]
        self.oy = [a + delta * b for a, b in zip(self.oy, o_j)]
        self.num, self.den, self.energy = self._pending
        self.floor = max(self.floor, LOCAL_NORM_DROP * self.den)


def _tensor_pencils(evaluator, x: np.ndarray):
    """Yield per active tensor its moves, (pencil row, flat index) pairs of
    its live entries, and its ``TensorPencil``, with V divided by the power
    of two by which ``energy_from_weights`` would divide S; or None where
    its moves are evaluated in full: S vanished or is not finite, or the
    evaluator is screened or not an ``EnergyEvaluator`` (one block)."""
    engine = evaluator.engine
    live = engine.live_indices.tolist()
    if not isinstance(evaluator, EnergyEvaluator) or evaluator.screen > 0.0:
        yield enumerate(live), None
        return
    first = 1 if engine.sum_mode else 0
    pair_weights = evaluator.K @ engine.pair_addend(x) if first else None
    ends = np.searchsorted(engine.live_indices, [*engine.offsets, engine.n_params])
    for t, cofactor in engine.environments(x):
        start = int(engine.offsets[t])
        moves = [(e - start + first, e) for e in live[ends[t] : ends[t + 1]]]
        V = evaluator.derivative_states(t, cofactor, pair_weights)
        y = np.concatenate((np.ones(first), x[start : start + engine.sizes[t]]))
        peak = float(np.abs(y @ V).max())
        if not (math.isfinite(peak) and peak > 0.0):
            yield moves, None
            continue
        V /= peak_scale(peak)
        HO = np.stack((V @ evaluator.h_csf @ V.T, V @ V.T))
        yield moves, TensorPencil(HO, y)


def metropolis_sweep(
    replica: ReplicaState,
    temperature: float,
    evaluator,
    target_acceptance: float | None = None,
) -> float:
    """One proposed move per live entry (``engine.live_indices``), in order.

    A proposal adds a uniform perturbation from [-step, step] to one entry,
    draws one uniform u and is accepted iff u < min{1, exp(-(E_new - E_old)/T)}.
    A failed energy evaluation aborts that move before u is drawn and leaves
    the state unchanged.  When a target acceptance is given, the step width
    is rescaled multiplicatively afterwards (bounded per sweep and
    globally).  Returns the sweep's acceptance ratio over the live entries.

    An unscreened ``EnergyEvaluator`` prices the moves on each active
    tensor on its pencil (``TensorPencil``), built once per tensor, and
    stores one full evaluation of the final state as the replica energy.
    Every proposal the pencil declines is evaluated in full, exactly as in
    the full-recompute sweep, and the pencil stays valid after it.
    """
    x = replica.x.copy()
    # The full energy of x as a full-recompute sweep holds it; None while x
    # is only known through pencil updates.
    e_full = replica.energy
    accepted = 0
    for moves, pencil in _tensor_pencils(evaluator, x):
        for j, entry in moves:
            delta = replica.rng.uniform(-replica.step, replica.step)
            de = None if pencil is None else pencil.price(j, delta)
            full_new = None
            if de is None:
                x_new = x.copy()
                x_new[entry] += delta
                try:
                    full_new = evaluator.energy(x_new).e
                    if e_full is None:
                        e_full = evaluator.energy(x).e
                except DegenerateStateError:
                    log.warning(
                        "energy evaluation failed; move on entry %d aborted", entry
                    )
                    continue
                de = full_new - e_full
            if replica.rng.random() < math.exp(min(0.0, -de / temperature)):
                x[entry] += delta
                accepted += 1
                e_full = full_new
                if pencil is not None:
                    pencil.accept(j, delta)
    if accepted:
        replica.x = x
        replica.energy = evaluator.energy(x).e if e_full is None else e_full
    ratio = accepted / len(evaluator.engine.live_indices)
    if target_acceptance is not None:
        factor = math.exp(ratio - target_acceptance)
        factor = min(max(factor, 1.0 / STEP_FACTOR_CAP), STEP_FACTOR_CAP)
        replica.step = min(max(replica.step * factor, STEP_BOUNDS[0]), STEP_BOUNDS[1])
    if isinstance(evaluator, EnergyEvaluator):
        replica.x = evaluator.engine.renormalized(replica.x)
    return ratio


def run_parallel_tempering(
    config: PtConfig, evaluator: EnergyEvaluator, x0: np.ndarray
) -> ReplicaEnsemble:
    """Minimize the evaluator's energy with replica-exchange Metropolis.

    All replicas start from the flat vector ``x0``.  Moves change active
    entries only; the scale renormalization after each sweep also moves a
    sum hybrid's frozen pairs, by exact powers of two.  Swap attempts run
    every ``swap_interval`` sweeps over adjacent temperature pairs with
    alternating even/odd pairing.
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


def _warm_triples(engine: AmplitudeEngine, pair_x: np.ndarray) -> np.ndarray:
    """Pure-triple parameters that reproduce the pair-product amplitudes.

    ``pair_x`` holds the tensors of the pair stage ``spec.pair_stage``.
    Every triple entry (a, b, c) of (i, j, k) takes the geometric mean
    |C_ij[a, b] C_ik[a, c] C_jk[b, c]|**(1/n) of its slot pair factors,
    multiplied in that slot order, with n the number of slot appearances of
    a pair across the triple set (m+2 with self-interaction triples, m-2
    without), so that the full triple product recovers each pair factor to
    the first power.  The sign of each pair factor is applied once, at its
    first slot appearance in (triple, slot) order.
    """
    spec, m = engine.spec, engine.m
    pair_keys = AnsatzSpec(spec.pair_stage).pair_keys(m)
    exponent = 1.0 / (m + 2) if spec.triples_si else 1.0 / (m - 2)
    # Scalar powers: an array power may differ from them by an ulp.
    magnitude = np.array([abs(v) ** exponent for v in pair_x.tolist()])
    signed = np.where(pair_x < 0, -magnitude, magnitude).reshape(-1, 2, 2)
    magnitude = magnitude.reshape(-1, 2, 2)

    pair_row = np.zeros((m, m), dtype=np.intp)
    pair_row[tuple(np.array(pair_keys).T)] = np.arange(len(pair_keys))
    i, j, k = np.array(engine.triple_keys).T
    slots = pair_row[[i, i, j], [j, k, k]].T  # (triple, slot): pair row
    factors = magnitude[slots]
    pairs, first = np.unique(slots, return_index=True)
    factors.reshape(-1, 2, 2)[first] = signed[pairs]
    x = factors[:, 0, :, :, None] * factors[:, 1, :, None, :]
    return (x * factors[:, 2, None, :, :]).ravel()


def _hybrid_start(
    engine: AmplitudeEngine, pair_x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Frozen pairs ``pair_x`` under identity triples, or for a sum hybrid
    under triples whose addend is small next to the pair addend P.

    A sum hybrid's triple entries share one magnitude (1e-3 max|P|)**(1/T),
    with T the number of triples, each times 1 + uniform noise in
    [-0.1, 0.1] drawn in layout order: their product, the triple addend, is
    then about 1e-3 max|P| at every determinant.  Near-zero entries would
    make it underflow to zero with tens of triples, and a zero addend has no
    gradient for the search or the subspace solves to follow.
    """
    x = np.ones(engine.n_params)
    x[: len(pair_x)] = pair_x
    if engine.sum_mode:
        peak = np.max(np.abs(engine.pair_addend(x)))
        scale = (1e-3 * peak) ** (1.0 / len(engine.triple_keys))
        active = engine.active_indices
        x[active] = scale * (1.0 + rng.uniform(-0.1, 0.1, len(active)))
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
    identity triples (small triples for the sum hybrids); pure triples
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
            x0 = _hybrid_start(evaluator.engine, pair_x, rng)
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


def gradient_subspace_solve(
    evaluator: EnergyEvaluator,
    x: np.ndarray,
    t: int,
    cofactor: np.ndarray,
    pair_weights: np.ndarray | None,
) -> tuple[np.ndarray, float]:
    """Optimal entries of the active tensor in row ``t`` from one small pencil.

    A determinant picks one entry of each tensor, so the state is linear in
    the 4 or 8 entries of tensor t: the lowest eigenpair of the pencil
    (V h V^T, V V^T) of their derivative states V gives the new entries and
    energy (h the CSF Hamiltonian; the CSFs are orthonormal).  A sum
    hybrid's state is affine in a triple, so the frozen pair addend joins as
    a ninth state and the entries are divided by its coefficient; the solve
    is declined, returning a copy of ``x`` and its energy, when the addend's
    share of the new state is 1e-10 or less.
    Every state is scaled to unit peak, and overlaps are rank-reduced at a
    relative eigenvalue floor of 1e-10; screening is ignored.  A pencil
    that vanishes or is not finite raises DegenerateStateError.  The scaled
    coefficients pass through ``fix_sign``, as ``exact_diagonalize``'s
    vector does, so the entries do not depend on the LAPACK driver.

    The caller passes tensor t's environment ``cofactor`` from
    ``engine.environments(x)`` and, for a sum hybrid only, ``pair_weights``
    = ``K @ engine.pair_addend(x)``; a frozen row, a row outside the
    tensors or misplaced pair weights raise.  A solve costs O(n_det + nnz K)
    for its derivative states, one product with the dense CSF Hamiltonian
    and two LAPACK calls of order 9 at most.
    """
    engine = evaluator.engine
    if t not in range(len(engine.keys)):
        raise DimensionError(f"no tensor row {t} in this ansatz")
    if t < engine.n_frozen_tensors:
        raise FrozenTensorError(f"tensor {engine.keys[t]} is frozen")
    if (pair_weights is not None) != engine.sum_mode:
        raise DimensionError("pair weights go with a sum hybrid's solve only")
    V = evaluator.derivative_states(t, cofactor, pair_weights)
    # The states can differ by many orders of magnitude, and the rank floor
    # is relative to the largest.
    peaks = np.abs(V).max(axis=1)
    scale = 1.0 / np.where(peaks > 0.0, peaks, 1.0)
    V *= scale[:, None]
    pencil = np.stack((V @ evaluator.h_csf @ V.T, V @ V.T))
    pencil = 0.5 * (pencil + pencil.transpose(0, 2, 1))
    if not np.isfinite(pencil).all():
        raise DegenerateStateError(
            "the subspace pencil is not finite; cannot update this tensor"
        )
    h_sub, s_sub = pencil
    w, U = np.linalg.eigh(s_sub)
    w_max = float(w[-1])
    if w_max <= 0.0:
        raise DegenerateStateError(
            "all subspace states vanish; cannot update this tensor"
        )
    keep = w > 1e-10 * w_max
    X = U[:, keep] / np.sqrt(w[keep])
    evals, Y = np.linalg.eigh(X.T @ h_sub @ X)
    coeff = X @ Y[:, 0]
    x_new = x.copy()
    # Of the unit-norm state, a sum hybrid's addend carries |coeff[0]| sqrt(s_00).
    if engine.sum_mode and not abs(coeff[0]) * math.sqrt(max(s_sub[0, 0], 0.0)) > 1e-10:
        return x_new, evaluator.energy(x).e
    coeff = fix_sign(coeff * scale)
    if engine.sum_mode:
        coeff = coeff[1:] / coeff[0]
    x_new[engine.offsets[t] : engine.offsets[t] + engine.sizes[t]] = coeff
    return x_new, float(evals[0])


def subspace_refine(evaluator: EnergyEvaluator, x: np.ndarray) -> RefineResult:
    """Cycle ``gradient_subspace_solve`` over the active tensors' rows in
    layout order: an alternating linear scheme.

    A pass hands each solve its cofactor from ``engine.environments``, as
    the Metropolis sweep does, and a sum hybrid's pair weights, formed once;
    it moves the tensor's entries in place before the next tensor's
    environment is formed.  A pass improves when
    some solve lowers the energy by more than ``SUBSPACE_GAIN``; the cycle
    stops after the first pass that does not, or after ``SUBSPACE_PASSES``
    passes (``converged=False``).  The energy returned is that of the last solve.
    """
    _check_unscreened(evaluator)
    engine = evaluator.engine
    pair_weights = evaluator.K @ engine.pair_addend(x) if engine.sum_mode else None
    energy = evaluator.energy(x).e
    x = x.copy()
    for done in range(1, SUBSPACE_PASSES + 1):
        improved = False
        for t, cofactor in engine.environments(x):
            # The module global, which tracing wraps; x is moved in place.
            x[:], e_sub = gradient_subspace_solve(
                evaluator, x, t, cofactor, pair_weights
            )
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
    ``screen = 0``.  A file that is not a well-formed checkpoint, or that
    describes an ansatz without an active tensor, raises ParseError naming
    ``path``; an ansatz or vectors that do not fit the basis raise
    DimensionError.  Only the document's reads are caught: a fault in
    building the evaluator or the ensemble propagates as raised.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
        if doc.get("format") != "cgtns-checkpoint" or doc["version"] not in (1, 2):
            raise ValueError("not a version-1 or version-2 checkpoint")
        screen = float(doc["screen"]) if doc["version"] == 2 else 0.0
        ansatz = doc["ansatz"]
        spec = AnsatzSpec(
            ansatz["kind"],
            selected_sites=(
                tuple(ansatz["selected_sites"]) if ansatz["selected_sites"] else None
            ),
            si_selected_triples=ansatz["si_selected_triples"],
        )
        if not isinstance(doc["m"], int):
            raise TypeError(f"m = {doc['m']!r} is not an integer")
        replicas = [
            (np.asarray(r["x"], dtype=float), float(r["energy"]), float(r["step"]),
             _restore_rng(r["rng_state"]))
            for r in doc["replicas"]
        ]
        best_x = np.asarray(doc["best_x"], dtype=float)
        fields = dict(
            config=PtConfig(**doc["config"]),
            temperatures=[float(t) for t in doc["temperatures"]],
            best_energy=float(doc["best_energy"]),
            trace=[
                TraceRow(int(row[0]), int(row[1]), float(row[2]), float(row[3]),
                         float(row[4]), bool(row[5]))
                for row in doc["trace_tail"]
            ],
            sweeps_done=int(doc["sweeps_done"]),
            swap_attempts=int(doc["swap_attempts"]),
            swap_rng=_restore_rng(doc["swap_rng_state"]),
        )
    except (
        AttributeError, ConfigError, IndexError, KeyError, OverflowError,
        RecursionError, TypeError, ValueError,
    ) as exc:  # undecodable, too deep, or a field of the wrong shape
        raise ParseError(f"malformed checkpoint: {exc}", path) from None
    try:
        evaluator = EnergyEvaluator(spec, doc["m"], basis, ham, screen=screen)
    except FrozenTensorError as exc:  # an ansatz no run can have
        raise ParseError(f"malformed checkpoint: {exc}", path) from None
    checked = evaluator.engine.checked
    return ReplicaEnsemble(
        replicas=[ReplicaState(checked(x), e, step, rng) for x, e, step, rng in replicas],
        best_x=checked(best_x),
        evaluator=evaluator,
        **fields,
    )
