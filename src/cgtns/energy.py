"""Variational energy of a correlator state in a spin-adapted basis.

The energy is the deterministic Rayleigh quotient over all CSF weights (with
optional relative screening); per-CSF estimators reproduce it identically
when summed with squared-weight probabilities, which the tests enforce.
Gradients are exact, assembled from the multilinear amplitude derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import AmplitudeEngine, AnsatzSpec, CorrelatorSet
from .errors import DegenerateStateError, DimensionError, EstimatorUndefinedError
from .fock import CsfBasis
from .hamiltonian import HamiltonianOperator, csf_hamiltonian

#: Below this squared norm the state is treated as numerically vanished.
NORM_FLOOR = 1e-300
#: Peak CSF weights that ``energy_from_weights`` uses without rescaling.
UNSCALED_PEAK = (1e-100, 1e100)
#: A local update is trusted while the squared norm stays inside this range
#: (the square of ``UNSCALED_PEAK``) and above this fraction of its value at
#: the sweep start; otherwise the proposal is evaluated in full.
LOCAL_NORM_RANGE = (1e-200, 1e200)
LOCAL_NORM_DROP = 1e-3
#: Nonzero local energy changes within this fraction of |E| (of 1 Ha at
#: least) are left to a full evaluation: near such a tie the sign of a
#: roundoff-level change decides whether a random number is drawn.
LOCAL_TIE = 1e-10


@dataclass
class EnergyReport:
    """Energy, squared norm, and screening bookkeeping of one evaluation."""

    e: float
    norm: float
    screened_csfs: int = 0
    estimator_samples: np.ndarray | None = None


class EnergyEvaluator:
    """Caches the CSF-basis operators for repeated evaluations of one ansatz.

    Builds the amplitude engine, the dense CSF Hamiltonian K H K^T, and the
    generic overlap K K^T once; every energy/gradient call then costs a
    handful of small dense products.  All heavy state is immutable, so one
    evaluator may serve many parameter vectors.
    """

    def __init__(
        self,
        spec: AnsatzSpec,
        m: int,
        basis: CsfBasis,
        ham: HamiltonianOperator,
        screen: float = 0.0,
    ):
        if basis.space is not ham.space and basis.space != ham.space:
            raise DimensionError("CSF basis and Hamiltonian use different spaces")
        if screen < 0:
            raise DimensionError(f"screening threshold must be >= 0, got {screen}")
        self.spec = spec
        self.screen = float(screen)
        self.basis = basis
        self.ham = ham
        self.engine = AmplitudeEngine(spec, m, basis.space)
        self.K = basis.dense()
        self.overlap = basis.overlap()
        self.h_csf = csf_hamiltonian(basis, ham)
        self._projected = None

    # -- parameter plumbing --------------------------------------------------

    def flatten(self, params: CorrelatorSet) -> np.ndarray:
        return self.engine.flatten(params)

    def unflatten(self, x: np.ndarray) -> CorrelatorSet:
        return self.engine.unflatten(x)

    # -- energy ---------------------------------------------------------------

    def weights(self, x: np.ndarray) -> np.ndarray:
        """CSF weights S_p = sum_n K_pn * amplitude(n)."""
        return self.K @ self.engine.amplitudes(x)

    def energy_from_weights(
        self, S: np.ndarray, with_estimators: bool = False
    ) -> EnergyReport:
        S = np.asarray(S, dtype=float)
        if S.shape != (self.basis.n_csfs,):
            raise DimensionError("weight vector does not match the CSF basis")
        peak = np.max(np.abs(S)) if S.size else 0.0
        if not np.isfinite(peak):
            raise DegenerateStateError(
                "CSF weights overflowed; the energy is numerically undefined"
            )
        if peak > UNSCALED_PEAK[1] or 0.0 < peak < UNSCALED_PEAK[0]:
            # The quotient is invariant under rescaling; normalizing extreme
            # weight scales keeps the quadratic forms inside float range.
            return self._energy_from_normalized(S / peak, peak, with_estimators)
        samples = None
        if self.screen > 0.0 and peak > 0.0:
            keep = np.abs(S) >= self.screen * peak
            dropped = int(S.size - np.count_nonzero(keep))
            Ss = S[keep]
            hs = self.h_csf[np.ix_(keep, keep)] @ Ss
            num = Ss @ hs
            den = Ss @ self.overlap[np.ix_(keep, keep)] @ Ss
            if with_estimators:
                samples = np.full(S.size, np.nan)
                samples[keep] = hs / Ss
        else:
            dropped = 0
            hs = self.h_csf @ S
            num = S @ hs
            den = S @ self.overlap @ S
            if with_estimators:
                with np.errstate(divide="ignore", invalid="ignore"):
                    samples = np.where(np.abs(S) > NORM_FLOOR, hs / S, np.nan)
        if not den > NORM_FLOOR:
            raise DegenerateStateError(
                "all CSF weights vanished; the energy is undefined"
            )
        if not (np.isfinite(num) and np.isfinite(den)):
            raise DegenerateStateError(
                "quadratic forms overflowed; the energy is numerically undefined"
            )
        return EnergyReport(
            e=float(num / den),
            norm=float(den),
            screened_csfs=dropped,
            estimator_samples=samples,
        )

    def _energy_from_normalized(self, Sn, peak, with_estimators):
        """Energy of rescaled weights; reported norm restores the true scale.

        The restored norm may saturate to inf for extreme scales while the
        energy itself stays finite and exact.
        """
        inner = self.energy_from_weights(Sn, with_estimators)
        norm = float(inner.norm * peak * peak)
        if norm == 0.0:  # underflowed scale restoration; the state is valid
            norm = float(np.finfo(float).tiny)
        return EnergyReport(
            e=inner.e,
            norm=norm,
            screened_csfs=inner.screened_csfs,
            estimator_samples=inner.estimator_samples,
        )

    def energy(self, x: np.ndarray, with_estimators: bool = False) -> EnergyReport:
        """Rayleigh quotient of the correlator state over the CSF basis.

        CSFs whose |weight| falls below ``screen * max|weight|`` are dropped
        from numerator and denominator alike.  ``with_estimators`` also fills
        the per-CSF energy estimates (NaN where a weight sits below the floor).
        """
        return self.energy_from_weights(self.weights(x), with_estimators)

    # -- local moves --------------------------------------------------------------

    def projected_operators(self) -> np.ndarray:
        """[Hd | Od]: K^T h K and K^T O K, the CSF Hamiltonian and overlap on
        determinants, side by side so that one row gather serves both.

        Built on first use and cached; only Metropolis sweeps need them.  Both
        halves are symmetric up to rounding, so a row serves as the matching
        column.
        """
        if self._projected is None:
            n = self.K.shape[1]
            tables = np.empty((n, 2 * n))
            np.matmul(self.K.T @ self.h_csf, self.K, out=tables[:, :n])
            np.matmul(self.K.T @ self.overlap, self.K, out=tables[:, n:])
            self._projected = tables
        return self._projected

    def local_moves(self, x: np.ndarray) -> LocalMoves | None:
        """Incremental proposal state at ``x``, or None where a sweep must
        evaluate every proposal in full: screened energies, and weights the
        full path would rescale (or that vanished or overflowed)."""
        if self.screen > 0.0:
            return None
        a, active = self.engine.amplitude_parts(x)
        peak = np.max(np.abs(self.K @ a))
        if not UNSCALED_PEAK[0] <= peak <= UNSCALED_PEAK[1]:
            return None
        return LocalMoves(self, a, active)

    # -- estimators -------------------------------------------------------------

    def estimator(self, r: int, x: np.ndarray) -> float:
        """Per-CSF energy estimate E_r = sum_s (S_s/S_r) <CSF_s|H|CSF_r>."""
        S = self.weights(x)
        if not 0 <= r < S.size:
            raise DimensionError(f"CSF index {r} out of range")
        peak = np.max(np.abs(S))
        floor = self.screen * peak if self.screen > 0.0 else NORM_FLOOR
        if abs(S[r]) < floor or S[r] == 0.0:
            raise EstimatorUndefinedError(
                f"weight S_{r} = {S[r]:.3e} below the screening floor"
            )
        if self.screen > 0.0 and peak > 0.0:
            keep = np.abs(S) >= self.screen * peak
            return float(S[keep] @ self.h_csf[keep, r] / S[r])
        return float(S @ self.h_csf[:, r] / S[r])

    # -- gradients ---------------------------------------------------------------

    def gradient_from_weights(self, S, dS) -> np.ndarray:
        """2 [ <dPsi|H|Psi> - E <dPsi|Psi> ] / <Psi|Psi> for rows dS."""
        HS = self.h_csf @ S
        OS = self.overlap @ S
        den = float(S @ OS)
        if not den > NORM_FLOOR:
            raise DegenerateStateError("degenerate norm; gradient undefined")
        e = float(S @ HS) / den
        return 2.0 * (dS @ HS - e * (dS @ OS)) / den

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact dE/d(entry) for every active tensor entry, unscreened."""
        S = self.weights(x)
        jac = self.engine.jacobian(x)          # (n_active, n_det)
        dS = jac @ self.K.T                    # (n_active, n_csf)
        return self.gradient_from_weights(S, dS)


class LocalMoves:
    """Energies of single-entry moves from one state, at O(|D|) per proposal.

    Moving active entry x_e by delta changes only the amplitudes of the
    determinants D that select it, by d = act_D * delta / x_e, where act is
    the addend holding the entry (the amplitude itself in product mode, the
    triple product in sum mode).  With u = Hd a and w = Od a,

        num' = num + 2 d.u_D + d.Hd_DD d,   den' = den + 2 d.w_D + d.Od_DD d.

    A zero x_e regathers the cofactor instead of dividing by it.  The rows
    d.Hd_D and d.Od_D computed for a proposal update u and w on acceptance.
    """

    def __init__(self, evaluator: EnergyEvaluator, a: np.ndarray, active: np.ndarray):
        self.engine = evaluator.engine
        self.tables = evaluator.projected_operators()
        self.active = active.copy()
        self.uw = (a @ self.tables).reshape(2, -1)  # rows u and w
        self.nd = self.uw @ a  # (num, den)
        self.energy = float(self.nd[0] / self.nd[1])
        self._norm_floor = max(LOCAL_NORM_RANGE[0], LOCAL_NORM_DROP * self.nd[1])
        self._pending = None

    def propose(self, x: np.ndarray, k: int, delta: float) -> float | None:
        """Energy after adding ``delta`` to the k-th active entry of ``x``.

        None when only a full evaluation decides the move as a full-recompute
        sweep would: the update left the trusted norm range, or it moved the
        energy by a nonzero amount within ``LOCAL_TIE`` (a roundoff-level
        tie).  A move that changes no amplitude returns ``energy`` itself.
        """
        t, dets = self.engine.entry_cells[k]
        x_e = x[self.engine.active_indices[k]]
        if x_e != 0.0:
            d = self.active[dets] * (delta / x_e)
        else:
            d = self.engine.active_cofactor(x, t, dets) * delta
        rows = (d @ self.tables.take(dets, axis=0)).reshape(2, -1)
        nd = self.nd + 2.0 * (self.uw[:, dets] @ d) + rows[:, dets] @ d
        num, den = nd.tolist()
        if not (math.isfinite(num) and self._norm_floor < den < LOCAL_NORM_RANGE[1]):
            self._pending = None
            return None
        self._pending = (dets, d, rows, nd)
        if not np.count_nonzero(d):
            return self.energy
        e = num / den
        if abs(e - self.energy) <= LOCAL_TIE * max(abs(self.energy), 1.0):
            return None
        return e

    def accept(self) -> bool:
        """Move the state to the last proposal; False if it left the trusted
        range, after which this state no longer describes the sweep."""
        if self._pending is None:
            return False
        dets, d, rows, self.nd = self._pending
        self.energy = float(self.nd[0] / self.nd[1])
        self.active[dets] += d
        self.uw += rows
        return True


# -- oracle-eigenvector seam -------------------------------------------------


def energy_from_amplitudes(
    c: np.ndarray, basis: CsfBasis, ham: HamiltonianOperator, screen: float = 0.0
) -> EnergyReport:
    """Energy of an explicit determinant-amplitude vector (test seam).

    Projects the amplitudes through the CSF map exactly like a correlator
    state, so injecting an oracle eigenvector reproduces the oracle energy.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (basis.space.size,):
        raise DimensionError("amplitude vector does not match the space")
    ev = EnergyEvaluator(AnsatzSpec("2s"), basis.space.m, basis, ham, screen=screen)
    return ev.energy_from_weights(ev.K @ c)


def amplitude_space_gradient(
    c: np.ndarray, basis: CsfBasis, ham: HamiltonianOperator
) -> np.ndarray:
    """dE/dc_n for an explicit amplitude vector (test seam).

    Vanishes at any eigenvector of the projected problem, which pins the
    stationarity of the Rayleigh quotient independently of the tensor
    parameterization.
    """
    c = np.asarray(c, dtype=float)
    ev = EnergyEvaluator(AnsatzSpec("2s"), basis.space.m, basis, ham)
    S = ev.K @ c
    return ev.gradient_from_weights(S, ev.K.T)
