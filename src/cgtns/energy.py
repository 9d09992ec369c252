"""Variational energy of a correlator state in a spin-adapted basis.

The energy is the deterministic Rayleigh quotient over all CSF weights (with
optional relative screening); per-CSF estimators reproduce it identically
when summed with squared-weight probabilities, which the tests enforce.
The genealogical CSFs are orthonormal, so the squared norm is S.S and the
CSF Hamiltonian is the only dense operator.
Gradients are exact, assembled from the multilinear amplitude derivatives:
the CSF weights of every active tensor's derivative states, scattered from
K's nonzeros.  A tensor's derivative states span every state that moves of
that tensor reach: the tensor solves and the Metropolis sweep both use
their pencil.  K is the basis's ``fock.CouplingMatrix``, stored by spatial
configuration, whose products add each element's terms in ascending index
order, so no product with it depends on BLAS.  An evaluation reports its
energy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import AmplitudeEngine, AnsatzSpec
from .errors import DegenerateStateError, DimensionError, EstimatorUndefinedError
from .fock import CsfBasis
from .hamiltonian import HamiltonianOperator, csf_hamiltonian

#: Below this squared norm the state is treated as numerically vanished.
NORM_FLOOR = 1e-300
#: Peak CSF weights that ``energy_from_weights`` uses without rescaling.
UNSCALED_PEAK = (1e-100, 1e100)


def peak_scale(peak: float) -> float:
    """Divisor of weights with this peak: 1 inside ``UNSCALED_PEAK`` (or for
    a zero peak), else a power of two near it, which keeps the quadratic
    forms in float range and shifts only exponents, so a state and its
    power-of-two rescaling get bit-identical energies."""
    if peak > UNSCALED_PEAK[1] or 0.0 < peak < UNSCALED_PEAK[0]:
        return 2.0 ** (math.frexp(peak)[1] - 1)
    return 1.0


@dataclass
class EnergyReport:
    """Energy of one evaluation."""

    e: float


class EnergyEvaluator:
    """Caches the CSF-basis operators for repeated evaluations of one ansatz.

    Keeps the basis's sparse K, whose list of nonzeros the derivative
    states are scattered from, and builds the amplitude engine and the
    dense CSF Hamiltonian ``h_csf`` = K H K^T once.  Every energy/gradient
    call then costs a handful of small dense products.  No array of
    n_det^2 floats is kept.  All heavy state is immutable, so one evaluator
    may serve many parameter vectors.
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
        self.engine = AmplitudeEngine(spec, m, basis.space)
        self.K = basis.K
        self.h_csf = csf_hamiltonian(basis, ham)

    # -- energy ---------------------------------------------------------------

    def weights(self, x: np.ndarray) -> np.ndarray:
        """CSF weights S_p = sum_n K_pn * amplitude(n)."""
        return self.K @ self.engine.amplitudes(x)

    def energy_from_weights(self, S: np.ndarray) -> EnergyReport:
        S = np.asarray(S, dtype=float)
        if S.shape != (self.basis.n_csfs,):
            raise DimensionError("weight vector does not match the CSF basis")
        peak = np.max(np.abs(S)) if S.size else 0.0
        if not np.isfinite(peak):
            raise DegenerateStateError(
                "CSF weights overflowed; the energy is numerically undefined"
            )
        scale = peak_scale(peak)
        if scale != 1.0:
            return self.energy_from_weights(S / scale)
        if self.screen > 0.0 and peak > 0.0:
            keep = np.abs(S) >= self.screen * peak
            Ss = S[keep]
            num = Ss @ (self.h_csf[np.ix_(keep, keep)] @ Ss)
            den = Ss @ Ss
        else:
            num = S @ (self.h_csf @ S)
            den = S @ S
        if not den > NORM_FLOOR:
            raise DegenerateStateError(
                "all CSF weights vanished; the energy is undefined"
            )
        if not (np.isfinite(num) and np.isfinite(den)):
            raise DegenerateStateError(
                "quadratic forms overflowed; the energy is numerically undefined"
            )
        return EnergyReport(e=float(num / den))

    def energy(self, x: np.ndarray) -> EnergyReport:
        """Rayleigh quotient of the correlator state over the CSF basis.

        CSFs whose |weight| falls below ``screen * max|weight|`` are dropped
        from numerator and denominator alike.
        """
        return self.energy_from_weights(self.weights(x))

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
        den = float(S @ S)
        if not den > NORM_FLOOR:
            raise DegenerateStateError("degenerate norm; gradient undefined")
        e = float(S @ HS) / den
        return 2.0 * (dS @ HS - e * (dS @ S)) / den

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact dE/d(entry) for every active tensor entry, unscreened: the
        derivative states of every active tensor, stacked in layout order,
        which are the rows of J K^T, J = ``engine.jacobian(x)``, bit for
        bit."""
        states = [self.derivative_states(t, c) for t, c in self.engine.environments(x)]
        return self.gradient_from_weights(self.weights(x), np.concatenate(states))

    def derivative_states(
        self, t: int, cofactor: np.ndarray, pair_weights: np.ndarray | None = None
    ) -> np.ndarray:
        """CSF weights of tensor t's derivative states, one row per entry,
        from ``cofactor``, tensor t's environment from the engine's
        ``environments(x)``: tensor t's rows of J K^T, J =
        ``jacobian(x)``, bit for bit, after a sum hybrid's ``pair_weights``
        (``K @ pair_addend(x)``) as row 0 when given.

        The rows are scattered from K's nonzeros, each CSF's in ascending
        determinant order, so every element is the sum the sparse-times-dense
        product forms, less its terms with a zero K entry, which add nothing
        while the cofactors are finite.
        """
        csfs, dets, values = self.K.rows, self.K.cols, self.K.data
        engine, n_csf = self.engine, self.basis.n_csfs
        first = 0 if pair_weights is None else 1
        local = engine.entry_table[t][dets] - (engine.offsets[t] - first)
        V = np.bincount(
            local * n_csf + csfs,
            weights=cofactor[dets] * values,
            minlength=(engine.sizes[t] + first) * n_csf,
        ).reshape(-1, n_csf)
        if first:
            V[0] = pair_weights
        return V
