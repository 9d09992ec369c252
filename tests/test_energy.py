"""Variational energy, per-CSF estimators, and analytic gradient checks."""

from pathlib import Path

import numpy as np
import pytest

from cgtns.correlators import ANSATZ_KINDS, AnsatzSpec
from cgtns.energy import EnergyEvaluator
from cgtns.errors import (
    DegenerateStateError,
    DimensionError,
    EstimatorUndefinedError,
    FrozenTensorError,
)
from cgtns.fock import build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import HamiltonianOperator, exact_diagonalize, parse_fcidump
from cgtns.optimizer import gradient_subspace_solve

from oracles import (
    active_rows,
    fd_gradient,
    fd_noise_bound,
    generic_quotient,
    identity,
    randomize,
    scipy_csr,
    solve_at_key,
    tensors,
)

FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"


@pytest.fixture(scope="module")
def h2():
    ints = parse_fcidump(FIXTURES / "h2.fcidump")
    space = enumerate_onvs(4, 2, 0.0)
    basis = build_csf_basis(space, 0.0)
    ham = HamiltonianOperator(ints, space)
    return ints, space, basis, ham


@pytest.fixture(scope="module")
def h4():
    ints = parse_fcidump(FIXTURES / "h4.fcidump")
    space = enumerate_onvs(8, 4, 0.0)
    basis = build_csf_basis(space, 0.0)
    ham = HamiltonianOperator(ints, space)
    return ints, space, basis, ham


@pytest.fixture(scope="module")
def h6():
    ints = parse_fcidump(FIXTURES / "h6.fcidump")
    space = enumerate_onvs(12, 6, 0.0)
    basis = build_csf_basis(space, 0.0)
    ham = HamiltonianOperator(ints, space)
    return ints, space, basis, ham


def make_spec(kind, m):
    if kind.endswith("sel"):
        return AnsatzSpec(kind, selected_sites=tuple(range(m // 2)))
    return AnsatzSpec(kind)


def random_params(spec, m, seed, scale=0.4):
    return randomize(spec, m, np.random.default_rng(seed), scale)


class TestVariationalEnergy:
    def test_single_csf_space_diagonal(self):
        # The doubly-occupied two-spin-orbital space holds exactly one CSF.
        from cgtns.hamiltonian import IntegralSet

        ints = IntegralSet.from_dense(
            np.full((1, 1), -1.25), np.full((1, 1, 1, 1), 0.7), e_core=0.5
        )
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 2, basis, ham)
        report = ev.energy(identity(spec, 2))
        K = basis.K.toarray()
        assert report.e == pytest.approx((K @ ham.matrix() @ K.T)[0, 0], abs=1e-12)

    def test_oracle_eigenvector_seam(self, h2):
        _, space, basis, ham = h2
        e0, vec = exact_diagonalize(ham)
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        report = ev.energy_from_weights(ev.K @ vec)
        assert report.e == pytest.approx(e0, abs=1e-10)

    def test_variational_bound_random_params(self, h2):
        _, space, basis, ham = h2
        e0, _ = exact_diagonalize(ham, basis)
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        for seed in range(50):
            report = ev.energy(random_params(spec, 4, seed))
            assert report.e >= e0 - 1e-12

    def test_screen_zero_is_bitwise_dense(self, h4):
        _, space, basis, ham = h4
        spec = AnsatzSpec("2s")
        x = random_params(spec, 8, 5)
        ev = EnergyEvaluator(spec, 8, basis, ham, screen=0.0)
        S = ev.weights(x)
        dense = float(S @ (ev.h_csf @ S)) / float(S @ S)
        assert ev.energy(x).e == dense  # bit-for-bit

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("system,m", [("h4", 8), ("h6", 12)])
    def test_matches_the_generic_metric_quotient(self, request, system, m, kind):
        # The evaluator takes the CSF metric to be the identity; the
        # quotient in the metric K K^T agrees to rounding.
        _, _, basis, ham = request.getfixturevalue(system)
        spec = make_spec(kind, m)
        ev = EnergyEvaluator(spec, m, basis, ham)
        for seed in range(3):
            x = random_params(spec, m, seed)
            assert ev.energy(x).e == pytest.approx(generic_quotient(ev, x), rel=1e-14)

    def test_screening_drops_both_sides(self, h4):
        _, space, basis, ham = h4
        spec = AnsatzSpec("2s")
        x = random_params(spec, 8, 6)
        exact = EnergyEvaluator(spec, 8, basis, ham, screen=0.0)
        screened = EnergyEvaluator(spec, 8, basis, ham, screen=0.3).energy(x)
        S = exact.weights(x)
        keep = np.abs(S) >= 0.3 * np.max(np.abs(S))
        assert not keep.all()
        num = S[keep] @ exact.h_csf[np.ix_(keep, keep)] @ S[keep]
        assert screened.e == pytest.approx(num / (S[keep] @ S[keep]), rel=1e-14)
        # The screened value is a Rayleigh quotient of a submatrix, hence
        # still a valid energy bounded by the oracle.
        e0, _ = exact_diagonalize(ham, basis)
        assert screened.e >= e0 - 1e-12
        assert exact.energy(x).e != screened.e

    def test_degenerate_weights_raise(self, h2):
        _, space, basis, ham = h2
        spec = AnsatzSpec("2s")
        x = identity(spec, 4)
        tensors(spec, 4, x)[0][(0, 1)][:] = 0.0
        ev = EnergyEvaluator(spec, 4, basis, ham)
        with pytest.raises(DegenerateStateError):
            ev.energy(x)


class TestEstimator:
    def test_single_csf_space(self):
        from cgtns.hamiltonian import IntegralSet

        ints = IntegralSet.from_dense(
            np.full((1, 1), -0.9), np.full((1, 1, 1, 1), 0.4), e_core=-0.2
        )
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        x = random_params(spec, 2, 9)
        ev = EnergyEvaluator(spec, 2, basis, ham)
        K = basis.K.toarray()
        assert ev.estimator(0, x) == pytest.approx(
            (K @ ham.matrix() @ K.T)[0, 0], abs=1e-12
        )

    def test_eigenvector_gives_constant_estimators(self, h2):
        _, space, basis, ham = h2
        e0, vec = exact_diagonalize(ham)
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        S = ev.K @ vec
        for r in range(basis.n_csfs):
            if abs(S[r]) < 1e-12:
                continue
            e_r = float(S @ ev.h_csf[:, r] / S[r])
            assert e_r == pytest.approx(e0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_identity(self, h4, seed):
        _, space, basis, ham = h4
        spec = AnsatzSpec("2s")
        x = random_params(spec, 8, seed)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        S = ev.weights(x)
        num = 0.0
        den = 0.0
        for r in range(basis.n_csfs):
            if S[r] == 0.0:
                continue
            e_r = ev.estimator(r, x)
            num += S[r] ** 2 * e_r
            den += S[r] ** 2
        assert num / den == pytest.approx(ev.energy(x).e, abs=1e-10)

    def test_undefined_below_floor(self, h2):
        _, space, basis, ham = h2
        spec = AnsatzSpec("2s")
        x = identity(spec, 4)
        ev = EnergyEvaluator(spec, 4, basis, ham, screen=0.9)
        S = ev.weights(x)
        small = int(np.argmin(np.abs(S)))
        if abs(S[small]) < 0.9 * np.max(np.abs(S)):
            with pytest.raises(EstimatorUndefinedError):
                ev.estimator(small, x)


def finite_difference(ev, x, idx):
    return fd_gradient(lambda xv: ev.energy(xv).e, x, idx)


class TestGradient:
    @pytest.mark.parametrize(
        "kind", ["2s", "2s/si", "3s", "3s/si", "3s[2s]", "3s+[2s]", "3s[2s]sel"]
    )
    def test_matches_finite_differences(self, h2, kind):
        _, space, basis, ham = h2
        spec = make_spec(kind, 4)
        x = random_params(spec, 4, seed=hash(kind) % 2**31)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        grad = ev.gradient(x)
        noise = fd_noise_bound(ev.energy(x).e)
        for row, e_idx in enumerate(ev.engine.active_indices):
            fd = finite_difference(ev, x, e_idx)
            tol = max(1e-6 * max(abs(fd), abs(grad[row])), noise)
            assert abs(grad[row] - fd) <= tol

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_matches_jacobian_route_bitwise(self, h4, kind):
        # The stacked derivative states equal the sparse Jacobian times K^T,
        # the route the gradient took through scipy, bit for bit (H4).
        _, space, basis, ham = h4
        spec = make_spec(kind, 8)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        for seed in range(3):
            x = random_params(spec, 8, seed)
            dS = (ev.engine.jacobian(x) @ scipy_csr(ev.K).T).toarray()
            ref = ev.gradient_from_weights(ev.weights(x), dS)
            assert ev.gradient(x).tobytes() == ref.tobytes()

    def test_gradient_vanishes_at_eigenvector(self, h2):
        _, space, basis, ham = h2
        _, vec = exact_diagonalize(ham)
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        grad = ev.gradient_from_weights(ev.K @ vec, ev.K.toarray().T)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_energy_invariant_under_tensor_rescaling(self, h4):
        _, space, basis, ham = h4
        spec = AnsatzSpec("2s")
        x = random_params(spec, 8, 27)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        base = ev.energy(x).e
        for lam in (2.0, -0.5, 1e3):
            scaled = x.copy()
            tensors(spec, 8, scaled)[0][(1, 4)] *= lam
            e = ev.energy(scaled).e
            assert e == pytest.approx(base, abs=1e-10)

    def test_scale_direction_is_flat(self, h4):
        # Scaling one tensor uniformly rescales the whole state, so the
        # directional derivative along that mode vanishes.
        _, space, basis, ham = h4
        spec = AnsatzSpec("2s")
        x = random_params(spec, 8, 31)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        grad = ev.gradient(x)
        key = (2, 5)
        direction = np.zeros_like(grad)
        direction[active_rows(ev.engine, key)] = tensors(spec, 8, x)[0][key].ravel()
        assert abs(grad @ direction) < 1e-9


class TestSitePairGradient:
    def test_slicing_consistency(self, h2):
        # The rows of a tensor are those whose flat entry lies in its block.
        _, space, basis, ham = h2
        cases = {"2s": [(0, 1), (2, 3), (1, 1)], "3s[2s]": [(0, 1, 2), (1, 1, 3)]}
        for kind, keys in cases.items():
            spec = AnsatzSpec(kind)
            ev = EnergyEvaluator(spec, 4, basis, ham)
            full = ev.gradient(random_params(spec, 4, 17))
            engine = ev.engine
            for key in keys:
                t = engine.keys.index(key)
                lo, hi = engine.offsets[t], engine.offsets[t] + engine.sizes[t]
                rows = [r for r, e in enumerate(engine.active_indices) if lo <= e < hi]
                assert len(rows) == engine.sizes[t]
                assert np.array_equal(full[active_rows(engine, key)], full[rows])

    def test_zero_at_eigenvector_seam(self, h2):
        _, space, basis, ham = h2
        _, vec = exact_diagonalize(ham)
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        grad = ev.gradient_from_weights(ev.K @ vec, ev.K.toarray().T)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_finite_difference_components(self, h2):
        _, space, basis, ham = h2
        spec = AnsatzSpec("2s")
        x = random_params(spec, 4, 23)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        key = (1, 2)
        rows = active_rows(ev.engine, key)
        sliced = ev.gradient(x)[rows]
        noise = fd_noise_bound(ev.energy(x).e)
        for comp, row in enumerate(range(rows.start, rows.stop)):
            fd = finite_difference(ev, x, ev.engine.active_indices[row])
            tol = max(1e-6 * max(abs(fd), abs(sliced[comp])), noise)
            assert abs(sliced[comp] - fd) <= tol

    def test_frozen_and_absent_tensors_rejected(self, h2):
        _, space, basis, ham = h2
        hybrid = EnergyEvaluator(AnsatzSpec("3s[2s]"), 4, basis, ham)
        with pytest.raises(FrozenTensorError):
            solve_at_key(hybrid, np.ones(hybrid.engine.n_params), (0, 1))
        strict = EnergyEvaluator(AnsatzSpec("2s/si"), 4, basis, ham)
        assert (1, 1) not in strict.engine.keys
        x, cofactor = np.ones(strict.engine.n_params), np.ones(space.size)
        with pytest.raises(DimensionError):
            gradient_subspace_solve(strict, x, len(strict.engine.keys), cofactor, None)
