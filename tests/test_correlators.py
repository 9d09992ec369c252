"""Ansatz definitions, parameter counts, amplitudes, and weights."""

import json
from pathlib import Path

import numpy as np
import pytest

from cgtns.correlators import (
    ANSATZ_KINDS,
    AmplitudeEngine,
    AnsatzSpec,
    param_count,
    select_sites,
)
from cgtns.energy import EnergyEvaluator
from cgtns.errors import (
    CapacityError,
    DegenerateStateError,
    DimensionError,
    FrozenTensorError,
)
from cgtns.fock import build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import HamiltonianOperator, IntegralSet, parse_fcidump
from cgtns.optimizer import cold_start

from oracles import (
    _occ,
    active_rows,
    amplitude,
    amplitude_partial_derivative,
    bits_of,
    cofactors_reference,
    entry_cells_loop,
    identity,
    jacobian_loop,
    jacobian_rows,
    randomize,
    renormalized_loop,
    scipy_csr,
    tensors,
)


FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"


def csf_weights(x, spec, m, basis):
    """EnergyEvaluator.weights; the (zero) Hamiltonian plays no part in them."""
    ham = HamiltonianOperator(IntegralSet.zeros(basis.space.m // 2), basis.space)
    return EnergyEvaluator(spec, m, basis, ham).weights(x)


def loop_amplitude_oracle(spec, m, x, bits):
    """Independent nested-loop amplitude: reads tensors straight off the dicts."""
    pairs, triples = tensors(spec, m, x)

    def occ(site):
        return (bits >> site) & 1

    p_prod = 1.0
    for (i, j) in sorted(pairs):
        p_prod = p_prod * pairs[(i, j)][occ(i)][occ(j)]
    t_prod = 1.0
    for (i, j, k) in sorted(triples):
        t_prod = t_prod * triples[(i, j, k)][occ(i)][occ(j)][occ(k)]
    if not pairs:
        return t_prod
    if not triples:
        return p_prod
    if "+[2s]" in spec.kind:
        return p_prod + t_prod
    return p_prod * t_prod


def make_spec(kind, m=None):
    if kind.endswith("sel"):
        return AnsatzSpec(kind, selected_sites=tuple(range(m or 4)))
    return AnsatzSpec(kind)


class TestParamCount:
    def test_benchmark_pair_counts_m24(self):
        assert param_count("2s", 24) == 1200
        assert param_count("2s/si", 24) == 1104

    def test_benchmark_triple_counts_m24(self):
        assert param_count("3s", 24) == 20800
        assert param_count("3s/si", 24) == 16192

    def test_hybrids_report_active_triples(self):
        assert param_count("3s[2s]", 24) == 20800
        assert param_count("3s+[2s]", 24) == 20800
        assert param_count("3s/si[2s]", 24) == 16192
        assert param_count("3s/si+[2s]", 24) == 16192

    def test_selected_counts(self):
        assert param_count("3s[2s]sel", 24, n_selected=10) == 1760
        assert param_count("3s[2s]sel", 24, n_selected=14) == 4480
        assert param_count("3s[2s]sel", 24, n_selected=18) == 9120
        spec = AnsatzSpec("3s[2s]sel", selected_sites=tuple(range(10)))
        assert param_count(spec, 24) == 1760
        excl = AnsatzSpec(
            "3s[2s]sel", selected_sites=tuple(range(10)), si_selected_triples=False
        )
        assert param_count(excl, 24) == 120 * 8

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 24])
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_stored_entries_match_count(self, kind, m):
        spec = make_spec(kind, m)
        engine = AmplitudeEngine(spec, m, enumerate_onvs(m, 2, 0.0))
        assert engine.n_params == identity(spec, m).size
        assert len(engine.active_indices) == param_count(spec, m)

    @pytest.mark.parametrize("m", [4, 8, 12])
    @pytest.mark.parametrize("kind", [k for k in ANSATZ_KINDS if k.endswith("sel")])
    def test_selected_count_matches_engine(self, kind, m):
        # Two selection sizes, given as sites and as a count alike.
        space = enumerate_onvs(m, 2, 0.0)
        for n_selected in (2, m // 2 + 1):
            spec = AnsatzSpec(kind, selected_sites=tuple(range(n_selected)))
            n_active = len(AmplitudeEngine(spec, m, space).active_indices)
            assert param_count(spec, m) == n_active
            assert param_count(kind, m, n_selected=n_selected) == n_active


    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_refused_exactly_where_the_engine_refuses(self, kind):
        # m = 2 stores no strict triple: 3s/si has no tensor and 3s/si[2s]
        # only frozen pairs.  Both functions raise the same error.
        space = enumerate_onvs(2, 1, 0.5)
        spec = make_spec(kind, 2)
        try:
            n_active = len(AmplitudeEngine(spec, 2, space).active_indices)
        except (DimensionError, FrozenTensorError) as exc:
            with pytest.raises(type(exc), match=str(exc)):
                param_count(spec, 2)
        else:
            assert param_count(spec, 2) == n_active

    @pytest.mark.parametrize("m", [65, 100])
    def test_more_sites_than_any_space_refused(self, m):
        with pytest.raises(CapacityError):
            param_count("2s", m)
        with pytest.raises(CapacityError):
            param_count("3s[2s]sel", m, n_selected=4)

    def test_selection_only_for_selected_kinds(self):
        with pytest.raises(DimensionError, match="selected_sites"):
            param_count("2s", 24, n_selected=5)
        assert param_count("3s[2s]sel", 24, n_selected=14) == 4480


class TestAmplitude:
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_identity_correlators_give_constant_amplitude(self, kind):
        # All-ones tensors make every factor product equal one, so product
        # forms give amplitude 1 and the additive hybrids give 1 + 1 = 2.
        m = 6
        spec = make_spec(kind, m)
        x = identity(spec, m)
        space = enumerate_onvs(m, 3, 0.5)
        expected = 2.0 if spec.combine_mode == "sum" and spec.is_hybrid else 1.0
        for bits in space.onvs:
            assert amplitude(spec, m, x, bits) == expected

    def test_single_deviating_pair_entry(self):
        spec = AnsatzSpec("2s/si")
        x = identity(spec, 4)
        tensors(spec, 4, x)[0][(0, 1)][1, 0] = 3.0
        onv = bits_of("1000")
        assert amplitude(spec, 4, x, onv) == 3.0

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_matches_independent_loop_oracle(self, kind):
        m = 6
        rng = np.random.default_rng(99)
        spec = make_spec(kind, m)
        x = randomize(spec, m, rng)
        space = enumerate_onvs(m, 3, 0.5)
        for bits in space.onvs:
            assert amplitude(spec, m, x, bits) == pytest.approx(
                loop_amplitude_oracle(spec, m, x, bits), rel=1e-13
            )

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_engine_matches_reference(self, kind):
        m = 6
        rng = np.random.default_rng(3)
        spec = make_spec(kind, m)
        x = randomize(spec, m, rng)
        space = enumerate_onvs(m, 3, 0.5)
        engine = AmplitudeEngine(spec, m, space)
        amps = engine.amplitudes(x)
        for n, bits in enumerate(space.onvs):
            assert amps[n] == pytest.approx(amplitude(spec, m, x, bits), rel=1e-13)

    def test_multilinearity_in_single_entry(self):
        m = 4
        spec = AnsatzSpec("2s")
        rng = np.random.default_rng(5)
        x = randomize(spec, m, rng)
        onv = bits_of("1100")
        key, element = (0, 1), (1, 1)

        def amp_with(value):
            trial = x.copy()
            tensors(spec, m, trial)[0][key][element] = value
            return amplitude(spec, m, trial, onv)

        a0, a1, a2 = amp_with(0.0), amp_with(1.0), amp_with(2.0)
        assert a2 - a1 == pytest.approx(a1 - a0, rel=1e-12, abs=1e-12)

    def test_scale_covariance_product_form(self):
        m = 6
        spec = AnsatzSpec("2s")
        rng = np.random.default_rng(8)
        x = randomize(spec, m, rng)
        space = enumerate_onvs(m, 3, 0.5)
        base = np.array([amplitude(spec, m, x, b) for b in space.onvs])
        scaled = x.copy()
        tensors(spec, m, scaled)[0][(1, 3)] *= 2.5
        new = np.array([amplitude(spec, m, scaled, b) for b in space.onvs])
        assert np.allclose(new, 2.5 * base, rtol=1e-12)

    def test_si_reduction_equivalence(self):
        # A full pair set whose self-interaction tensors are all ones gives
        # the amplitudes of the corresponding si-free set.
        m = 6
        rng = np.random.default_rng(21)
        full_spec, si_spec = AnsatzSpec("2s"), AnsatzSpec("2s/si")
        si_x = randomize(si_spec, m, rng)
        full_x = identity(full_spec, m)
        full_pairs = tensors(full_spec, m, full_x)[0]
        for k, v in tensors(si_spec, m, si_x)[0].items():
            full_pairs[k][:] = v
        space = enumerate_onvs(m, 3, 0.5)
        for bits in space.onvs:
            assert amplitude(full_spec, m, full_x, bits) == pytest.approx(
                amplitude(si_spec, m, si_x, bits), rel=1e-13
            )

    def test_hybrid_identity_triples_reduce_to_pairs(self):
        m = 6
        rng = np.random.default_rng(2)
        spec2 = AnsatzSpec("2s")
        pair_x = randomize(spec2, m, rng)
        space = enumerate_onvs(m, 3, 0.5)
        spec_h = AnsatzSpec("3s[2s]")
        hybrid = np.ones(AmplitudeEngine(spec_h, m, space).n_params)
        hybrid[: len(pair_x)] = pair_x
        for bits in space.onvs:
            assert amplitude(spec_h, m, hybrid, bits) == amplitude(
                spec2, m, pair_x, bits
            )


class TestCsfWeights:
    def test_identity_gives_row_sums(self):
        space = enumerate_onvs(6, 3, 0.5)
        basis = build_csf_basis(space, 0.5)
        spec = AnsatzSpec("2s")
        S = csf_weights(identity(spec, 6), spec, 6, basis)
        assert np.allclose(S, basis.K.toarray().sum(axis=1), atol=1e-14)

    def test_single_determinant_csf(self):
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        spec = AnsatzSpec("2s")
        x = randomize(spec, 2, np.random.default_rng(4))
        S = csf_weights(x, spec, 2, basis)
        assert S[0] == pytest.approx(amplitude(spec, 2, x, space.onvs[0]), rel=1e-13)

    def test_matches_dense_matvec(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        spec = AnsatzSpec("2s")
        x = randomize(spec, 4, np.random.default_rng(6))
        amps = np.array([amplitude(spec, 4, x, b) for b in space.onvs])
        S = csf_weights(x, spec, 4, basis)
        assert np.allclose(S, basis.K.toarray() @ amps, atol=1e-13)


class TestNorm:
    """The squared norm sum_pq S_p S_q sum_n K_pn K_qn is the energy's
    denominator, S.S for the orthonormal CSFs."""

    @staticmethod
    def evaluator(space, basis):
        ham = HamiltonianOperator(IntegralSet.zeros(space.m // 2, e_core=-1.0), space)
        return EnergyEvaluator(AnsatzSpec("2s"), space.m, basis, ham)

    def test_unit_vector(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        e1 = np.zeros(basis.n_csfs)
        e1[0] = 1.0
        ev = self.evaluator(space, basis)
        report = ev.energy_from_weights(e1)
        assert report.e == pytest.approx(ev.h_csf[0, 0], abs=1e-12)

    def test_zero_vector(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ev = self.evaluator(space, basis)
        with pytest.raises(DegenerateStateError):
            ev.energy_from_weights(np.zeros(basis.n_csfs))

    def test_dense_expansion_oracle(self):
        space = enumerate_onvs(6, 3, 0.5)
        basis = build_csf_basis(space, 0.5)
        spec = AnsatzSpec("2s")
        S = csf_weights(randomize(spec, 6, np.random.default_rng(9)), spec, 6, basis)
        dense = basis.K.toarray().T @ S  # determinant-space expansion
        assert float(S @ S) == pytest.approx(float(dense @ dense), rel=1e-12)
        report = self.evaluator(space, basis).energy_from_weights(S)
        assert report.e == pytest.approx(-1.0, rel=1e-12)


class TestSelectSites:
    def test_window_example(self):
        sites = select_sites([1.99, 1.50, 0.50, 0.01], (0.02, 1.98))
        assert sites == (2, 3, 4, 5)

    def test_full_window_selects_all(self):
        assert select_sites([1.0, 2.0, 0.0], (0.0, 2.0)) == (0, 1, 2, 3, 4, 5)

    def test_boundary_inclusive(self):
        assert select_sites([1.98], (0.02, 1.98)) == (0, 1)

    def test_empty_selection_warns(self):
        with pytest.warns(UserWarning, match="empty selection"):
            assert select_sites([1.995], (0.02, 1.98)) == ()

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            select_sites([1.0], (1.5, 0.5))
        with pytest.raises(DimensionError):
            select_sites([2.5], (0.0, 2.0))


class TestPartialDerivative:
    def test_identity_matching_pattern(self):
        spec = AnsatzSpec("2s")
        onv = bits_of("1100")
        val = amplitude_partial_derivative(
            spec, 4, identity(spec, 4), onv, (0, 1), (1, 1)
        )
        assert val == 1.0

    def test_non_matching_pattern_is_zero(self):
        spec = AnsatzSpec("2s")
        x = identity(spec, 4)
        onv = bits_of("1100")
        assert amplitude_partial_derivative(spec, 4, x, onv, (0, 1), (0, 0)) == 0.0

    def test_frozen_tensor_rejected(self):
        spec = AnsatzSpec("3s[2s]")
        x = identity(spec, 4)
        onv = bits_of("1100")
        with pytest.raises(FrozenTensorError):
            amplitude_partial_derivative(spec, 4, x, onv, (0, 1), (1, 1))

    @pytest.mark.parametrize("kind", ["2s", "3s", "3s[2s]", "3s+[2s]", "2s/si"])
    def test_matches_central_finite_difference(self, kind):
        m = 4
        rng = np.random.default_rng(12)
        spec = make_spec(kind, m)
        x = randomize(spec, m, rng)
        onv = bits_of("1010")
        pairs, triples = tensors(spec, m, x)
        keys = list(triples) if spec.pairs_frozen else list(pairs) + list(triples)
        h = 1e-6
        for key in keys[:6]:
            shape = (2, 2) if len(key) == 2 else (2, 2, 2)
            for element in np.ndindex(*shape):
                plus, minus = x.copy(), x.copy()
                tensors(spec, m, plus)[len(key) - 2][key][element] += h
                tensors(spec, m, minus)[len(key) - 2][key][element] -= h
                fd = (
                    amplitude(spec, m, plus, onv) - amplitude(spec, m, minus, onv)
                ) / (2 * h)
                an = amplitude_partial_derivative(spec, m, x, onv, key, element)
                assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ["2s", "3s", "3s[2s]", "3s+[2s]"])
    def test_engine_jacobian_matches_reference(self, kind):
        m = 6
        rng = np.random.default_rng(15)
        spec = make_spec(kind, m)
        x = randomize(spec, m, rng)
        space = enumerate_onvs(m, 3, 0.5)
        engine = AmplitudeEngine(spec, m, space)
        jac = engine.jacobian(x).toarray()
        for row, e in enumerate(engine.active_indices):
            t = int(np.searchsorted(engine.offsets, e, side="right") - 1)
            key = engine.keys[t]
            local = e - engine.offsets[t]
            element = tuple(
                int(b) for b in np.unravel_index(local, (2, 2) if len(key) == 2 else (2, 2, 2))
            )
            for n, bits in enumerate(space.onvs):
                ref = amplitude_partial_derivative(spec, m, x, bits, key, element)
                assert jac[row, n] == pytest.approx(ref, rel=1e-11, abs=1e-11)


class TestEngineTables:
    """The engine's vectorised tables against per-determinant loops."""

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_jacobian_matches_loop_bitwise(self, kind, seed):
        rng = np.random.default_rng(seed)
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, 8, enumerate_onvs(8, 4, 0.0))
        x = randomize(spec, 8, rng)
        if seed:
            x[engine.active_indices[3]] = 0.0  # a zero factor as well
        fast, ref = engine.jacobian(x), jacobian_loop(engine, x)
        assert np.array_equal(fast.data, ref.data)
        assert np.array_equal(fast.indices, ref.indices)
        assert np.array_equal(fast.indptr, ref.indptr)

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_entry_cells_match_loop(self, kind, n):
        # The Jacobian built per call holds in row e exactly the determinants
        # that select active entry e, ascending, as the per-entry scan of
        # the entry table finds them (H4, H6).
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, 2 * n, enumerate_onvs(2 * n, n, 0.0))
        jac = engine.jacobian(np.ones(engine.n_params))
        ref = entry_cells_loop(engine)
        assert jac.shape[0] == len(ref)
        for e, (_, dets) in enumerate(ref):
            assert np.array_equal(jac.indices[jac.indptr[e] : jac.indptr[e + 1]], dets)

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_live_indices_are_the_selected_active_entries(self, kind, n):
        # Ascending, and exactly the active entries that some determinant's
        # cells name in the per-entry scan (H4, H6).
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, 2 * n, enumerate_onvs(2 * n, n, 0.0))
        cells = entry_cells_loop(engine)
        live = [e for e, (_, dets) in zip(engine.active_indices, cells) if len(dets)]
        assert engine.live_indices.tolist() == live

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_environments_match_reference_bitwise(self, kind, n):
        # Each active tensor's environment against the prefix and suffix
        # products, bit for bit (H4 and H6 spaces), from starts with zero
        # entries; then for a caller that moves each tensor's entries in
        # place after its environment, as a subspace pass does, against
        # the reference at the entries as moved so far.
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, 2 * n, enumerate_onvs(2 * n, n, 0.0))
        active = list(range(engine.n_frozen_tensors, len(engine.keys)))
        rng = np.random.default_rng(n)
        for zeros in (False, True):
            x = randomize(spec, 2 * n, rng)
            if zeros:
                x[engine.active_indices[3::7]] = 0.0
            ref = cofactors_reference(engine, x)
            env = list(engine.environments(x))
            assert [t for t, _ in env] == active
            for t, cofactor in env:
                assert cofactor.tobytes() == ref[t - engine.addend_start].tobytes()
            for t, cofactor in engine.environments(x):
                ref = cofactors_reference(engine, x)[t - engine.addend_start]
                assert cofactor.tobytes() == ref.tobytes()
                block = slice(engine.offsets[t], engine.offsets[t] + engine.sizes[t])
                x[block] = rng.uniform(-1.5, 1.5, engine.sizes[t]) if t % 5 else 0.0

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_engine_holds_no_per_cell_tables(self, kind, n):
        # entry_table is the engine's only array with a cell per active
        # tensor and determinant; the Jacobian is built per call.
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        space = enumerate_onvs(2 * n, n, 0.0)
        engine = AmplitudeEngine(AnsatzSpec(kind, selected_sites=sel), 2 * n, space)
        cells = (len(engine.keys) - engine.n_frozen_tensors) * space.size
        for name, value in vars(engine).items():
            if isinstance(value, np.ndarray) and name != "entry_table":
                assert value.size < cells, name

    @pytest.mark.parametrize("kind", ["2s", "2s/si"])
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jacobian_rows_match_full_jacobian_bitwise(self, kind, n, seed):
        # The subspace solve's V, scattered from one tensor's cofactors over
        # K's nonzeros, equals the rows of the full Jacobian times K^T and
        # the reference rows times K^T, bit for bit, with K^T sparse or
        # dense (H4 and H6 spaces); a sum hybrid's pair weights, when given,
        # are prepended as row 0.
        space = enumerate_onvs(2 * n, n, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(IntegralSet.zeros(n), space)
        spec = AnsatzSpec(kind)
        ev = EnergyEvaluator(spec, 2 * n, basis, ham)
        engine, K = ev.engine, ev.K
        x = randomize(spec, 2 * n, np.random.default_rng(seed))
        jac = engine.jacobian(x)
        weights = ev.weights(x)
        for t, cofactor in engine.environments(x):
            key = engine.keys[t]
            V = ev.derivative_states(t, cofactor)
            for rows in (jac[active_rows(engine, key)], jacobian_rows(engine, x, key)):
                assert V.tobytes() == (rows @ scipy_csr(K).T).toarray().tobytes()
                assert V.tobytes() == (rows @ K.toarray().T).tobytes()
            stacked = ev.derivative_states(t, cofactor, weights)
            assert stacked.tobytes() == np.vstack((weights, V)).tobytes()

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_renormalized_matches_loop_bitwise(self, kind, n):
        # Every active entry takes one common factor, which puts the
        # amplitude peak near 2**E for E in [-250, 250]: mostly outside
        # 2**±50, where every kind is rescaled, a sum hybrid's pair addend
        # with its triple addend (H4 and H6 spaces).
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, 2 * n, enumerate_onvs(2 * n, n, 0.0))
        rng = np.random.default_rng(n)
        rescaled = 0
        for _ in range(8):
            x = randomize(spec, 2 * n, rng)
            exponent = rng.uniform(-250, 250) / (len(engine.keys) - engine.n_frozen_tensors)
            x[engine.active_indices] *= 2.0**exponent
            fast = engine.renormalized(x)
            assert fast.tobytes() == renormalized_loop(engine, x).tobytes()
            rescaled += not np.array_equal(fast, x)
        assert rescaled > 0

    def test_renormalized_sum_hybrid_keeps_its_addend_ratio(self):
        # A triple addend 2**900 times its pair addend comes back into range
        # by one power of two over both addends: the energy and the ratio
        # of the addends keep every bit (H4 3s+[2s]).
        ints = parse_fcidump(FIXTURES / "h4.fcidump")
        space = enumerate_onvs(8, 4, 0.0)
        ham = HamiltonianOperator(ints, space)
        ev = EnergyEvaluator(AnsatzSpec("3s+[2s]"), 8, build_csf_basis(space, 0.0), ham)
        engine = ev.engine
        x = np.random.default_rng(4).uniform(0.9, 1.1, engine.n_params)
        n_triples = len(engine.triple_keys)
        exponents = np.repeat([8] * 60 + [7] * (n_triples - 60), 8)
        x[engine.active_indices] = np.ldexp(x[engine.active_indices], exponents)
        y = engine.renormalized(x)

        def ratio(v):
            triples = np.prod(v[engine.entry_table[engine.addend_start :]], axis=0)
            return triples / engine.pair_addend(v)

        assert np.max(np.abs(ev.weights(x))) > 2.0**850
        assert 1.0 <= np.max(np.abs(engine.amplitudes(y))) < 2.0
        assert ev.energy(y).e == ev.energy(x).e
        assert np.array_equal(ratio(y), ratio(x))
        pairs = slice(None, engine.active_indices[0])
        assert not np.array_equal(y[pairs], x[pairs])

    def test_renormalized_single_tensor_from_a_subnormal_peak(self):
        # One active tensor takes the whole power 2**1030, which a float
        # cannot hold; the exponent shift lands the peak in [1, 2).
        engine = AmplitudeEngine(AnsatzSpec("2s/si"), 2, enumerate_onvs(2, 1, 0.5))
        x = np.full(engine.n_params, 1e-310)
        peak = np.max(np.abs(engine.amplitudes(engine.renormalized(x))))
        assert 1.0 <= peak < 2.0

    @pytest.mark.parametrize("kind", ["3s+[2s]", "3s/si+[2s]", "3s+[2s]sel"])
    def test_sum_hybrid_addends(self, kind):
        # The pair addend is the amplitude of the pair tensors alone, and the
        # environments cover the triple addend only.
        spec = make_spec(kind, 8)
        pair_spec = AnsatzSpec("2s")
        space = enumerate_onvs(8, 4, 0.0)
        engine = AmplitudeEngine(spec, 8, space)
        rng = np.random.default_rng(3)
        x = randomize(spec, 8, rng)
        n_pair = 4 * engine.n_pair_rows
        x[:n_pair] = randomize(pair_spec, 8, rng)
        ref = [amplitude(pair_spec, 8, x[:n_pair], bits) for bits in space.onvs]
        assert np.array_equal(engine.pair_addend(x), ref)
        assert engine.addend_start == engine.n_pair_rows
        env = [t for t, _ in engine.environments(x)]
        assert env == list(range(engine.n_pair_rows, len(engine.keys)))

    def test_all_frozen_ansatz_refused(self):
        # Strict triples over one spatial orbital (two sites) do not exist,
        # so this hybrid would hold frozen pairs only.
        spec = AnsatzSpec("3s[2s]sel", selected_sites=(2, 3), si_selected_triples=False)
        with pytest.raises(FrozenTensorError):
            AmplitudeEngine(spec, 8, enumerate_onvs(8, 4, 0.0))

    @pytest.mark.parametrize("kind", ["2s", "2s/si", "3s[2s]", "3s+[2s]"])
    @pytest.mark.parametrize("name", ["h4", "h6"])
    def test_tensor_rows_match_full_gradient(self, name, kind):
        # Subspace solves price one tensor from its derivative states alone;
        # with gradient_from_weights they give that tensor's rows of the full
        # gradient, bit for bit.  The hybrids' frozen pairs are set off one.
        ints = parse_fcidump(FIXTURES / f"{name}.fcidump")
        space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
        basis = build_csf_basis(space, ints.ms2 / 2.0)
        ham = HamiltonianOperator(ints, space)
        ev = EnergyEvaluator(AnsatzSpec(kind), space.m, basis, ham)
        engine = ev.engine
        rng = np.random.default_rng(1)
        x = cold_start(engine, rng)
        frozen = slice(None, engine.active_indices[0])
        x[frozen] = rng.uniform(0.5, 1.5, len(x[frozen]))
        full = ev.gradient(x)
        for t, cofactor in engine.environments(x):
            dS = ev.derivative_states(t, cofactor)
            rows = ev.gradient_from_weights(ev.weights(x), dS)
            assert np.array_equal(rows, full[active_rows(engine, engine.keys[t])])

    @pytest.mark.parametrize("kind", ["2s", "3s"])
    @pytest.mark.parametrize("m, n", [(8, 4), (12, 6)])
    def test_entry_table_matches_bit_loop(self, kind, m, n):
        space = enumerate_onvs(m, n, 0.0)
        engine = AmplitudeEngine(AnsatzSpec(kind), m, space)
        ref = np.empty_like(engine.entry_table)
        for t, key in enumerate(engine.keys):
            for col, bits in enumerate(space.onvs):
                local = 0
                for site in key:
                    local = 2 * local + _occ(bits, site)
                ref[t, col] = engine.offsets[t] + local
        assert np.array_equal(engine.entry_table, ref)


class TestSerialization:
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_correlators_json_bytes(self, kind):
        # The document of the flat vector is byte for byte the tensor-dict
        # format: each tensor's C-order entries under its comma-joined sites,
        # pairs then triples in layout order, and the sorted frozen keys.
        m = 8
        sel = (0, 1, 2, 3) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, m, enumerate_onvs(m, 4, 0.0))
        x = randomize(spec, m, np.random.default_rng(31))
        pairs, triples = tensors(spec, m, x)

        def name(key):
            return ",".join(map(str, key))

        doc = {
            "format": "cgtns-correlator-set",
            "version": 1,
            "m": m,
            "pairs": {name(k): v.ravel().tolist() for k, v in pairs.items()},
            "triples": {name(k): v.ravel().tolist() for k, v in triples.items()},
            "frozen": sorted(name(k) for k in pairs) if spec.pairs_frozen else [],
        }
        assert engine.dumps(x) == json.dumps(doc)


class TestSpecValidation:
    def test_sel_requires_sites(self):
        with pytest.raises(DimensionError):
            AnsatzSpec("3s[2s]sel")

    @pytest.mark.parametrize("sites", [(-1, 2), (0, -3), (1.0, 2), ("1", 2), (True, 2)])
    def test_sites_must_be_non_negative_integers(self, sites):
        # A negative site would index the spin orbitals from the end.
        with pytest.raises(DimensionError, match="non-negative integer"):
            AnsatzSpec("3s[2s]sel", selected_sites=sites)

    def test_numpy_integer_sites_become_ints(self):
        spec = AnsatzSpec("3s[2s]sel", selected_sites=tuple(np.arange(3, -1, -1)))
        assert spec.selected_sites == (0, 1, 2, 3)
        assert all(type(site) is int for site in spec.selected_sites)

    def test_non_sel_rejects_sites(self):
        with pytest.raises(DimensionError):
            AnsatzSpec("2s", selected_sites=(0, 1))

    def test_unknown_kind(self):
        with pytest.raises(DimensionError):
            AnsatzSpec("4s")

    def test_full_window_sel_matches_full_triple_set(self):
        m = 6
        sel = AnsatzSpec("3s[2s]sel", selected_sites=tuple(range(m)))
        full = AnsatzSpec("3s[2s]")
        assert sel.triple_keys(m) == full.triple_keys(m)
