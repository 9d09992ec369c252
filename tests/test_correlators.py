"""Ansatz definitions, parameter counts, amplitudes, and weights."""

import numpy as np
import pytest

from cgtns.correlators import (
    ANSATZ_KINDS,
    AmplitudeEngine,
    AnsatzSpec,
    CorrelatorSet,
    cgtns_norm,
    param_count,
    select_sites,
)
from cgtns.energy import EnergyEvaluator
from cgtns.errors import DimensionError, FrozenTensorError
from cgtns.fock import OccupationVector, build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import HamiltonianOperator, IntegralSet

from oracles import amplitude, amplitude_partial_derivative


def csf_weights(cset, spec, basis):
    """EnergyEvaluator.weights; the (zero) Hamiltonian plays no part in them."""
    ham = HamiltonianOperator(IntegralSet.zeros(basis.space.m // 2), basis.space)
    ev = EnergyEvaluator(spec, cset.m, basis, ham)
    return ev.weights(ev.flatten(cset))


def loop_amplitude_oracle(params, spec, bits):
    """Independent nested-loop amplitude: reads tensors straight off the dicts."""

    def occ(site):
        return (bits >> site) & 1

    p_prod = 1.0
    for (i, j) in sorted(params.pairs):
        p_prod = p_prod * params.pairs[(i, j)][occ(i)][occ(j)]
    t_prod = 1.0
    for (i, j, k) in sorted(params.triples):
        t_prod = t_prod * params.triples[(i, j, k)][occ(i)][occ(j)][occ(k)]
    if not params.pairs:
        return t_prod
    if not params.triples:
        return p_prod
    if "+[2s]" in spec.kind:
        return p_prod + t_prod
    return p_prod * t_prod


def randomize(cset, rng, scale=0.6):
    out = cset.copy()
    for k in out.pairs:
        if k not in out.frozen:
            out.pairs[k] += rng.uniform(-scale, scale, size=(2, 2))
    for k in out.triples:
        if k not in out.frozen:
            out.triples[k] += rng.uniform(-scale, scale, size=(2, 2, 2))
    return out


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

    def test_q4_variant(self):
        assert param_count("2s", 12, q=4) == 12 * 13 // 2 * 16

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 24])
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_stored_entries_match_count(self, kind, m):
        spec = make_spec(kind, m)
        cset = CorrelatorSet.identity(spec, m)
        cset.validate(spec)
        assert cset.n_active_parameters == param_count(spec, m)


class TestAmplitude:
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_identity_correlators_give_constant_amplitude(self, kind):
        # All-ones tensors make every factor product equal one, so product
        # forms give amplitude 1 and the additive hybrids give 1 + 1 = 2.
        m = 6
        spec = make_spec(kind, m)
        cset = CorrelatorSet.identity(spec, m)
        space = enumerate_onvs(m, 3, 0.5)
        expected = 2.0 if spec.combine_mode == "sum" and spec.is_hybrid else 1.0
        for bits in space.onvs:
            assert amplitude(cset, spec, bits) == expected

    def test_single_deviating_pair_entry(self):
        spec = AnsatzSpec("2s/si")
        cset = CorrelatorSet.identity(spec, 4)
        cset.pairs[(0, 1)][1, 0] = 3.0
        onv = OccupationVector.from_string("1000")
        assert amplitude(cset, spec, onv) == 3.0

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_matches_independent_loop_oracle(self, kind):
        m = 6
        rng = np.random.default_rng(99)
        spec = make_spec(kind, m)
        cset = randomize(CorrelatorSet.identity(spec, m), rng)
        space = enumerate_onvs(m, 3, 0.5)
        for bits in space.onvs:
            assert amplitude(cset, spec, bits) == pytest.approx(
                loop_amplitude_oracle(cset, spec, bits), rel=1e-13
            )

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_engine_matches_reference(self, kind):
        m = 6
        rng = np.random.default_rng(3)
        spec = make_spec(kind, m)
        cset = randomize(CorrelatorSet.identity(spec, m), rng)
        space = enumerate_onvs(m, 3, 0.5)
        engine = AmplitudeEngine(spec, m, space)
        amps = engine.amplitudes(engine.flatten(cset))
        for n, bits in enumerate(space.onvs):
            assert amps[n] == pytest.approx(amplitude(cset, spec, bits), rel=1e-13)

    def test_multilinearity_in_single_entry(self):
        m = 4
        spec = AnsatzSpec("2s")
        rng = np.random.default_rng(5)
        cset = randomize(CorrelatorSet.identity(spec, m), rng)
        onv = OccupationVector.from_string("1100")
        key, element = (0, 1), (1, 1)

        def amp_with(value):
            trial = cset.copy()
            trial.pairs[key][element] = value
            return amplitude(trial, spec, onv)

        a0, a1, a2 = amp_with(0.0), amp_with(1.0), amp_with(2.0)
        assert a2 - a1 == pytest.approx(a1 - a0, rel=1e-12, abs=1e-12)

    def test_scale_covariance_product_form(self):
        m = 6
        spec = AnsatzSpec("2s")
        rng = np.random.default_rng(8)
        cset = randomize(CorrelatorSet.identity(spec, m), rng)
        space = enumerate_onvs(m, 3, 0.5)
        base = np.array([amplitude(cset, spec, b) for b in space.onvs])
        scaled = cset.copy()
        scaled.pairs[(1, 3)] *= 2.5
        new = np.array([amplitude(scaled, spec, b) for b in space.onvs])
        assert np.allclose(new, 2.5 * base, rtol=1e-12)

    def test_si_reduction_equivalence(self):
        # A full pair set whose self-interaction tensors are all ones gives
        # the amplitudes of the corresponding si-free set.
        m = 6
        rng = np.random.default_rng(21)
        full_spec, si_spec = AnsatzSpec("2s"), AnsatzSpec("2s/si")
        si_set = randomize(CorrelatorSet.identity(si_spec, m), rng)
        full_set = CorrelatorSet.identity(full_spec, m)
        for k, v in si_set.pairs.items():
            full_set.pairs[k][:] = v
        space = enumerate_onvs(m, 3, 0.5)
        for bits in space.onvs:
            assert amplitude(full_set, full_spec, bits) == pytest.approx(
                amplitude(si_set, si_spec, bits), rel=1e-13
            )

    def test_hybrid_identity_triples_reduce_to_pairs(self):
        m = 6
        rng = np.random.default_rng(2)
        spec2 = AnsatzSpec("2s")
        pair_set = randomize(CorrelatorSet.identity(spec2, m), rng)
        space = enumerate_onvs(m, 3, 0.5)
        spec_h = AnsatzSpec("3s[2s]")
        hybrid = CorrelatorSet.hybrid_from_pairs(spec_h, pair_set)
        for bits in space.onvs:
            assert amplitude(hybrid, spec_h, bits) == amplitude(
                pair_set, spec2, bits
            )


class TestCsfWeights:
    def test_identity_gives_row_sums(self):
        space = enumerate_onvs(6, 3, 0.5)
        basis = build_csf_basis(space, 0.5)
        spec = AnsatzSpec("2s")
        cset = CorrelatorSet.identity(spec, 6)
        S = csf_weights(cset, spec, basis)
        assert np.allclose(S, np.asarray(basis.K.sum(axis=1)).ravel(), atol=1e-14)

    def test_single_determinant_csf(self):
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        spec = AnsatzSpec("2s")
        cset = randomize(CorrelatorSet.identity(spec, 2), np.random.default_rng(4))
        S = csf_weights(cset, spec, basis)
        assert S[0] == pytest.approx(
            amplitude(cset, spec, space.onvs[0]), rel=1e-13
        )

    def test_matches_dense_matvec(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        spec = AnsatzSpec("2s")
        cset = randomize(CorrelatorSet.identity(spec, 4), np.random.default_rng(6))
        amps = np.array([amplitude(cset, spec, b) for b in space.onvs])
        S = csf_weights(cset, spec, basis)
        assert np.allclose(S, basis.dense() @ amps, atol=1e-13)


class TestNorm:
    def test_unit_vector(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        e1 = np.zeros(basis.n_csfs)
        e1[0] = 1.0
        assert cgtns_norm(e1, basis) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        assert cgtns_norm(np.zeros(basis.n_csfs), basis) == 0.0

    def test_dense_expansion_oracle(self):
        space = enumerate_onvs(6, 3, 0.5)
        basis = build_csf_basis(space, 0.5)
        spec = AnsatzSpec("2s")
        cset = randomize(CorrelatorSet.identity(spec, 6), np.random.default_rng(9))
        S = csf_weights(cset, spec, basis)
        dense = basis.dense().T @ S  # determinant-space expansion
        assert cgtns_norm(S, basis) == pytest.approx(
            float(dense @ dense), rel=1e-12
        )


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
        cset = CorrelatorSet.identity(spec, 4)
        onv = OccupationVector.from_string("1100")
        val = amplitude_partial_derivative(cset, spec, onv, (0, 1), (1, 1))
        assert val == 1.0

    def test_non_matching_pattern_is_zero(self):
        spec = AnsatzSpec("2s")
        cset = CorrelatorSet.identity(spec, 4)
        onv = OccupationVector.from_string("1100")
        assert amplitude_partial_derivative(cset, spec, onv, (0, 1), (0, 0)) == 0.0

    def test_frozen_tensor_rejected(self):
        spec = AnsatzSpec("3s[2s]")
        cset = CorrelatorSet.identity(spec, 4)
        onv = OccupationVector.from_string("1100")
        with pytest.raises(FrozenTensorError):
            amplitude_partial_derivative(cset, spec, onv, (0, 1), (1, 1))

    @pytest.mark.parametrize("kind", ["2s", "3s", "3s[2s]", "3s+[2s]", "2s/si"])
    def test_matches_central_finite_difference(self, kind):
        m = 4
        rng = np.random.default_rng(12)
        spec = make_spec(kind, m)
        cset = randomize(CorrelatorSet.identity(spec, m), rng)
        onv = OccupationVector.from_string("1010")
        keys = [k for k in list(cset.pairs) + list(cset.triples) if k not in cset.frozen]
        h = 1e-6
        for key in keys[:6]:
            shape = (2, 2) if len(key) == 2 else (2, 2, 2)
            for element in np.ndindex(*shape):
                plus, minus = cset.copy(), cset.copy()
                plus.tensor(key)[element] += h
                minus.tensor(key)[element] -= h
                fd = (
                    amplitude(plus, spec, onv) - amplitude(minus, spec, onv)
                ) / (2 * h)
                an = amplitude_partial_derivative(cset, spec, onv, key, element)
                assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ["2s", "3s", "3s[2s]", "3s+[2s]"])
    def test_engine_jacobian_matches_reference(self, kind):
        m = 6
        rng = np.random.default_rng(15)
        spec = make_spec(kind, m)
        cset = randomize(CorrelatorSet.identity(spec, m), rng)
        space = enumerate_onvs(m, 3, 0.5)
        engine = AmplitudeEngine(spec, m, space)
        x = engine.flatten(cset)
        jac = engine.jacobian(x).toarray()
        for row, e in enumerate(engine.active_indices):
            t = int(np.searchsorted(engine.offsets, e, side="right") - 1)
            key = engine.keys[t]
            local = e - engine.offsets[t]
            element = tuple(
                int(b) for b in np.unravel_index(local, (2, 2) if len(key) == 2 else (2, 2, 2))
            )
            for n, bits in enumerate(space.onvs):
                ref = amplitude_partial_derivative(cset, spec, bits, key, element)
                assert jac[row, n] == pytest.approx(ref, rel=1e-11, abs=1e-11)


class TestSerialization:
    def test_round_trip_bitwise(self):
        m = 6
        spec = AnsatzSpec("3s[2s]")
        cset = randomize(
            CorrelatorSet.identity(spec, m), np.random.default_rng(31)
        )
        text = cset.dumps()
        back = CorrelatorSet.loads(text)
        assert back.m == cset.m
        assert back.frozen == cset.frozen
        for k in cset.pairs:
            assert np.array_equal(back.pairs[k], cset.pairs[k])
        for k in cset.triples:
            assert np.array_equal(back.triples[k], cset.triples[k])


class TestSpecValidation:
    def test_sel_requires_sites(self):
        with pytest.raises(DimensionError):
            AnsatzSpec("3s[2s]sel")

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
