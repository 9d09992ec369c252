"""Determinant enumeration, spin-squared application, and CSF construction."""

import math

import numpy as np
import pytest

from cgtns import fock
from cgtns.errors import CapacityError, DimensionError, EmptyBasisError, EmptySpaceError
from cgtns.fock import (
    OccupationVector,
    build_csf_basis,
    count_onvs_asymptotic,
    enumerate_onvs,
    genealogical_paths,
    s2_apply,
)

from oracles import all_onvs_brute, s2_matrix_brute


def bits_of(pattern):
    return OccupationVector.from_string(pattern).bits


class TestOccupationVector:
    def test_counts_and_projection(self):
        onv = OccupationVector.from_string("1001")
        assert onv.n_electrons == 2
        assert onv.n_alpha == 1
        assert onv.n_beta == 1
        assert onv.ms == 0.0
        assert str(onv) == "1001"

    def test_width_guard(self):
        with pytest.raises(DimensionError):
            OccupationVector(bits=1 << 4, m=4)
        with pytest.raises(CapacityError):
            OccupationVector(bits=0, m=66)


class TestEnumerate:
    def test_m4_n2_ms0(self):
        space = enumerate_onvs(4, 2, 0.0)
        assert space.size == 4
        assert set(space.onvs) == {
            bits_of("1100"),
            bits_of("1001"),
            bits_of("0110"),
            bits_of("0011"),
        }
        assert list(space.onvs) == sorted(space.onvs)

    def test_m4_n2_ms1(self):
        space = enumerate_onvs(4, 2, 1.0)
        assert space.size == 1
        assert space.onvs[0] == bits_of("1010")

    def test_m8_n4_ms0_against_brute_force(self):
        space = enumerate_onvs(8, 4, 0.0)
        assert space.size == 36
        assert list(space.onvs) == all_onvs_brute(8, 4, 0.0)

    @pytest.mark.parametrize("m,n,ms", [(8, 4, 0.0), (8, 3, 0.5), (12, 5, 1.5)])
    def test_binomial_product_count(self, m, n, ms):
        space = enumerate_onvs(m, n, ms)
        n_alpha = int(n / 2 + ms)
        n_beta = n - n_alpha
        assert space.size == math.comb(m // 2, n_alpha) * math.comb(m // 2, n_beta)

    def test_pure_function(self):
        a = enumerate_onvs(8, 4, 1.0)
        b = enumerate_onvs(8, 4, 1.0)
        assert a.onvs == b.onvs

    def test_infeasible_inputs(self):
        with pytest.raises(EmptySpaceError):
            enumerate_onvs(4, 2, 0.5)  # parity mismatch
        with pytest.raises(EmptySpaceError):
            enumerate_onvs(4, 3, 1.5)  # needs 3 alpha in 2 spatial orbitals
        with pytest.raises(EmptySpaceError):
            enumerate_onvs(4, 6, 0.0)
        with pytest.raises(CapacityError):
            enumerate_onvs(80, 4, 0.0)

    def test_irrep_filter(self):
        # Two spatial orbitals with different labels: only the double
        # occupations are totally symmetric.
        space = enumerate_onvs(4, 2, 0.0, orb_irreps=(1, 2), target_irrep=1)
        assert set(space.onvs) == {bits_of("1100"), bits_of("0011")}
        space_b1 = enumerate_onvs(4, 2, 0.0, orb_irreps=(1, 2), target_irrep=2)
        assert set(space_b1.onvs) == {bits_of("1001"), bits_of("0110")}

    def test_irrep_filter_against_brute_force(self):
        # Independent oracle: XOR of zero-based labels over singly occupied
        # spatial orbitals (double occupations cancel in abelian groups).
        labels = (1, 3, 2, 4)
        for target in (1, 2, 3, 4):
            expected = []
            for bits in all_onvs_brute(8, 3, 0.5):
                prod = 0
                for p in range(4):
                    n_a = (bits >> (2 * p)) & 1
                    n_b = (bits >> (2 * p + 1)) & 1
                    if n_a ^ n_b:
                        prod ^= labels[p] - 1
                if prod + 1 == target:
                    expected.append(bits)
            space = enumerate_onvs(8, 3, 0.5, orb_irreps=labels, target_irrep=target)
            assert list(space.onvs) == expected

    def test_empty_irrep_selection_raises(self):
        # With every orbital totally symmetric no determinant carries B1.
        with pytest.raises(EmptySpaceError, match="irrep"):
            enumerate_onvs(4, 2, 0.0, orb_irreps=(1, 1), target_irrep=2)


class TestAsymptoticCount:
    def test_single_orbital(self):
        assert count_onvs_asymptotic(1) == pytest.approx(8.0 / math.pi)

    def test_m6_vs_exact(self):
        estimate = count_onvs_asymptotic(6)
        exact = enumerate_onvs(12, 6, 0.0).size
        assert exact == math.comb(6, 3) ** 2 == 400
        assert estimate == pytest.approx(2.0 / (6 * math.pi) * 4**6)
        assert abs(estimate - exact) / exact < 0.1

    def test_m10_vs_binomial(self):
        estimate = count_onvs_asymptotic(10)
        exact = math.comb(10, 5) ** 2
        assert exact == 63504
        assert estimate == pytest.approx(2.0 / (10 * math.pi) * 4**10)
        assert abs(estimate - exact) / exact < 0.06


class TestS2Apply:
    def test_closed_shell_is_singlet(self):
        space = enumerate_onvs(4, 2, 0.0)
        vec = np.zeros(space.size)
        vec[space.index_of(bits_of("1100"))] = 1.0
        assert np.allclose(s2_apply(space, vec), 0.0, atol=1e-14)

    def test_high_spin_determinant(self):
        space = enumerate_onvs(8, 3, 1.5)
        vec = np.zeros(space.size)
        vec[0] = 1.0
        s = 1.5
        assert np.allclose(s2_apply(space, vec), s * (s + 1) * vec, atol=1e-12)

    def test_open_shell_combinations_match_brute_force(self):
        # Oracle: dense S^2 over the four-determinant space.  The symmetric
        # open-shell combination is the triplet, the antisymmetric one the
        # singlet.
        space = enumerate_onvs(4, 2, 0.0)
        s2 = s2_matrix_brute(list(space.onvs), 4, 0.0)
        plus = np.zeros(space.size)
        plus[space.index_of(bits_of("1001"))] = 1 / math.sqrt(2)
        plus[space.index_of(bits_of("0110"))] = 1 / math.sqrt(2)
        minus = np.zeros(space.size)
        minus[space.index_of(bits_of("1001"))] = 1 / math.sqrt(2)
        minus[space.index_of(bits_of("0110"))] = -1 / math.sqrt(2)
        assert np.allclose(s2 @ plus, 2.0 * plus, atol=1e-12)
        assert np.allclose(s2 @ minus, 0.0, atol=1e-12)
        assert np.allclose(s2_apply(space, plus), s2 @ plus, atol=1e-12)
        assert np.allclose(s2_apply(space, minus), s2 @ minus, atol=1e-12)

    @pytest.mark.parametrize("m,n,ms", [(6, 3, 0.5), (8, 4, 0.0), (8, 4, 1.0)])
    def test_matches_brute_force_matrix(self, m, n, ms):
        space = enumerate_onvs(m, n, ms)
        s2 = s2_matrix_brute(list(space.onvs), m, ms)
        rng = np.random.default_rng(7)
        for _ in range(5):
            vec = rng.standard_normal(space.size)
            assert np.allclose(s2_apply(space, vec), s2 @ vec, atol=1e-10)

    def test_dimension_mismatch(self):
        space = enumerate_onvs(4, 2, 0.0)
        with pytest.raises(DimensionError):
            s2_apply(space, np.zeros(3))

    def test_symmetry_filtered_space_is_closed_under_s2(self):
        # The ladder operators flip alpha/beta within one spatial orbital,
        # so a symmetry sector is invariant; multiplicities still match.
        labels = (1, 2, 1)
        space = enumerate_onvs(6, 3, 0.5, orb_irreps=labels, target_irrep=2)
        rng = np.random.default_rng(13)
        vec = rng.standard_normal(space.size)
        out = s2_apply(space, vec)  # must not escape the sector
        assert out.shape == vec.shape
        basis = build_csf_basis(space, 0.5)
        for p in range(basis.n_csfs):
            row = basis.row(p)
            resid = s2_apply(space, row) - 0.5 * 1.5 * row
            assert np.max(np.abs(resid)) < 1e-10


def s2_multiplicity(space, s):
    """Multiplicity of eigenvalue s(s+1) in the brute-force S^2 matrix."""
    mat = s2_matrix_brute(list(space.onvs), space.m, space.ms)
    evals = np.linalg.eigvalsh(mat)
    return int(np.sum(np.abs(evals - s * (s + 1)) < 1e-8))


class TestCsfBasis:
    def test_m4_n2_singlets(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        assert basis.n_csfs == 3 == s2_multiplicity(space, 0.0)

    def test_m4_n2_triplet(self):
        space = enumerate_onvs(4, 2, 0.0)
        basis = build_csf_basis(space, 1.0)
        assert basis.n_csfs == 1 == s2_multiplicity(space, 1.0)

    def test_single_double_occupation(self):
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        assert basis.n_csfs == 1
        assert np.allclose(basis.dense(), [[1.0]])

    @pytest.mark.parametrize(
        "m,n,ms,s",
        [
            (6, 3, 0.5, 0.5),
            (6, 3, 0.5, 1.5),
            (8, 4, 0.0, 0.0),
            (8, 4, 0.0, 1.0),
            (8, 4, 0.0, 2.0),
            (8, 3, 0.5, 1.5),
            (8, 4, 1.0, 1.0),
            (8, 4, 1.0, 2.0),
        ],
    )
    def test_rows_are_s2_eigenvectors_and_count_matches(self, m, n, ms, s):
        space = enumerate_onvs(m, n, ms)
        basis = build_csf_basis(space, s)
        assert basis.n_csfs == s2_multiplicity(space, s)
        for p in range(basis.n_csfs):
            row = basis.row(p)
            resid = s2_apply(space, row) - s * (s + 1) * row
            assert np.max(np.abs(resid)) < 1e-10

    def test_rows_orthonormal_via_generic_overlap(self):
        space = enumerate_onvs(8, 4, 0.0)
        basis = build_csf_basis(space, 0.0)
        overlap = basis.overlap()
        assert np.max(np.abs(overlap - np.eye(basis.n_csfs))) < 1e-12

    def test_triplet_over_six_orbitals_builds(self):
        # MS2 = 2: coupling paths pass projections above the intermediate
        # spin once an earlier coefficient has vanished.
        space = enumerate_onvs(12, 6, 1.0)
        basis = build_csf_basis(space, 1.0)
        # Weyl dimension of 6 electrons in 6 orbitals at S = 1.
        assert basis.n_csfs == 3 * math.comb(7, 2) * math.comb(7, 5) // 7 == 189
        assert np.max(np.abs(basis.overlap() - np.eye(basis.n_csfs))) < 1e-12
        for p in range(basis.n_csfs):
            row = basis.row(p)
            assert np.max(np.abs(s2_apply(space, row) - 2.0 * row)) < 1e-10

    @pytest.mark.parametrize("name,m,n", [("h2", 4, 2), ("h4", 8, 4), ("h6", 12, 6)])
    def test_fixture_bases_unchanged_by_projection_guard(self, name, m, n, monkeypatch):
        # The guard returns zero only where the bare coefficient formula was
        # undefined, so every basis it could build is bit-identical.
        def unguarded(s2_prev, m2_new, mu2, s2_new):
            scale = 2.0 * (s2_prev + 1)
            if s2_new == s2_prev + 1:
                if mu2 == 1:
                    return math.sqrt((s2_prev + m2_new + 1) / scale)
                return math.sqrt((s2_prev - m2_new + 1) / scale)
            if mu2 == 1:
                return -math.sqrt((s2_prev - m2_new + 1) / scale)
            return math.sqrt((s2_prev + m2_new + 1) / scale)

        space = enumerate_onvs(m, n, 0.0)
        guarded = build_csf_basis(space, 0.0).K
        monkeypatch.setattr(fock, "_cg_add_half", unguarded)
        bare = build_csf_basis(space, 0.0).K
        assert guarded.shape == bare.shape
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(guarded, attr), getattr(bare, attr))

    def test_no_csf_for_unreachable_spin(self):
        space = enumerate_onvs(4, 2, 0.0)
        with pytest.raises(EmptyBasisError):
            build_csf_basis(space, 3.0)
        with pytest.raises(EmptyBasisError):
            build_csf_basis(space, 0.5)  # parity
        with pytest.raises(EmptyBasisError):
            build_csf_basis(enumerate_onvs(4, 2, 1.0), 0.0)  # S < |Ms|


class TestGenealogicalPaths:
    def test_counts(self):
        assert len(genealogical_paths(0, 0)) == 1
        assert len(genealogical_paths(2, 0)) == 1
        assert len(genealogical_paths(2, 2)) == 1
        assert len(genealogical_paths(4, 0)) == 2
        assert len(genealogical_paths(4, 2)) == 3
        assert genealogical_paths(3, 0) == []

    def test_paths_stay_non_negative(self):
        for path in genealogical_paths(6, 2):
            assert all(v >= 0 for v in path)
            assert path[-1] == 2

    def test_counts_match_branching_number_closed_form(self):
        # Ballot-style closed form: C(k, k/2 - S) - C(k, k/2 - S - 1)
        # genealogical paths couple k spins-1/2 to total spin S.
        for k in range(0, 11):
            for s2 in range(0, k + 1):
                if (k - s2) % 2:
                    continue
                half = (k - s2) // 2
                expected = math.comb(k, half) - (
                    math.comb(k, half - 1) if half >= 1 else 0
                )
                assert len(genealogical_paths(k, s2)) == expected
