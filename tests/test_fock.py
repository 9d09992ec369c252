"""Determinant enumeration, the spin-squared reference, and CSF construction."""

import math

import numpy as np
import pytest

from cgtns import fock
from cgtns.errors import CapacityError, EmptyBasisError, EmptySpaceError
from cgtns.fock import (
    build_csf_basis,
    count_onvs_asymptotic,
    enumerate_onvs,
    genealogical_paths,
)
from cgtns.hamiltonian import (
    HamiltonianOperator,
    IntegralSet,
    _csf_diagonals,
    parse_fcidump,
)

from oracles import (
    all_onvs_brute,
    bits_of,
    csf_basis_reference,
    csf_diagonals_dense,
    csf_diagonals_reference,
    csr_reference,
    gram_reference,
    s2_matrix_brute,
    scipy_csr,
)


def s2_of(space):
    return s2_matrix_brute(list(space.onvs), space.m, space.ms)


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
    """S^2 applied through the brute-force reference matrix."""

    def test_closed_shell_is_singlet(self):
        space = enumerate_onvs(4, 2, 0.0)
        vec = np.zeros(space.size)
        vec[space.onvs.index(bits_of("1100"))] = 1.0
        assert np.allclose(s2_of(space) @ vec, 0.0, atol=1e-14)

    def test_high_spin_determinant(self):
        space = enumerate_onvs(8, 3, 1.5)
        vec = np.zeros(space.size)
        vec[0] = 1.0
        s = 1.5
        assert np.allclose(s2_of(space) @ vec, s * (s + 1) * vec, atol=1e-12)

    def test_open_shell_combinations_match_brute_force(self):
        # Oracle: dense S^2 over the four-determinant space.  The symmetric
        # open-shell combination is the triplet, the antisymmetric one the
        # singlet.
        space = enumerate_onvs(4, 2, 0.0)
        s2 = s2_of(space)
        plus = np.zeros(space.size)
        plus[space.onvs.index(bits_of("1001"))] = 1 / math.sqrt(2)
        plus[space.onvs.index(bits_of("0110"))] = 1 / math.sqrt(2)
        minus = np.zeros(space.size)
        minus[space.onvs.index(bits_of("1001"))] = 1 / math.sqrt(2)
        minus[space.onvs.index(bits_of("0110"))] = -1 / math.sqrt(2)
        assert np.allclose(s2 @ plus, 2.0 * plus, atol=1e-12)
        assert np.allclose(s2 @ minus, 0.0, atol=1e-12)

    @pytest.mark.parametrize("m,n,ms", [(6, 3, 0.5), (8, 4, 0.0), (8, 4, 1.0)])
    def test_matches_brute_force_matrix(self, m, n, ms):
        # The CSF bases of every spin the space admits together diagonalize
        # the brute-force matrix: S^2 = sum_s s(s+1) K_s^T K_s.
        space = enumerate_onvs(m, n, ms)
        spectral = np.zeros((space.size, space.size))
        for s in np.arange(abs(ms), n / 2 + 0.25, 1.0):
            K = build_csf_basis(space, float(s)).K.toarray()
            spectral += s * (s + 1) * (K.T @ K)
        assert np.allclose(spectral, s2_of(space), atol=1e-10)

    def test_symmetry_filtered_space_is_closed_under_s2(self):
        # The ladder operators flip alpha/beta within one spatial orbital,
        # so a symmetry sector is invariant (the reference matrix raises if
        # S- S+ leaves the list); multiplicities still match.
        labels = (1, 2, 1)
        space = enumerate_onvs(6, 3, 0.5, orb_irreps=labels, target_irrep=2)
        s2 = s2_of(space)
        assert s2.shape == (space.size, space.size)
        basis = build_csf_basis(space, 0.5)
        for row in basis.K.toarray():
            resid = s2 @ row - 0.5 * 1.5 * row
            assert np.max(np.abs(resid)) < 1e-10


def assert_orthonormal(basis):
    """max |K K^T - I| <= 1e-15: the genealogical CSFs are orthonormal, so
    the energy, the tensor pencils and the oracle use the identity metric."""
    error = basis.overlap() - np.eye(basis.n_csfs)
    assert np.max(np.abs(error), initial=0.0) <= 1e-15


def s2_multiplicity(space, s):
    """Multiplicity of eigenvalue s(s+1) in the brute-force S^2 matrix."""
    evals = np.linalg.eigvalsh(s2_of(space))
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
        assert np.allclose(basis.K.toarray(), [[1.0]])

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
        s2 = s2_of(space)
        for row in basis.K.toarray():
            resid = s2 @ row - s * (s + 1) * row
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
        s2 = s2_of(space)
        for row in basis.K.toarray():
            assert np.max(np.abs(s2 @ row - 2.0 * row)) < 1e-10

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
        assert guarded.nnz == bare.nnz
        assert guarded.toarray().tobytes() == bare.toarray().tobytes()

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    def test_every_small_basis_matches_the_loop_build(self, m):
        # Every N, Ms and admissible S over m spin orbitals (209 bases for
        # m <= 12 in all): K and its transpose equal the per-configuration
        # build bit for bit, K stores exactly the nonzeros, and its rows are
        # orthonormal to 1e-15, which every consumer of K relies on.
        built = 0
        for n in range(m + 1):
            for ms2 in range(-n, n + 1, 2):
                try:
                    space = enumerate_onvs(m, n, ms2 / 2)
                except EmptySpaceError:
                    continue
                for s2 in range(abs(ms2), n + 1, 2):
                    try:
                        basis = build_csf_basis(space, s2 / 2)
                    except EmptyBasisError:
                        assert csf_basis_reference(space, s2).size == 0
                        continue
                    K, ref = basis.K, csf_basis_reference(space, s2)
                    assert K.toarray().tobytes() == ref.tobytes()
                    assert K.toarray().T.tobytes() == ref.T.tobytes()
                    assert K.nnz == np.count_nonzero(ref)
                    assert_orthonormal(basis)
                    built += 1
        assert built == {2: 4, 4: 10, 6: 20, 8: 35, 10: 56, 12: 84}[m]

    def test_symmetry_filtered_basis_matches_the_loop_build(self):
        space = enumerate_onvs(6, 3, 0.5, orb_irreps=(1, 2, 1), target_irrep=2)
        basis = build_csf_basis(space, 0.5)
        ref = csf_basis_reference(space, 1)
        assert basis.K.toarray().tobytes() == ref.tobytes()
        assert basis.K.nnz == np.count_nonzero(ref)
        assert_orthonormal(basis)

    @pytest.mark.parametrize(
        "m,n,ms,s,table",
        [
            # H6 singlet: 0, 2, 4 and 6 open shells.
            (12, 6, 0.0, 0.0, [((1, 1), 20), ((1, 2), 90), ((2, 6), 30), ((5, 20), 1)]),
            # The H8 chain doublet: 1, 3 and 5 open shells.
            (16, 5, 0.5, 0.5, [((1, 1), 168), ((2, 3), 280), ((5, 10), 56)]),
        ],
    )
    def test_one_block_per_open_shell_count(self, m, n, ms, s, table):
        # (paths x spin patterns, configurations) of every block of K; the
        # rows of the H8 chain's basis (``h8_chain_fcidump``) are orthonormal
        # too.
        basis = build_csf_basis(enumerate_onvs(m, n, ms), s)
        blocks = basis.K.blocks
        assert [(coeffs.shape, len(rows)) for coeffs, rows, _ in blocks] == table
        assert_orthonormal(basis)

    def test_paper_scale_doublet(self):
        # 10 orbitals, 7 electrons: 13 860 doublet CSFs, the order of the
        # paper's reference spaces.  Orthonormal rows, checked through
        # products only: no dense overlap is formed.
        space = enumerate_onvs(20, 7, 0.5)
        K = build_csf_basis(space, 0.5).K
        assert K.shape == (13860, 25200)
        assert K.nnz == 92820
        table = [(coeffs.shape, len(rows)) for coeffs, rows, _ in K.blocks]
        assert table == [
            ((1, 1), 840), ((2, 3), 2520), ((5, 10), 1260), ((14, 35), 120)
        ]
        u = np.random.default_rng(7).standard_normal(K.shape[0])
        assert np.max(np.abs(K @ (u @ K) - u)) <= 1e-12

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


#: (m, n, ms, s) of the H2, H4 and H6 fixture spaces and of the bases above.
CSR_BASES = [
    (4, 2, 0.0, 0.0),
    (8, 4, 0.0, 0.0),
    (12, 6, 0.0, 0.0),
    (2, 2, 0.0, 0.0),
    (4, 2, 0.0, 1.0),
    (6, 3, 0.5, 0.5),
    (6, 3, 0.5, 1.5),
    (8, 4, 0.0, 1.0),
    (8, 4, 0.0, 2.0),
    (8, 3, 0.5, 1.5),
    (8, 4, 1.0, 1.0),
    (8, 4, 1.0, 2.0),
    (12, 6, 1.0, 1.0),
]


def assert_products_match_references(basis, rng):
    """Every product K @ v, with a C-ordered and a transposed operand, and
    u @ K equal the per-row loop and scipy's kernel bit for bit, and so do
    the overlap K K^T and ``K (K H)^T`` as ``csf_hamiltonian`` forms it, of
    a random symmetric H; the CSF diagonal of a Hamiltonian from random
    integrals equals both dense references byte for byte."""
    K = basis.K
    ref = scipy_csr(K)
    n = K.shape[1]
    # The last operand is transposed, as in csf_hamiltonian.
    for v in (rng.standard_normal(n), rng.standard_normal((n, 3)),
              rng.standard_normal((5, n)).T):
        got = (K @ v).tobytes()
        assert got == csr_reference(K, v).tobytes()
        assert got == (ref @ v).tobytes()
    u = rng.standard_normal(K.shape[0])
    got = (u @ K).tobytes()
    assert got == csr_reference(ref.T, u).tobytes()
    assert got == (ref.T @ u).tobytes()
    overlap = basis.overlap()
    assert overlap.tobytes() == gram_reference(K).tobytes()
    assert overlap.tobytes() == (ref @ ref.T).toarray().tobytes()
    H = rng.standard_normal((K.shape[1], K.shape[1]))
    H = H + H.T
    assert (K @ (K @ H).T).tobytes() == (ref @ (ref @ H).T).tobytes()
    m_orb = basis.space.m // 2
    h = rng.standard_normal((m_orb, m_orb))
    ints = IntegralSet.from_dense(h + h.T, rng.standard_normal((m_orb,) * 4))
    ham = HamiltonianOperator(ints, basis.space)
    diag = _csf_diagonals(K, ham).tobytes()
    assert diag == csf_diagonals_dense(K, ham.matrix()).tobytes()
    assert diag == csf_diagonals_reference(K, ham.matrix()).tobytes()


class TestCsrMatrix:
    """The products of K against per-row loops over compressed sparse rows
    and scipy's CSR kernels."""

    @pytest.mark.parametrize("m,n,ms,s", CSR_BASES)
    def test_products_match_loop_and_scipy_bitwise(self, m, n, ms, s):
        basis = build_csf_basis(enumerate_onvs(m, n, ms), s)
        assert_products_match_references(basis, np.random.default_rng(m + n))

    def test_symmetry_filtered_basis(self):
        space = enumerate_onvs(6, 3, 0.5, orb_irreps=(1, 2, 1), target_irrep=2)
        basis = build_csf_basis(space, 0.5)
        assert_products_match_references(basis, np.random.default_rng(3))

    def test_mismatched_operand_raises(self):
        K = build_csf_basis(enumerate_onvs(4, 2, 0.0), 0.0).K
        for bad in (np.ones(K.shape[1] + 1), np.ones((K.shape[1], 2, 2)), 1.0):
            with pytest.raises(ValueError):
                K @ bad
        for bad in (np.ones(K.shape[0] + 1), np.ones((2, K.shape[0])), 1.0):
            with pytest.raises(ValueError):
                bad @ K

    def test_transpose_products_on_the_h8_chain(self, h8_chain_fcidump):
        # u @ K sums each determinant's terms in ascending CSF order, as
        # scipy's kernel does for K^T u (1568 determinants, 1008 CSFs).
        ints = parse_fcidump(h8_chain_fcidump)
        space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
        K = build_csf_basis(space, 0.5).K
        ref = scipy_csr(K).T
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = rng.standard_normal(K.shape[0])
            assert (u @ K).tobytes() == (ref @ u).tobytes()
