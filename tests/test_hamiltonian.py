"""Integral parsing, Slater-Condon elements, and the dense diagonalization oracle."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cgtns import hamiltonian
from cgtns.correlators import select_sites
from cgtns.errors import CapacityError, ConvergenceError, ParseError
from cgtns.fock import CsfBasis, build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import (
    HamiltonianOperator,
    IntegralSet,
    _csf_diagonals,
    _tri,
    csf_hamiltonian,
    exact_diagonalize,
    lowest_eigenpair,
    orbital_occupations,
    parse_fcidump,
    slater_condon,
)

from oracles import (
    csf_diagonals_dense,
    determinant_matrix_reference,
    exact_diagonalize_full,
    exact_diagonalize_reference,
    hamiltonian_matrix_brute,
    lowest_eigenpair_reference,
    orbital_occupations_loop,
    slater_condon_loop,
    slater_condon_matrix,
)

FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"


@pytest.fixture(scope="module")
def provenance():
    return json.loads((FIXTURES / "provenance.json").read_text())


@pytest.fixture(scope="module")
def h2_integrals():
    return parse_fcidump(FIXTURES / "h2.fcidump")


@pytest.fixture(scope="module")
def h8_problem(h8_chain_fcidump):
    """(space, doublet CSF basis, Hamiltonian) of the H8 chain, as the CLI
    builds them from the FCIDUMP."""
    ints = parse_fcidump(h8_chain_fcidump)
    space = enumerate_onvs(16, 5, 0.5)
    return space, build_csf_basis(space, 0.5), HamiltonianOperator(ints, space)


def random_integrals(m_orb, seed):
    """Random symmetric h and 8-fold-symmetric g."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m_orb, m_orb))
    h = 0.5 * (h + h.T)
    g = np.zeros((m_orb,) * 4)
    for p in range(m_orb):
        for q in range(p + 1):
            for r in range(m_orb):
                for s in range(r + 1):
                    pq = p * (p + 1) // 2 + q
                    rs = r * (r + 1) // 2 + s
                    if pq < rs:
                        continue
                    v = rng.standard_normal()
                    for a, b in ((p, q), (q, p)):
                        for c, d in ((r, s), (s, r)):
                            g[a, b, c, d] = v
                            g[c, d, a, b] = v
    return h, g, rng.standard_normal()


def fixture_problem(name):
    ints = parse_fcidump(FIXTURES / f"{name}.fcidump")
    space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
    return ints, space


def assert_bit_identical(a, b):
    """Equal shapes and equal bit patterns (so also the signs of zeros)."""
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(autouse=True)
def classified_as_the_reference(monkeypatch):
    """Every determinant H the tests of this module build is the matrix of
    the float32 classification, ``oracles.determinant_matrix_reference``,
    bit for bit."""
    build = hamiltonian._determinant_matrix

    def checked(ints, space):
        mat = build(ints, space)
        assert_bit_identical(mat, determinant_matrix_reference(ints, space))
        return mat

    monkeypatch.setattr(hamiltonian, "_determinant_matrix", checked)


class TestIntegralSet:
    @pytest.mark.parametrize("m_orb", [1, 2, 4])
    def test_g_dense_matches_g_at_every_index(self, m_orb):
        ints = IntegralSet.zeros(m_orb)
        ints.g_flat[:] = np.random.default_rng(m_orb).standard_normal(ints.g_flat.size)
        dense = ints.g_dense()
        for idx in np.ndindex(dense.shape):
            p, q, r, s = idx
            assert dense[idx] == ints.g_flat[_tri(_tri(p, q), _tri(r, s))]

    @pytest.mark.parametrize("m_orb", [1, 3, 4])
    def test_from_dense_round_trips_g_flat(self, m_orb):
        ints = IntegralSet.zeros(m_orb, e_core=0.5)
        rng = np.random.default_rng(100 + m_orb)
        ints.g_flat[:] = rng.standard_normal(ints.g_flat.size)
        again = IntegralSet.from_dense(ints.h, ints.g_dense(), e_core=0.5)
        assert np.array_equal(again.g_flat, ints.g_flat)
        assert np.array_equal(again.g_dense(), ints.g_dense())

    def test_from_dense_reads_the_canonical_entries(self):
        # Each stored value is g[p, q, r, s] with p >= q, r >= s, (pq) >= (rs);
        # the other permutation partners of an asymmetric array are ignored.
        m = 3
        g = np.random.default_rng(5).standard_normal((m,) * 4)
        ints = IntegralSet.from_dense(np.eye(m), g)
        for p, q, r, s in np.ndindex(g.shape):
            if p >= q and r >= s and p * (p + 1) // 2 + q >= r * (r + 1) // 2 + s:
                assert ints.g_dense()[p, q, r, s] == g[p, q, r, s]


class TestParser:
    def test_h2_header_and_core(self, h2_integrals, provenance):
        ints = h2_integrals
        assert ints.m_orb == 2
        assert ints.n_electrons == 2
        assert ints.ms2 == 0
        assert ints.e_core == pytest.approx(
            provenance["systems"]["h2"]["e_core"], abs=1e-12
        )

    def test_core_energy_line(self, tmp_path):
        f = tmp_path / "core.fcidump"
        f.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n0.7137 0 0 0 0\n")
        ints = parse_fcidump(f)
        assert ints.e_core == 0.7137

    def test_one_electron_line(self, tmp_path):
        f = tmp_path / "h.fcidump"
        f.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n-1.2528 1 1 0 0\n")
        ints = parse_fcidump(f)
        assert ints.h[0, 0] == -1.2528

    def test_fortran_exponent(self, tmp_path):
        f = tmp_path / "d.fcidump"
        f.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n1.25D-01 1 1 0 0\n")
        assert parse_fcidump(f).h[0, 0] == 0.125

    def test_eight_fold_symmetry_storage(self, tmp_path):
        f = tmp_path / "g.fcidump"
        f.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 2 1 1 1\n")
        ints = parse_fcidump(f)
        val = 0.5
        for idx in [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        ]:
            assert ints.g_dense()[idx] == val

    def test_duplicate_warns_last_wins(self, tmp_path):
        f = tmp_path / "dup.fcidump"
        f.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 2 1 1 1\n0.25 1 2 1 1\n"
        )
        with pytest.warns(UserWarning, match="last wins"):
            ints = parse_fcidump(f)
        assert ints.g_dense()[1, 0, 0, 0] == 0.25

    def test_orbital_energy_record_ignored(self, tmp_path):
        f = tmp_path / "oe.fcidump"
        f.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n-0.5 1 0 0 0\n")
        with pytest.warns(UserWarning, match="orbital-energy"):
            ints = parse_fcidump(f)
        assert np.all(ints.h == 0.0)

    @pytest.mark.parametrize(
        "body,match",
        [
            ("xyz 1 1 0 0\n", "non-numeric"),
            ("1.0 3 1 0 0\n", "out of range"),
            ("1.0 1 1 0\n", "tokens"),
            ("1.0 1 1 2 0\n", "zero index"),
        ],
    )
    def test_malformed_lines(self, tmp_path, body, match):
        f = tmp_path / "bad.fcidump"
        f.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n" + body)
        with pytest.raises(ParseError, match=match):
            parse_fcidump(f)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "nohdr.fcidump"
        f.write_text("1.0 1 1 0 0\n")
        with pytest.raises(ParseError):
            parse_fcidump(f)

    def test_undecodable_bytes(self, tmp_path):
        f = tmp_path / "latin1.fcidump"
        f.write_bytes(b"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n-7.5\xb5 0 0 0 0\n")
        with pytest.raises(ParseError, match="utf-8"):
            parse_fcidump(f)


class TestSlaterCondon:
    def test_one_electron_only_diagonal(self):
        ints = IntegralSet.zeros(3, e_core=0.25)
        ints.h[:] = np.diag([-1.0, -0.5, -0.25])
        space = enumerate_onvs(6, 2, 0.0)
        closed = space.onvs[space.onvs.index(0b11)]  # doubly occupied orbital 0
        assert slater_condon(closed, closed, ints) == pytest.approx(
            -2.0 + 0.25, abs=1e-14
        )

    def test_rank_rule(self):
        ints = IntegralSet.zeros(3)
        # 111000 vs 000111 differ in six spin orbitals.
        assert slater_condon(0b000111, 0b111000, ints) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instance_matches_operator_oracle(self, seed):
        h, g, e_core = random_integrals(3, seed)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(6, 3, 0.5)
        ham = HamiltonianOperator(ints, space)
        oracle = hamiltonian_matrix_brute(list(space.onvs), 3, h, g, e_core)
        assert np.max(np.abs(ham.matrix() - oracle)) < 1e-12

    def test_hermiticity_random(self):
        h, g, e_core = random_integrals(4, 11)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(8, 4, 0.0)
        mat = HamiltonianOperator(ints, space).matrix()
        assert np.max(np.abs(mat - mat.T)) <= 1e-12

    def test_hermiticity_h6_element_pairs(self):
        ints = parse_fcidump(FIXTURES / "h6.fcidump")
        space = enumerate_onvs(12, 6, 0.0)
        rng = np.random.default_rng(29)
        for _ in range(300):
            i, j = rng.integers(space.size, size=2)
            a = slater_condon(space.onvs[i], space.onvs[j], ints)
            b = slater_condon(space.onvs[j], space.onvs[i], ints)
            assert abs(a - b) <= 1e-12

    def test_every_h4_pair_bit_identical_to_loop(self):
        # Both operand orders, and the spin-flip singles between sectors.
        ints = parse_fcidump(FIXTURES / "h4.fcidump")
        onvs = [b for ms in (-1.0, 0.0, 1.0) for b in enumerate_onvs(8, 4, ms).onvs]
        for bra in onvs:
            got = np.array([slater_condon(bra, ket, ints) for ket in onvs])
            ref = np.array([slater_condon_loop(bra, ket, ints) for ket in onvs])
            assert_bit_identical(got, ref)

    @pytest.mark.parametrize(
        "bra, ket", [(0b0011, 0b1111), (0b1111, 0b0011), (0b0011, 0b0111)]
    )
    def test_different_electron_counts_give_zero(self, bra, ket):
        h, g, e_core = random_integrals(2, 13)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        assert slater_condon(bra, ket, ints) == 0.0

    def test_particle_hole_relabeling_diagonal(self):
        # A symmetric integral set (all h_pp equal, uniform g) gives identical
        # diagonal elements for determinants related by orbital relabeling.
        m = 3
        h = -np.eye(m)
        g = np.zeros((m,) * 4)
        for p in range(m):
            for q in range(m):
                g[p, p, q, q] = 0.3
        ints = IntegralSet.from_dense(h, g)
        space = enumerate_onvs(6, 2, 1.0)
        diags = [slater_condon(b, b, ints) for b in space.onvs]
        assert np.ptp(diags) < 1e-14


class TestMatrixAssembly:
    """The excitation-class build against the per-pair ``slater_condon_loop``."""

    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_fixture_matrix_bit_identical(self, name):
        ints, space = fixture_problem(name)
        assert_bit_identical(
            HamiltonianOperator(ints, space).matrix(), slater_condon_matrix(ints, space)
        )

    @pytest.mark.parametrize(
        "m_orb,n_electrons,ms",
        [
            (3, 0, 0.0),  # the vacuum: e_core alone
            (4, 1, 0.5),  # one electron: every pair is a single
            (4, 3, -0.5),  # odd N, negative projection
            (5, 5, 0.5),  # odd N with doubles of every spin pattern
            (5, 4, 2.0),  # all alpha (MS2 = N)
            (3, 6, 0.0),  # full shell: one determinant
            (6, 5, 0.5),  # 300 determinants: more than one block of rows
        ],
    )
    def test_random_integrals_bit_identical(self, m_orb, n_electrons, ms):
        h, g, e_core = random_integrals(m_orb, 7 * m_orb + n_electrons)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(2 * m_orb, n_electrons, ms)
        assert_bit_identical(
            HamiltonianOperator(ints, space).matrix(), slater_condon_matrix(ints, space)
        )

    def test_asymmetric_h_keeps_bra_ket_order(self):
        # h within the symmetry tolerance but not symmetric: the element of
        # row i, column j < i reads h[bra orbital, ket orbital].
        h, g, e_core = random_integrals(4, 31)
        skew = np.triu(np.full((4, 4), 4e-9), 1)
        ints = IntegralSet.from_dense(h + skew - skew.T, g, e_core=e_core)
        assert not np.array_equal(ints.h, ints.h.T)
        space = enumerate_onvs(8, 3, 0.5)
        mat = HamiltonianOperator(ints, space).matrix()
        assert_bit_identical(mat, slater_condon_matrix(ints, space))
        assert np.array_equal(mat, mat.T)

    def test_symmetry_filtered_space(self):
        # The filter keeps some determinants of an alpha string and drops
        # others, so the strings are not a product of alpha and beta lists.
        h, g, e_core = random_integrals(6, 29)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(12, 5, 0.5, orb_irreps=(1, 2, 3, 4, 1, 2), target_irrep=2)
        assert 0 < space.size < enumerate_onvs(12, 5, 0.5).size
        assert_bit_identical(
            HamiltonianOperator(ints, space).matrix(), slater_condon_matrix(ints, space)
        )

    @pytest.mark.parametrize("spacing", [1.75, 1.85])
    def test_h8_chain_matches_the_float32_classification(self, h8_chain, spacing):
        ints = parse_fcidump(h8_chain(spacing))
        space = enumerate_onvs(16, 5, 0.5)
        assert_bit_identical(
            hamiltonian._determinant_matrix(ints, space),
            determinant_matrix_reference(ints, space),
        )

    @pytest.mark.parametrize("name", ["h4", "h6"])
    def test_orbital_occupations_bit_identical(self, name):
        ints, space = fixture_problem(name)
        ham = HamiltonianOperator(ints, space)
        _, vec = exact_diagonalize(ham)
        occ = orbital_occupations(ham, vec)
        assert occ == orbital_occupations_loop(ham, vec)
        assert sum(occ) == pytest.approx(space.n_electrons, abs=1e-12)


class TestCsfMatrixElement:
    """Elements of the CSF Hamiltonian K H K^T from ``csf_hamiltonian``."""

    def test_single_csf_closed_shell(self):
        h, g, e_core = random_integrals(1, 3)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        onv = space.onvs[0]
        assert csf_hamiltonian(basis, ham)[0, 0] == pytest.approx(
            slater_condon(onv, onv, ints), abs=1e-14
        )

    def test_symmetry_and_dense_oracle(self):
        h, g, e_core = random_integrals(3, 5)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(6, 3, 0.5)
        basis = build_csf_basis(space, 0.5)
        ham = HamiltonianOperator(ints, space)
        K = basis.K.toarray()
        dense = K @ ham.matrix() @ K.T
        A = csf_hamiltonian(basis, ham)
        assert A.shape == (basis.n_csfs, basis.n_csfs)
        assert np.allclose(A, dense, rtol=0.0, atol=1e-11)
        assert np.allclose(A, A.T, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_pinned_to_slater_condon_loop(self, name):
        # K H K^T from the reference per-pair determinant matrix.
        ints, space = fixture_problem(name)
        basis = build_csf_basis(space, 0.0)
        K = basis.K.toarray()
        ref = K @ slater_condon_matrix(ints, space) @ K.T
        A = csf_hamiltonian(basis, HamiltonianOperator(ints, space))
        assert np.max(np.abs(A - ref)) <= 1e-12
        assert np.max(np.abs(A - A.T)) <= 1e-12


class TestExactDiagonalize:
    def test_zero_integrals_gives_core(self):
        ints = IntegralSet.zeros(2, e_core=-3.5)
        space = enumerate_onvs(4, 2, 0.0)
        ham = HamiltonianOperator(ints, space)
        e0, vec = exact_diagonalize(ham)
        assert e0 == pytest.approx(-3.5, abs=1e-14)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_h2_fixture_ground_state(self, h2_integrals, provenance):
        space = enumerate_onvs(4, 2, 0.0)
        ham = HamiltonianOperator(h2_integrals, space)
        e0, _ = exact_diagonalize(ham)
        # Committed oracle energy computed by an independent implementation.
        assert e0 == pytest.approx(
            provenance["systems"]["h2"]["e_fci"], abs=1e-9
        )
        assert e0 == pytest.approx(-1.137, abs=1e-3)

    def test_h2_determinant_vs_csf_basis(self, h2_integrals):
        space = enumerate_onvs(4, 2, 0.0)
        ham = HamiltonianOperator(h2_integrals, space)
        e_det, _ = exact_diagonalize(ham)
        basis = build_csf_basis(space, 0.0)
        e_csf, vec = exact_diagonalize(ham, basis)
        assert abs(e_det - e_csf) < 1e-10
        assert vec.shape == (basis.n_csfs,)

    def test_union_of_spin_sectors_matches_determinant_basis(self):
        h, g, e_core = random_integrals(3, 17)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(6, 2, 0.0)
        ham = HamiltonianOperator(ints, space)
        e_det, _ = exact_diagonalize(ham)
        sector_energies = []
        for s in (0.0, 1.0):
            basis = build_csf_basis(space, s)
            e_s, _ = exact_diagonalize(ham, basis)
            sector_energies.append(e_s)
        assert min(sector_energies) == pytest.approx(e_det, abs=1e-10)

    def test_toy_dense_oracle(self):
        h, g, e_core = random_integrals(4, 23)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(8, 4, 0.0)
        ham = HamiltonianOperator(ints, space)
        e0, vec = exact_diagonalize(ham)
        evals = np.linalg.eigvalsh(
            hamiltonian_matrix_brute(list(space.onvs), 4, h, g, e_core)
        )
        assert e0 == pytest.approx(evals[0], abs=1e-10)

    def test_capacity_error(self, h2_integrals):
        space = enumerate_onvs(4, 2, 0.0)
        ham = HamiltonianOperator(h2_integrals, space)
        with pytest.raises(CapacityError):
            exact_diagonalize(ham, dense_limit=2)


@pytest.fixture
def products(monkeypatch):
    """(products with A, order) of each Davidson solve the test runs."""
    solve, seen = hamiltonian.lowest_eigenpair, []

    def counted(apply_a, *args):
        calls = []
        theta, x = solve(lambda u: calls.append(1) or apply_a(u), *args)
        seen.append((len(calls), len(x)))
        return theta, x

    monkeypatch.setattr(hamiltonian, "lowest_eigenpair", counted)
    return seen


def assert_same_ground_state(ham, basis=None):
    """The lowest-eigenpair solve against the full-spectrum reference: the
    energy, the vector up to its sign, and the sites the run would select."""
    e0, vec = exact_diagonalize(ham, basis)
    e_ref, ref = exact_diagonalize_full(ham, basis)
    assert abs(e0 - e_ref) <= 1e-12
    if basis is None:
        overlap = vec @ ref
    else:
        overlap = vec @ basis.overlap() @ ref
        vec, ref = vec @ basis.K, ref @ basis.K
    assert abs(abs(overlap) - 1.0) <= 1e-12
    assert select_sites(orbital_occupations(ham, vec)) == select_sites(
        orbital_occupations(ham, ref)
    )


@pytest.mark.filterwarnings("ignore:no orbital occupation")
class TestLowestEigenpair:
    """``exact_diagonalize`` against ``oracles.exact_diagonalize_full``."""

    @pytest.mark.parametrize("spin2", [0, 2])
    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_fixtures(self, name, spin2):
        ints, space = fixture_problem(name)
        ham = HamiltonianOperator(ints, space)
        assert_same_ground_state(ham)
        assert_same_ground_state(ham, build_csf_basis(space, spin2 / 2.0))

    @pytest.mark.parametrize(
        "m_orb,n_electrons,ms,seed",
        [(3, 3, 0.5, 5), (3, 2, 0.0, 17), (4, 4, 0.0, 23), (5, 5, 0.5, 40), (6, 5, 0.5, 47)],
    )
    def test_random_integrals_every_spin(self, m_orb, n_electrons, ms, seed):
        h, g, e_core = random_integrals(m_orb, seed)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(2 * m_orb, n_electrons, ms)
        ham = HamiltonianOperator(ints, space)
        assert_same_ground_state(ham)
        highest = min(n_electrons, 2 * m_orb - n_electrons) / 2.0
        for s in np.arange(abs(ms), highest + 0.5):
            assert_same_ground_state(ham, build_csf_basis(space, float(s)))

    def test_one_determinant_one_csf(self):
        h, g, e_core = random_integrals(1, 3)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        assert (space.size, basis.n_csfs) == (1, 1)
        ham = HamiltonianOperator(ints, space)
        assert_same_ground_state(ham)
        assert_same_ground_state(ham, basis)
        e0, vec = exact_diagonalize(ham, basis)
        assert e0 == ham.matrix()[0, 0]
        assert vec.tolist() == [1.0]

    def test_h8_chain(self, h8_problem):
        space, basis, ham = h8_problem
        assert (space.size, basis.n_csfs) == (1568, 1008)
        assert_same_ground_state(ham)
        assert_same_ground_state(ham, basis)

    def test_large_core_energy(self, products):
        # At 1000 Ha the pairs match the reference to the usual bounds; at
        # 1e5 Ha, where the residual's rounding floor lies far above 1e-12 Ha,
        # every solve still converges long before its basis spans the space.
        h, g, _ = random_integrals(6, 47)
        space = enumerate_onvs(12, 5, 0.5)
        ham = HamiltonianOperator(IntegralSet.from_dense(h, g, e_core=1000.0), space)
        assert_same_ground_state(ham)
        for s in (0.5, 1.5, 2.5):
            assert_same_ground_state(ham, build_csf_basis(space, s))
        far = HamiltonianOperator(IntegralSet.from_dense(h, g, e_core=1e5), space)
        e_far, vec_far = exact_diagonalize(far)
        e_near, vec_near = exact_diagonalize(ham)
        assert abs((e_far - 1e5) - (e_near - 1000.0)) <= 1e-10
        assert abs(vec_far @ vec_near - 1.0) <= 1e-12
        assert [n for _, n in products] == [300, 210, 84, 6, 300, 300]
        assert all(4 * count < n for count, n in products if n > 100)

    def test_energy_near_zero(self, products):
        # A core energy that cancels the electronic energy: the bound scales
        # with the largest diagonal element too, so the solve still stops
        # long before its basis spans the space.
        ints, space = fixture_problem("h6")
        basis = build_csf_basis(space, 0.0)
        ints.e_core -= exact_diagonalize(HamiltonianOperator(ints, space), basis)[0]
        ham = HamiltonianOperator(ints, space)
        assert_same_ground_state(ham)
        assert_same_ground_state(ham, basis)
        assert abs(exact_diagonalize(ham, basis)[0]) <= 1e-12
        assert [n for _, n in products] == [175, 400, 175, 175]
        assert all(4 * count < n for count, n in products)

    def test_non_interacting_electrons(self, products):
        # H is diagonal, so every preconditioned residual lies in the basis
        # and the basis grows by the residual itself, not by rounding noise.
        h = np.diag(np.linspace(-1.5, 1.0, 6))
        ints = IntegralSet.from_dense(h, np.zeros((6,) * 4), e_core=0.5)
        space = enumerate_onvs(12, 5, 0.5)
        ham = HamiltonianOperator(ints, space)
        assert_same_ground_state(ham)
        for s in (0.5, 1.5):
            assert_same_ground_state(ham, build_csf_basis(space, s))
        assert exact_diagonalize(ham)[0] == pytest.approx(-5.0, abs=1e-14)
        assert [n for _, n in products] == [300, 210, 84, 300]
        assert all(4 * count < n for count, n in products)

    def test_closed_shell_start_reaches_triplet_ground_state(self):
        # The lowest diagonal element belongs to a closed-shell determinant,
        # which has no triplet part, while the Ms = 0 ground state is a
        # triplet: a start from that unit vector alone stays in the singlets.
        h, g, e_core = random_integrals(4, 18)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(8, 2, 0.0)
        ham = HamiltonianOperator(ints, space)
        start = space.onvs[np.argmin(np.diag(ham.matrix()))]
        assert start == 0b110000
        e_triplet, _ = exact_diagonalize(ham, build_csf_basis(space, 1.0))
        e_singlet, _ = exact_diagonalize(ham, build_csf_basis(space, 0.0))
        assert e_triplet < e_singlet - 0.5
        assert_same_ground_state(ham)

    @pytest.mark.parametrize("name", ["h4", "h6", 0, 1, 2, 3])
    def test_spin_flip_partners_share_energy_bits(self, name):
        # The Ms = +1 and Ms = -1 triplet problems order their determinants
        # and CSFs differently, so every product sums in another order; the
        # energy is one extended-precision Rayleigh quotient rounded once.
        if isinstance(name, str):
            ints, _ = fixture_problem(name)
        else:
            h, g, e_core = random_integrals(5, name)
            ints = IntegralSet.from_dense(h, g, e_core=e_core, n_electrons=4)
        energies = set()
        for ms in (1.0, -1.0):
            space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ms)
            ham = HamiltonianOperator(ints, space)
            energies.add(exact_diagonalize(ham, build_csf_basis(space, 1.0))[0])
        assert len(energies) == 1


class TestMatrixFreeSolve:
    """The CSF solve works through the sparse K and products with H."""

    def test_no_dense_csf_operator(self, h8_problem, monkeypatch):
        _, basis, ham = h8_problem
        H = ham.matrix()

        def forbidden(*args):
            raise AssertionError("dense CSF operator formed")

        monkeypatch.setattr(hamiltonian, "csf_hamiltonian", forbidden)
        monkeypatch.setattr(CsfBasis, "overlap", forbidden)
        monkeypatch.setattr(type(basis.K), "toarray", forbidden)
        tracemalloc.start()
        try:
            exact_diagonalize(ham, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < H.nbytes / 4

    @pytest.mark.parametrize("name,spin2", [("h4", 0), ("h6", 0), ("h6", 2)])
    def test_csf_diagonals(self, name, spin2):
        ints, space = fixture_problem(name)
        basis = build_csf_basis(space, spin2 / 2.0)
        ham = HamiltonianOperator(ints, space)
        H = ham.matrix()
        K = basis.K.toarray()
        diag = _csf_diagonals(basis.K, ham)
        assert diag.tobytes() == csf_diagonals_dense(basis.K, H).tobytes()
        assert np.max(np.abs(diag - np.diag(K @ H @ K.T))) <= 1e-12

    def test_random_symmetric_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((60, 60))
        A = A + A.T
        theta, x = lowest_eigenpair(A.__matmul__, np.diag(A))
        evals, evecs = np.linalg.eigh(A)
        assert abs(theta - evals[0]) <= 1e-12
        assert abs(x @ x - 1.0) <= 1e-12
        assert abs(abs(x @ evecs[:, 0]) - 1.0) <= 1e-12


def oracle_problem(name, h8_chain):
    """(space, ground-spin CSF basis, Hamiltonian) of a fixture or, for a
    float name, of the H8 chain at that bond length."""
    if isinstance(name, str):
        ints, space = fixture_problem(name)
    else:
        ints = parse_fcidump(h8_chain(name))
        space = enumerate_onvs(16, 5, 0.5)
    basis = build_csf_basis(space, abs(space.ms))
    return space, basis, HamiltonianOperator(ints, space)


class TestRestartedDavidson:
    """The bounded, restarted solve against ``oracles.lowest_eigenpair_reference``,
    the solve whose basis grows until it converges."""

    @pytest.mark.parametrize(
        "name,counts",
        [("h2", [4, 3]), ("h4", [28, 20]), ("h6", [49, 37]), (1.75, [79, 74]),
         (1.85, [82, 79])],
    )
    def test_oracle_energies_keep_their_bits(self, h8_chain, products, name, counts):
        space, basis, ham = oracle_problem(name, h8_chain)
        for b in (None, basis):
            e0, vec = exact_diagonalize(ham, b)
            e_ref, ref = exact_diagonalize_reference(ham, b)
            assert e0 == e_ref
            assert np.max(np.abs(vec - ref)) <= 1e-10
        assert [count for count, _ in products] == counts

    def test_small_spaces_keep_the_unrestarted_solve(self):
        # At most _BASIS_MAX dimensions: no restart, the same bits.
        _, h2_basis, h2 = oracle_problem("h2", None)
        _, h4_basis, h4 = oracle_problem("h4", None)
        for ham, basis in ((h2, None), (h2, h2_basis), (h4, h4_basis)):
            assert (basis.n_csfs if basis else ham.dim) <= hamiltonian._BASIS_MAX
            e0, vec = exact_diagonalize(ham, basis)
            e_ref, ref = exact_diagonalize_reference(ham, basis)
            assert e0 == e_ref
            assert_bit_identical(vec, ref)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((25, 25))
        A = A + A.T
        theta, x = lowest_eigenpair(A.__matmul__, np.diag(A))
        theta_ref, x_ref = lowest_eigenpair_reference(A.__matmul__, np.diag(A))
        assert theta == theta_ref
        assert_bit_identical(x, x_ref)

    def test_storage_holds_at_most_25_vectors(self, h8_problem):
        # V and AV are 25 rows each, allocated once, and the solve's peak
        # is 64 vectors of length n; the unrestarted solve peaked at 336.
        space, _, ham = h8_problem
        H = ham.matrix()
        tracemalloc.start()
        try:
            lowest_eigenpair(H.__matmul__, H.diagonal())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hamiltonian._BASIS_MAX == 25
        assert peak < 80 * 8 * space.size

    def test_unconverged_solve_raises(self, monkeypatch):
        # With no residual bound, a space beyond the basis size can only
        # stop at the product bound, and says so.
        monkeypatch.setattr(hamiltonian, "_RESIDUAL_TOL", 0.0)
        _, basis, ham = oracle_problem("h6", None)
        with pytest.raises(ConvergenceError, match="175.* 1000 products: residual norm"):
            exact_diagonalize(ham, basis)

    def test_small_space_stays_exact_without_a_residual_bound(self, monkeypatch):
        # The 20-CSF H4 solve ends when its basis spans the space.
        _, basis, ham = oracle_problem("h4", None)
        e0, vec = exact_diagonalize(ham, basis)
        monkeypatch.setattr(hamiltonian, "_RESIDUAL_TOL", 0.0)
        e_span, vec_span = exact_diagonalize(ham, basis)
        assert e_span == e0
        assert_bit_identical(vec_span, vec)
        e_full, ref = exact_diagonalize_full(ham, basis)
        assert abs(e_span - e_full) <= 1e-12
        assert abs(abs(vec_span @ ref) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["h2", "h4", "h6", 1.75, 1.85])
    def test_energies_match_the_dense_product_solve(self, h8_chain, name):
        # The oracle before the matrix-free product: Davidson on products
        # with the dense H.  Its products round differently; its energies
        # keep their bits.
        space, basis, ham = oracle_problem(name, h8_chain)
        for b in (None, basis):
            e_dense, _ = exact_diagonalize_reference(ham, b, dense_products=True)
            assert exact_diagonalize(ham, b)[0] == e_dense


def sigma_problem(name, h8_chain):
    """(integrals, space) of a product parity case: a fixture at a given
    2S, the H8 chain at Ms = +-1/2, or random integrals on a space with no
    beta electrons, no alpha electrons, or an irrep filter."""
    if isinstance(name, tuple):
        fixture, spin2 = name
        ints = parse_fcidump(FIXTURES / f"{fixture}.fcidump")
        return ints, enumerate_onvs(2 * ints.m_orb, ints.n_electrons, spin2 / 2.0)
    if isinstance(name, float):
        return parse_fcidump(h8_chain(1.75)), enumerate_onvs(16, 5, name)
    h, g, e_core = random_integrals(6, 29)
    ints = IntegralSet.from_dense(h, g, e_core=e_core)
    if name == "irreps":
        return ints, enumerate_onvs(12, 5, 0.5, orb_irreps=(1, 2, 3, 4, 1, 2), target_irrep=2)
    return ints, enumerate_onvs(12, 3, {"no-beta": 1.5, "no-alpha": -1.5}[name])


SIGMA_CASES = [("h2", 0), ("h4", 0), ("h4", 2), ("h4", 4), ("h6", 0), ("h6", 2),
               0.5, -0.5, "no-beta", "no-alpha", "irreps"]


class TestSigma:
    """``HamiltonianOperator.sigma`` against the dense matrix it replaces."""

    @pytest.mark.parametrize("name", SIGMA_CASES)
    def test_parity_with_the_dense_matrix(self, h8_chain, name):
        ints, space = sigma_problem(name, h8_chain)
        ham = HamiltonianOperator(ints, space)
        H = ham.matrix()
        rng = np.random.default_rng(space.size)
        v = rng.standard_normal(space.size)
        sigma = ham.sigma(v)
        assert np.max(np.abs(sigma - H @ v)) <= 1e-13 * np.max(np.abs(H @ v))
        # A unit vector reads out one column: every element is the dense one.
        for j in rng.choice(space.size, min(space.size, 12), replace=False):
            unit = np.zeros(space.size)
            unit[j] = 1.0
            assert_bit_identical(ham.sigma(unit), H[:, j])
        assert ham.diagonal().tobytes() == H.diagonal().tobytes()
        extended = ham.sigma(v.astype(np.longdouble))
        assert extended.dtype == np.longdouble
        assert np.max(np.abs(extended - sigma)) <= 1e-14 * np.max(np.abs(sigma))

    def test_covers_the_edge_spaces(self, h8_chain):
        sizes = {name: sigma_problem(name, h8_chain)[1].size for name in SIGMA_CASES}
        assert sizes[("h4", 4)] == 1  # four alpha electrons fill the four orbitals
        assert sizes["no-beta"] == sizes["no-alpha"] == 20
        assert 0 < sizes["irreps"] < enumerate_onvs(12, 5, 0.5).size
        assert sizes[0.5] == sizes[-0.5] == 1568

    def test_table_build_holds_no_second_singles_table(self):
        # On the 25 200 determinants of 7 electrons in 10 orbitals, the
        # singles' connection table (25 200 x 45) is sorted in place and
        # mirrored block by block: beyond what the tables keep, the build
        # never holds as much as one more copy of it.
        h, g, e_core = random_integrals(10, 3)
        ints = IntegralSet.from_dense(h, g, e_core=e_core)
        space = enumerate_onvs(20, 7, 0.5)
        ints.g_dense()
        tracemalloc.start()
        try:
            tables = hamiltonian._ProductTables(ints, space)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tables.single_val.shape == (25200, 45)
        assert peak - kept < tables.single_val.nbytes

    @pytest.mark.parametrize("name", ["h4", "h6"])
    def test_elements(self, name):
        ints, space = fixture_problem(name)
        ham = HamiltonianOperator(ints, space)
        sample = np.random.default_rng(7).choice(space.size, 30, replace=False)
        bra, ket = np.meshgrid(sample, sample)  # every level, both orientations
        elements = ham.elements(bra, ket)
        assert_bit_identical(elements, ham.matrix()[bra, ket])
        assert np.count_nonzero(elements) > 60
