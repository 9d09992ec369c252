"""Integral parsing, Slater-Condon elements, and the dense diagonalization oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from cgtns.correlators import select_sites
from cgtns.errors import CapacityError, ParseError
from cgtns.fock import build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import (
    HamiltonianOperator,
    IntegralSet,
    csf_hamiltonian,
    exact_diagonalize,
    orbital_occupations,
    parse_fcidump,
)

from oracles import (
    exact_diagonalize_full,
    hamiltonian_matrix_brute,
    orbital_occupations_loop,
    slater_condon_matrix,
)

FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"


@pytest.fixture(scope="module")
def provenance():
    return json.loads((FIXTURES / "provenance.json").read_text())


@pytest.fixture(scope="module")
def h2_integrals():
    return parse_fcidump(FIXTURES / "h2.fcidump")


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


class TestIntegralSet:
    @pytest.mark.parametrize("m_orb", [1, 2, 4])
    def test_g_dense_matches_g_at_every_index(self, m_orb):
        ints = IntegralSet.zeros(m_orb)
        ints.g_flat[:] = np.random.default_rng(m_orb).standard_normal(ints.g_flat.size)
        dense = ints.g_dense()
        for idx in np.ndindex(dense.shape):
            assert dense[idx] == ints.g(*idx)

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
                assert ints.g(p, q, r, s) == g[p, q, r, s]


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
            assert ints.g(*idx) == val

    def test_duplicate_warns_last_wins(self, tmp_path):
        f = tmp_path / "dup.fcidump"
        f.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 2 1 1 1\n0.25 1 2 1 1\n"
        )
        with pytest.warns(UserWarning, match="last wins"):
            ints = parse_fcidump(f)
        assert ints.g(1, 0, 0, 0) == 0.25

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


class TestSlaterCondon:
    def test_one_electron_only_diagonal(self):
        ints = IntegralSet.zeros(3, e_core=0.25)
        ints.h[:] = np.diag([-1.0, -0.5, -0.25])
        space = enumerate_onvs(6, 2, 0.0)
        from cgtns.hamiltonian import slater_condon

        closed = space.onvs[space.onvs.index(0b11)]  # doubly occupied orbital 0
        assert slater_condon(closed, closed, ints) == pytest.approx(
            -2.0 + 0.25, abs=1e-14
        )

    def test_rank_rule(self):
        ints = IntegralSet.zeros(3)
        from cgtns.hamiltonian import slater_condon

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
        from cgtns.hamiltonian import slater_condon

        ints = parse_fcidump(FIXTURES / "h6.fcidump")
        space = enumerate_onvs(12, 6, 0.0)
        rng = np.random.default_rng(29)
        for _ in range(300):
            i, j = rng.integers(space.size, size=2)
            a = slater_condon(space.onvs[i], space.onvs[j], ints)
            b = slater_condon(space.onvs[j], space.onvs[i], ints)
            assert abs(a - b) <= 1e-12

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
        from cgtns.hamiltonian import slater_condon

        diags = [slater_condon(b, b, ints) for b in space.onvs]
        assert np.ptp(diags) < 1e-14


class TestMatrixAssembly:
    """The excitation-class build against the per-pair ``slater_condon`` loop."""

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
        from cgtns.hamiltonian import slater_condon

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
        K = basis.dense()
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
        K = basis.dense()
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
        vec, ref = basis.K.T @ vec, basis.K.T @ ref
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
