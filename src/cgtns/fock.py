"""Determinant spaces and spin-adapted configuration state functions.

Spin-orbital convention used throughout the package: spin orbitals are
interleaved by spatial orbital, ``2*p`` is the alpha and ``2*p + 1`` the beta
spin orbital of spatial orbital ``p`` (all indices 0-based).  An occupation
number vector (ONV) is an integer whose bit ``i`` holds the occupation of
spin orbital ``i``; spaces are sorted by ascending integer value.

Second-quantization phase convention: an elementary operator acting on spin
orbital ``i`` picks up ``(-1)**(number of occupied spin orbitals with index
below i)``, i.e. ONVs are creation-operator strings in ascending index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, DimensionError, EmptyBasisError, EmptySpaceError

#: Hard cap on the number of spin orbitals in one space (bitstring width).
MAX_SPIN_ORBITALS = 64

ALPHA = 0
BETA = 1


def spin_orbital(spatial: int, spin: int) -> int:
    """Index of the alpha (spin=0) or beta (spin=1) partner of a spatial orbital."""
    return 2 * spatial + spin


@dataclass(frozen=True)
class FockSubspace:
    """All ONVs with fixed electron count and spin projection, canonically ordered.

    ``ms2`` stores twice the spin projection so the field stays integral.
    ``orb_irreps``/``target_irrep`` record an optional abelian symmetry filter
    (irrep labels 1..8, group product by XOR of the zero-based labels).
    """

    m: int
    n_electrons: int
    ms2: int
    onvs: tuple[int, ...]
    orb_irreps: tuple[int, ...] | None = None
    target_irrep: int | None = None

    @property
    def size(self) -> int:
        return len(self.onvs)

    @property
    def ms(self) -> float:
        return self.ms2 / 2.0


def occupations(space: FockSubspace) -> np.ndarray:
    """(n_det, m) boolean occupation of every spin orbital of every ONV."""
    onvs = np.array(space.onvs, dtype=np.uint64)
    return ((onvs[:, None] >> np.arange(space.m, dtype=np.uint64)) & 1).astype(bool)


def determinant_irrep(bits: int, orb_irreps: tuple[int, ...]) -> int:
    """Direct product (XOR) of the irreps of all occupied spin orbitals."""
    label = 0
    so = 0
    while bits:
        if bits & 1:
            label ^= orb_irreps[so // 2] - 1
        bits >>= 1
        so += 1
    return label + 1


def enumerate_onvs(
    m: int,
    n_electrons: int,
    ms: float,
    orb_irreps: tuple[int, ...] | None = None,
    target_irrep: int | None = None,
) -> FockSubspace:
    """Enumerate every determinant with the given electron count and projection.

    The result is sorted by ascending bitstring value and is a pure function
    of its arguments.  ``orb_irreps`` holds one label per *spatial* orbital.
    """
    if m > MAX_SPIN_ORBITALS:
        raise CapacityError(
            f"{m} spin orbitals exceed the supported width {MAX_SPIN_ORBITALS}"
        )
    if m < 0 or m % 2:
        raise EmptySpaceError(f"spin-orbital count must be even, got {m}")
    ms2 = int(round(2 * ms))
    if abs(2 * ms - ms2) > 1e-12:
        raise EmptySpaceError(f"spin projection {ms} is not a half-integer")
    if not 0 <= n_electrons <= m:
        raise EmptySpaceError(
            f"cannot place {n_electrons} electrons in {m} spin orbitals"
        )
    if (n_electrons - ms2) % 2:
        raise EmptySpaceError(
            f"N={n_electrons} and Ms={ms} have mismatched parity: "
            "N_alpha/N_beta would not be integral"
        )
    n_alpha = (n_electrons + ms2) // 2
    n_beta = (n_electrons - ms2) // 2
    m_orb = m // 2
    if min(n_alpha, n_beta) < 0 or max(n_alpha, n_beta) > m_orb:
        raise EmptySpaceError(
            f"(N={n_electrons}, Ms={ms}) needs {n_alpha} alpha and {n_beta} beta "
            f"electrons, infeasible with {m_orb} spatial orbitals"
        )
    if orb_irreps is not None and len(orb_irreps) != m_orb:
        raise DimensionError(
            f"{len(orb_irreps)} irrep labels for {m_orb} spatial orbitals"
        )

    found = []
    for alpha_occ in combinations(range(m_orb), n_alpha):
        bits_a = 0
        for p in alpha_occ:
            bits_a |= 1 << spin_orbital(p, ALPHA)
        for beta_occ in combinations(range(m_orb), n_beta):
            bits = bits_a
            for p in beta_occ:
                bits |= 1 << spin_orbital(p, BETA)
            if target_irrep is not None and orb_irreps is not None:
                if determinant_irrep(bits, orb_irreps) != target_irrep:
                    continue
            found.append(bits)
    if not found:
        raise EmptySpaceError(
            f"no determinant with N={n_electrons}, Ms={ms} carries irrep "
            f"{target_irrep} under labels {orb_irreps}"
        )
    found.sort()
    return FockSubspace(
        m=m,
        n_electrons=n_electrons,
        ms2=ms2,
        onvs=tuple(found),
        orb_irreps=orb_irreps,
        target_irrep=target_irrep,
    )


def count_onvs_asymptotic(m_orb: int) -> float:
    """Asymptotic determinant count 2/(pi*m_orb) * 4**m_orb.

    Estimates the size of the half-filled, zero-projection space with as many
    electrons as spatial orbitals; the exact count is C(m_orb, m_orb//2)**2
    for even fillings.
    """
    if m_orb < 1:
        raise EmptySpaceError(f"spatial orbital count must be >= 1, got {m_orb}")
    return 2.0 / (math.pi * m_orb) * 4.0**m_orb


# ---------------------------------------------------------------------------
# Genealogical spin coupling
# ---------------------------------------------------------------------------


def _cg_add_half(s2_prev: int, m2_new: int, mu2: int, s2_new: int) -> float:
    """Clebsch-Gordan coefficient for coupling one spin-1/2 onto (s2_prev/2).

    All spin arguments are twice the physical value.  ``mu2`` is +1 or -1 for
    the added alpha/beta spin, ``m2_new`` the projection after the addition.
    Condon-Shortley phases.  A projection outside the new spin's range,
    reachable after an earlier zero coefficient, gives zero.
    """
    if abs(m2_new) > s2_new:
        return 0.0
    if s2_new == s2_prev + 1:
        if mu2 == 1:
            return math.sqrt((s2_prev + m2_new + 1) / (2.0 * (s2_prev + 1)))
        return math.sqrt((s2_prev - m2_new + 1) / (2.0 * (s2_prev + 1)))
    if s2_new == s2_prev - 1:
        if mu2 == 1:
            return -math.sqrt((s2_prev - m2_new + 1) / (2.0 * (s2_prev + 1)))
        return math.sqrt((s2_prev + m2_new + 1) / (2.0 * (s2_prev + 1)))
    raise ValueError("spin step must change the total spin by one half")


def genealogical_paths(n_open: int, s2: int) -> list[tuple[int, ...]]:
    """All branching sequences of intermediate total spins ending at s2.

    A path lists twice the intermediate total spin after each of the
    ``n_open`` coupling steps; every step changes the total by +-1/2 and the
    running value never drops below zero.  Paths come out in lexicographic
    order.
    """
    if n_open == 0:
        return [()] if s2 == 0 else []
    paths = []

    def extend(prefix, current):
        step = len(prefix)
        if step == n_open:
            if current == s2:
                paths.append(tuple(prefix))
            return
        # Lowest branch first for lexicographic output.
        for nxt in (current - 1, current + 1):
            if nxt < 0:
                continue
            # Prune: remaining steps must be able to reach s2.
            remaining = n_open - step - 1
            if abs(nxt - s2) > remaining:
                continue
            prefix.append(nxt)
            extend(prefix, nxt)
            prefix.pop()

    # The first step always couples a single spin-1/2: s2_1 == 1.
    extend([1], 1)
    return paths


class CouplingMatrix:
    """A matrix that is block-diagonal by spatial configuration, with one
    dense coefficient block shared by every configuration of a kind.

    ``blocks`` holds triples ``(coeffs, rows, cols)``: every configuration
    g of the kind stores ``coeffs[i, j]`` at row ``rows[g, i]`` and column
    ``cols[g, j]``, the columns ascending along j.  Each product adds each
    output element's nonzero terms in ascending column order, starting from
    zero; no BLAS call is made, so the bits depend on neither the BLAS
    build nor its thread count.  ``rows``, ``cols`` and ``data`` list the
    nonzeros configuration by configuration and within one block column by
    block column, so one ``bincount`` over them adds in that order along
    either axis: ``K @ v`` by row, ``u @ K`` (a 1-D ``u``, K^T u) by column.
    """

    # ndarray @ K defers to __rmatmul__ instead of converting K.
    __array_ufunc__ = None

    def __init__(self, blocks, shape: tuple[int, int]):
        self.blocks = tuple(blocks)
        self.shape = shape
        listed = []
        for coeffs, rows, cols in self.blocks:
            j, i = np.nonzero(coeffs.T)
            values = np.tile(coeffs[i, j], len(rows))
            listed.append((rows[:, i].ravel(), cols[:, j].ravel(), values))
        self.rows, self.cols, self.data = map(np.concatenate, zip(*listed))

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, other) -> np.ndarray:
        other = np.asarray(other, dtype=float)
        if other.ndim not in (1, 2) or other.shape[0] != self.shape[1]:
            raise ValueError(
                f"cannot multiply a {self.shape} matrix by shape {other.shape}"
            )
        if other.ndim == 1:
            terms = self.data * other[self.cols]
            return np.bincount(self.rows, terms, minlength=self.shape[0])
        other = np.ascontiguousarray(other)
        out = np.zeros((self.shape[0], other.shape[1]))
        for coeffs, rows, cols in self.blocks:
            acc = np.zeros((len(coeffs), len(rows), other.shape[1]))
            for i, j in zip(*np.nonzero(coeffs)):
                term = other[cols[:, j]]
                term *= coeffs[i, j]
                acc[i] += term
            out[rows.T] = acc
        return out

    def __rmatmul__(self, other) -> np.ndarray:
        other = np.asarray(other, dtype=float)
        if other.shape != (self.shape[0],):
            raise ValueError(
                f"cannot multiply shape {other.shape} by a {self.shape} matrix"
            )
        terms = self.data * other[self.rows]
        return np.bincount(self.cols, terms, minlength=self.shape[1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for coeffs, rows, cols in self.blocks:
            out[rows[:, :, None], cols[:, None, :]] = coeffs
        return out


@dataclass(frozen=True)
class CsfBasis:
    """Spin eigenfunctions spanned over a determinant space.

    ``K`` holds one row per configuration state function; ``K[p, n]`` is the
    Clebsch-Gordan coefficient of determinant ``n`` (a column index into
    ``space.onvs``) in CSF ``p``.  K is block-diagonal by spatial
    configuration, and its coefficients depend only on the open shells' spin
    pattern, so it is a ``CouplingMatrix`` with one block per open-shell
    count: coupling paths by spin patterns.  Rows from the genealogical
    construction are orthonormal (Pauncz, *Spin Eigenfunctions*, 1979), and
    every consumer relies on it: the CSF metric is the identity.  CSF
    weights ``c`` expand over the determinants as ``c @ K``.
    """

    s2: int
    K: CouplingMatrix
    space: FockSubspace

    @property
    def s(self) -> float:
        return self.s2 / 2.0

    @property
    def n_csfs(self) -> int:
        return self.K.shape[0]

    def overlap(self) -> np.ndarray:
        """Dense CSF overlap matrix sum_n K_pn K_qn, the identity to
        rounding; no computation needs it, and it is not cached."""
        return self.K @ self.K.toarray().T


def build_csf_basis(space: FockSubspace, s: float) -> CsfBasis:
    """Construct the genealogical spin-adapted basis with total spin s.

    Open-shell electrons are coupled one at a time in ascending spatial-orbital
    order; doubly occupied and empty orbitals spectate.  Interleaved spin
    orbitals keep each spatial orbital's creation operators adjacent, so the
    coupling coefficients carry no extra fermionic reordering signs.  The
    configurations come in the order of their first determinant, each one's
    CSFs in the lexicographic order of their paths, and each open-shell
    count's coefficients are computed once.
    """
    s2 = int(round(2 * s))
    if abs(2 * s - s2) > 1e-12 or s2 < 0:
        raise EmptyBasisError(f"total spin {s} is not a non-negative half-integer")
    if s2 < abs(space.ms2):
        raise EmptyBasisError(
            f"total spin {s} below the space's |Ms| = {abs(space.ms)}"
        )
    if (space.n_electrons - s2) % 2:
        raise EmptyBasisError(
            f"total spin {s} incompatible with {space.n_electrons} electrons"
        )

    occ = occupations(space).reshape(space.size, -1, 2)
    n_open = np.count_nonzero(occ[:, :, ALPHA] != occ[:, :, BETA], axis=1)
    # Each determinant's configuration, its spatial occupation numbers read
    # as one base-3 integer; a stable sort lists every configuration's
    # determinants together and in ascending order.
    config = occ.sum(axis=2) @ 3 ** np.arange(space.m // 2, dtype=np.int64)
    order = np.argsort(config, kind="stable")
    starts = np.flatnonzero(np.diff(config[order], prepend=-1))
    starts = starts[np.argsort(order[starts])]  # in order of first appearance
    kinds = n_open[order[starts]]

    paths = {k: genealogical_paths(k, s2) for k in set(kinds.tolist())}
    counts = np.array([len(paths[k]) for k in kinds.tolist()])
    row_starts = np.cumsum(counts) - counts
    blocks = []
    for k in sorted(paths):
        if not paths[k]:
            continue
        g = np.flatnonzero(kinds == k)
        dets = order[starts[g, None] + np.arange(math.comb(k, (k + space.ms2) // 2))]
        # Every configuration of the kind lists its spin patterns in one
        # order: within a configuration the ONVs ascend with the beta
        # occupation of the highest open shell where they differ.
        first = occ[dets[0]]
        shells = first[0, :, ALPHA] != first[0, :, BETA]
        patterns = np.where(first[:, shells, ALPHA], 1, -1).tolist()
        coeffs = np.array([[_coupling(p, mu2s) for mu2s in patterns] for p in paths[k]])
        rows = row_starts[g, None] + np.arange(len(paths[k]))
        blocks.append((coeffs, rows, dets))

    if not blocks:
        raise EmptyBasisError(
            f"no spin-{s} eigenfunction exists in this ({space.n_electrons} "
            f"electrons, Ms={space.ms}) space"
        )
    K = CouplingMatrix(blocks, (int(counts.sum()), space.size))
    return CsfBasis(s2=s2, K=K, space=space)


def _coupling(path: tuple[int, ...], mu2s: list[int]) -> float:
    """Genealogical coefficient of one spin pattern (+1 alpha, -1 beta per
    open shell, in ascending orbital order) in the CSF of one path."""
    coeff = 1.0
    s2_prev = 0
    m2 = 0
    for mu2, s2_next in zip(mu2s, path):
        m2 += mu2
        coeff *= _cg_add_half(s2_prev, m2, mu2, s2_next)
        s2_prev = s2_next
    return coeff or 0.0  # a zero product may carry a sign; store +0.0
