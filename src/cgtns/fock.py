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
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import sparse

from .errors import CapacityError, DimensionError, EmptyBasisError, EmptySpaceError

#: Hard cap on the number of spin orbitals in one space (bitstring width).
MAX_SPIN_ORBITALS = 64

ALPHA = 0
BETA = 1


def spin_orbital(spatial: int, spin: int) -> int:
    """Index of the alpha (spin=0) or beta (spin=1) partner of a spatial orbital."""
    return 2 * spatial + spin


def spatial_orbital(so: int) -> int:
    return so // 2


def is_alpha(so: int) -> bool:
    return so % 2 == 0


def annihilate(bits: int, so: int) -> tuple[int, int] | None:
    """Apply an annihilation operator; returns (new_bits, phase) or None."""
    mask = 1 << so
    if not bits & mask:
        return None
    phase = -1 if (bits & (mask - 1)).bit_count() & 1 else 1
    return bits ^ mask, phase


def create(bits: int, so: int) -> tuple[int, int] | None:
    """Apply a creation operator; returns (new_bits, phase) or None."""
    mask = 1 << so
    if bits & mask:
        return None
    phase = -1 if (bits & (mask - 1)).bit_count() & 1 else 1
    return bits | mask, phase


@dataclass(frozen=True)
class OccupationVector:
    """One Slater determinant as an occupation bitstring over m spin orbitals."""

    bits: int
    m: int

    def __post_init__(self):
        if self.m > MAX_SPIN_ORBITALS:
            raise CapacityError(
                f"{self.m} spin orbitals exceed the supported width "
                f"{MAX_SPIN_ORBITALS}"
            )
        if self.bits < 0 or self.bits >> self.m:
            raise DimensionError(
                f"bit pattern {self.bits:#x} does not fit in {self.m} spin orbitals"
            )

    @classmethod
    def from_string(cls, pattern: str) -> "OccupationVector":
        """Build from a left-to-right occupation string, e.g. '1001'."""
        bits = 0
        for i, ch in enumerate(pattern):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid occupation character {ch!r}")
        return cls(bits, len(pattern))

    @property
    def n_electrons(self) -> int:
        return self.bits.bit_count()

    @property
    def n_alpha(self) -> int:
        return sum((self.bits >> so) & 1 for so in range(0, self.m, 2))

    @property
    def n_beta(self) -> int:
        return sum((self.bits >> so) & 1 for so in range(1, self.m, 2))

    @property
    def ms(self) -> float:
        """Spin projection (N_alpha - N_beta)/2."""
        return (self.n_alpha - self.n_beta) / 2.0

    def occupied(self) -> tuple[int, ...]:
        return tuple(so for so in range(self.m) if (self.bits >> so) & 1)

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.m))


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
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {bits: i for i, bits in enumerate(self.onvs)}
        )

    @property
    def size(self) -> int:
        return len(self.onvs)

    @property
    def ms(self) -> float:
        return self.ms2 / 2.0

    def onv(self, i: int) -> OccupationVector:
        return OccupationVector(self.onvs[i], self.m)

    def index_of(self, bits: int) -> int:
        """Position of a bit pattern in the canonical ordering."""
        try:
            return self._index[bits]
        except KeyError:
            raise DimensionError(
                f"determinant {bits:#x} is not a member of this space"
            ) from None


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


def _spatial_occupations(bits: int, m_orb: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a determinant into (doubly occupied, singly occupied) spatial orbitals."""
    docc = []
    socc = []
    for p in range(m_orb):
        a = (bits >> spin_orbital(p, ALPHA)) & 1
        b = (bits >> spin_orbital(p, BETA)) & 1
        if a and b:
            docc.append(p)
        elif a or b:
            socc.append(p)
    return tuple(docc), tuple(socc)


@dataclass(frozen=True)
class CsfBasis:
    """Spin eigenfunctions spanned over a determinant space.

    ``K`` holds one row per configuration state function; ``K[p, n]`` is the
    Clebsch-Gordan coefficient of determinant ``n`` (a column index into
    ``space.onvs``) in CSF ``p``.  Rows from the genealogical construction
    are orthonormal, but consumers evaluate overlaps generically.
    """

    s2: int
    K: sparse.csr_matrix
    space: FockSubspace
    _overlap: list = field(default_factory=list, repr=False, compare=False)

    @property
    def s(self) -> float:
        return self.s2 / 2.0

    @property
    def n_csfs(self) -> int:
        return self.K.shape[0]

    def row(self, p: int) -> np.ndarray:
        """Dense determinant-expansion coefficients of CSF p."""
        return self.K.getrow(p).toarray().ravel()

    def dense(self) -> np.ndarray:
        return self.K.toarray()

    def overlap(self) -> np.ndarray:
        """CSF overlap matrix sum_n K_pn K_qn, evaluated generically and cached."""
        if not self._overlap:
            self._overlap.append((self.K @ self.K.T).toarray())
        return self._overlap[0]


def build_csf_basis(space: FockSubspace, s: float) -> CsfBasis:
    """Construct the genealogical spin-adapted basis with total spin s.

    Open-shell electrons are coupled one at a time in ascending spatial-orbital
    order; doubly occupied and empty orbitals spectate.  Interleaved spin
    orbitals keep each spatial orbital's creation operators adjacent, so the
    coupling coefficients carry no extra fermionic reordering signs.
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

    m_orb = space.m // 2
    groups: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for pos, bits in enumerate(space.onvs):
        key = _spatial_occupations(bits, m_orb)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(pos)

    rows, cols, vals = [], [], []
    path_cache: dict[int, list[tuple[int, ...]]] = {}
    n_rows = 0
    for key in order:
        docc, socc = key
        k = len(socc)
        if k not in path_cache:
            path_cache[k] = genealogical_paths(k, s2)
        paths = path_cache[k]
        if not paths:
            continue
        members = groups[key]
        # Alpha/beta pattern of each member determinant over the open shells.
        assignments = []
        for pos in members:
            bits = space.onvs[pos]
            mu2s = tuple(
                1 if (bits >> spin_orbital(p, ALPHA)) & 1 else -1 for p in socc
            )
            assignments.append((pos, mu2s))
        for path in paths:
            for pos, mu2s in assignments:
                coeff = 1.0
                s2_prev = 0
                m2 = 0
                for mu2, s2_next in zip(mu2s, path):
                    m2 += mu2
                    coeff *= _cg_add_half(s2_prev, m2, mu2, s2_next)
                    s2_prev = s2_next
                if coeff != 0.0:
                    rows.append(n_rows)
                    cols.append(pos)
                    vals.append(coeff)
            n_rows += 1

    if n_rows == 0:
        raise EmptyBasisError(
            f"no spin-{s} eigenfunction exists in this ({space.n_electrons} "
            f"electrons, Ms={space.ms}) space"
        )
    K = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_rows, space.size), dtype=float
    )
    return CsfBasis(s2=s2, K=K, space=space)


def s2_apply(space: FockSubspace, coeffs: np.ndarray) -> np.ndarray:
    """Apply the total-spin-squared operator to a determinant-basis vector.

    Uses S^2 = S- S+ + Sz (Sz + 1), with the ladder operators expanded over
    spatial orbitals and fermionic phases taken from the package convention.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.size,):
        raise DimensionError(
            f"coefficient vector has shape {coeffs.shape}, space size {space.size}"
        )
    m_orb = space.m // 2
    sz = space.ms2 / 2.0

    def ladder(vec_by_bits, from_spin, to_spin):
        out: dict[int, float] = {}
        for bits, c in vec_by_bits.items():
            if c == 0.0:
                continue
            for p in range(m_orb):
                step = annihilate(bits, spin_orbital(p, from_spin))
                if step is None:
                    continue
                t, ph1 = step
                step = create(t, spin_orbital(p, to_spin))
                if step is None:
                    continue
                t, ph2 = step
                out[t] = out.get(t, 0.0) + ph1 * ph2 * c
        return out

    start = {bits: c for bits, c in zip(space.onvs, coeffs) if c != 0.0}
    raised = ladder(start, BETA, ALPHA)     # S+
    lowered = ladder(raised, ALPHA, BETA)   # S-

    result = sz * (sz + 1.0) * coeffs
    for bits, c in lowered.items():
        result[space.index_of(bits)] += c
    return result
