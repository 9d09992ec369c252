"""Integral handling, determinant/CSF matrix elements, and the CI oracle.

Two-electron integrals are handled in chemists' notation (pq|rs) with the
8-fold permutational symmetry folded into a non-redundant triangular store.
Spatial orbitals are 0-based internally; FCIDUMP files are 1-based.

One kernel, ``_pair_elements``, applies the Slater-Condon rules to arrays
of determinant pairs of one excitation level in whole-array steps, adding
the integrals in the order of the per-pair loop kept as the test reference.
``slater_condon`` calls it on one pair.  A ``HamiltonianOperator`` calls it
once per pair for its tables over the alpha and beta strings (direct CI:
Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984); Olsen, Roos, Jorgensen
& Jensen, J. Chem. Phys. 89, 2185 (1988)).  ``sigma`` gives H v from them,
so the oracle, ``exact_diagonalize``, forms no H; ``matrix``, which
``csf_hamiltonian`` reads, scatters them into a dense array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConvergenceError, DimensionError, ParseError
from .fock import MAX_SPIN_ORBITALS, CsfBasis, FockSubspace, occupations

#: Default cap on the determinant dimension of the oracle.  The oracle forms
#: no H, but the cap and its exit status 3 stay as they were.
DENSE_LIMIT = 20_000


def _tri(p: int, q: int) -> int:
    if p < q:
        p, q = q, p
    return p * (p + 1) // 2 + q


def _tri_table(n: int) -> np.ndarray:
    """``_tri(p, q)`` for every ``p, q < n``, as an (n, n) integer array."""
    idx = np.arange(n)
    hi = np.maximum.outer(idx, idx)
    return hi * (hi + 1) // 2 + np.minimum.outer(idx, idx)


@dataclass
class IntegralSet:
    """One- and two-electron molecular-orbital integrals plus the core energy.

    ``g_flat`` stores one value per canonical quadruple: composite index
    ``_tri(_tri(p,q), _tri(r,s))`` with the larger pair index first, so all
    eight permutation partners share storage by construction.
    """

    m_orb: int
    h: np.ndarray
    g_flat: np.ndarray
    e_core: float = 0.0
    orb_irreps: tuple[int, ...] | None = None
    n_electrons: int | None = None
    ms2: int | None = None
    _g_dense: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.g_flat = np.asarray(self.g_flat, dtype=float)
        if self.h.shape != (self.m_orb, self.m_orb):
            raise DimensionError(
                f"one-electron array has shape {self.h.shape}, "
                f"expected {(self.m_orb, self.m_orb)}"
            )
        if not np.allclose(self.h, self.h.T, atol=1e-8):
            raise DimensionError("one-electron integrals are not index-symmetric")
        npair = self.m_orb * (self.m_orb + 1) // 2
        if self.g_flat.shape != (npair * (npair + 1) // 2,):
            raise DimensionError("two-electron store has the wrong length")

    @classmethod
    def zeros(cls, m_orb: int, e_core: float = 0.0, **kw) -> "IntegralSet":
        npair = m_orb * (m_orb + 1) // 2
        return cls(
            m_orb=m_orb,
            h=np.zeros((m_orb, m_orb)),
            g_flat=np.zeros(npair * (npair + 1) // 2),
            e_core=e_core,
            **kw,
        )

    @classmethod
    def from_dense(
        cls, h: np.ndarray, g: np.ndarray, e_core: float = 0.0, **kw
    ) -> "IntegralSet":
        """Build from a full (m,m,m,m) chemists'-notation array."""
        m = h.shape[0]
        # tril_indices walks (p >= q) pairs, then (pq >= rs) pair pairs, in
        # ascending _tri order: exactly the layout of g_flat.
        p, q = np.tril_indices(m)
        pq, rs = np.tril_indices(len(p))
        g_flat = np.asarray(g, dtype=float)[p[pq], q[pq], p[rs], q[rs]]
        return cls(m_orb=m, h=h, g_flat=g_flat, e_core=e_core, **kw)

    def g_dense(self) -> np.ndarray:
        """Full chemists' array with all eight permutation partners filled."""
        if not self._g_dense:
            m = self.m_orb
            pair = _tri_table(m)
            flat = _tri_table(m * (m + 1) // 2)[pair[:, :, None, None], pair]
            self._g_dense.append(self.g_flat[flat])
        return self._g_dense[0]


def parse_fcidump(path) -> IntegralSet:
    """Read an FCIDUMP-style text file into an IntegralSet.

    Indices (i j k l) classify each record: all zero is the core energy,
    k = l = 0 a one-electron integral h_ij, anything else a chemists'
    two-electron integral (ij|kl).  Fortran 'D' exponents are accepted.
    Symmetry-equivalent duplicates overwrite with last-wins and a warning;
    orbital-energy records (i > 0, j = k = l = 0) are ignored with a warning.
    A NORB above ``MAX_SPIN_ORBITALS // 2`` raises CapacityError before any
    integral store is sized.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path=str(path)) from exc

    lines = text.splitlines()
    norb = nelec = ms2 = None
    orbsym: list[int] = []
    header_done = False
    data_start = 0

    header_text = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        header_text.append(stripped)
        if stripped.endswith("&END") or stripped.endswith("/"):
            data_start = lineno
            header_done = True
            break
    if not header_done:
        raise ParseError("missing &END// header terminator", path=str(path))

    blob = " ".join(header_text)
    if not blob.lstrip().upper().startswith("&FCI"):
        raise ParseError("header does not start with &FCI", path=str(path), line=1)

    def grab(key):
        upper = blob.upper()
        pos = upper.find(key + "=")
        if pos < 0:
            return None
        tail = blob[pos + len(key) + 1 :]
        out = []
        for tok in tail.replace(",", " ").split():
            if "=" in tok or tok.upper() in ("&END", "/"):
                break
            out.append(tok)
        return out

    try:
        vals = grab("NORB")
        norb = int(vals[0]) if vals else None
        vals = grab("NELEC")
        nelec = int(vals[0]) if vals else None
        vals = grab("MS2")
        ms2 = int(vals[0]) if vals else None
        vals = grab("ORBSYM")
        orbsym = [int(v) for v in vals] if vals else []
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed header field: {exc}", path=str(path)) from exc
    if norb is None or norb < 1:
        raise ParseError("header lacks a valid NORB", path=str(path))
    if 2 * norb > MAX_SPIN_ORBITALS:
        raise CapacityError(
            f"NORB={norb} exceeds the {MAX_SPIN_ORBITALS // 2}-orbital limit"
        )
    if orbsym and len(orbsym) != norb:
        raise ParseError(
            f"ORBSYM lists {len(orbsym)} labels for NORB={norb}", path=str(path)
        )

    ints = IntegralSet.zeros(
        norb,
        orb_irreps=tuple(orbsym) if orbsym else None,
        n_electrons=nelec,
        ms2=ms2,
    )
    npair = norb * (norb + 1) // 2
    seen_g = np.zeros(npair * (npair + 1) // 2, dtype=bool)
    seen_h = np.zeros((norb, norb), dtype=bool)
    seen_core = False

    for lineno in range(data_start, len(lines)):
        raw = lines[lineno].strip()
        if not raw:
            continue
        tokens = raw.split()
        if len(tokens) != 5:
            raise ParseError(
                f"expected 'value i j k l', got {len(tokens)} tokens",
                path=str(path),
                line=lineno + 1,
            )
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise ParseError(
                f"non-numeric integral value {tokens[0]!r}",
                path=str(path),
                line=lineno + 1,
            ) from None
        try:
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(
                "non-integer orbital index", path=str(path), line=lineno + 1
            ) from None
        if min(i, j, k, l) < 0 or max(i, j, k, l) > norb:
            raise ParseError(
                f"orbital index out of range 1..{norb} in ({i} {j} {k} {l})",
                path=str(path),
                line=lineno + 1,
            )
        if i == j == k == l == 0:
            if seen_core:
                warnings.warn(f"{path}:{lineno + 1}: duplicate core energy, last wins")
            ints.e_core = value
            seen_core = True
        elif k == 0 and l == 0:
            if j == 0:
                warnings.warn(
                    f"{path}:{lineno + 1}: orbital-energy record ignored"
                )
                continue
            if i == 0:
                raise ParseError(
                    "one-electron record with zero row index",
                    path=str(path),
                    line=lineno + 1,
                )
            if seen_h[i - 1, j - 1]:
                warnings.warn(
                    f"{path}:{lineno + 1}: duplicate h({i},{j}), last wins"
                )
            ints.h[i - 1, j - 1] = value
            ints.h[j - 1, i - 1] = value
            seen_h[i - 1, j - 1] = seen_h[j - 1, i - 1] = True
        else:
            if min(i, j, k, l) == 0:
                raise ParseError(
                    f"two-electron record with a zero index ({i} {j} {k} {l})",
                    path=str(path),
                    line=lineno + 1,
                )
            flat = _tri(_tri(i - 1, j - 1), _tri(k - 1, l - 1))
            if seen_g[flat]:
                warnings.warn(
                    f"{path}:{lineno + 1}: duplicate ({i}{j}|{k}{l}), last wins"
                )
            ints.g_flat[flat] = value
            seen_g[flat] = True
    ints._g_dense.clear()
    return ints


# ---------------------------------------------------------------------------
# Slater-Condon matrix elements
# ---------------------------------------------------------------------------


def slater_condon(bra: int, ket: int, ints: IntegralSet) -> float:
    """<bra|H|ket> between two determinants over the same integral set.

    Spin orbitals interleave alpha/beta; the diagonal includes the core
    energy.  Determinants of different electron count, or differing in more
    than two spin orbitals, give zero.
    """
    level = (bra ^ ket).bit_count() // 2
    if bra.bit_count() != ket.bit_count() or level > 2:
        return 0.0
    pair = np.array([bra, ket], dtype=np.uint64)
    return float(_pair_elements(ints, pair[:1], pair[1:], level)[0])


def _set_bits(bits: np.ndarray, count: int) -> np.ndarray:
    """(len(bits), count) ascending positions of the set bits of uint64 words."""
    positions = np.empty((len(bits), count), dtype=np.int64)
    for k in range(count):
        lowest = bits & (~bits + np.uint64(1))
        positions[:, k] = np.frexp(lowest.astype(float))[1] - 1  # exact: 2**k
        bits = bits ^ lowest
    return positions


def _pair_elements(
    ints: IntegralSet, bra: np.ndarray, ket: np.ndarray, level: int
) -> np.ndarray:
    """<bra|H|ket> for uint64 arrays of determinant pairs of one electron
    count, all ``level`` (0, 1 or 2) excitations apart.

    The Slater-Condon rules in whole-array steps: every element adds the
    integrals in the order of the per-pair loop, the ket's occupied spin
    orbitals ascending, and a term the loop skips is skipped through
    ``np.where``, never added as zero.  A single that flips a spin gives
    +0.0, applied after the phase as the loop returns it.
    """
    if not len(ket):
        return np.zeros(0)
    h, g = ints.h, ints.g_dense()
    if level < 2:  # the sums over the ket's occupied spin orbitals
        occ = _set_bits(ket, int(ket[0]).bit_count())
        orb, spin = occ >> 1, occ & 1
    if level == 0:
        val = np.full(len(ket), ints.e_core, dtype=float)
        for a in range(occ.shape[1]):
            P = orb[:, a]
            val = val + h[P, P]
            for b in range(a):
                Q = orb[:, b]
                val = val + g[P, P, Q, Q]
                val = np.where(spin[:, a] == spin[:, b], val - g[P, Q, Q, P], val)
        return val

    diff = bra ^ ket
    holes = _set_bits(diff & ket, level)
    parts = _set_bits(diff & bra, level)
    p, q = parts[:, 0], holes[:, 0]
    if level == 1:
        P, Q = p >> 1, q >> 1
        val = h[P, Q]
        # g[P, Q, R, R] and g[P, R, R, Q], each gathered by one flat index.
        m, flat = ints.m_orb, g.reshape(-1)
        pq_rr, p_rr_q = (P * m + Q) * m * m, P * m**3 + Q
        for r, R, sr in zip(occ.T, orb.T, spin.T):
            rr = R * (m + 1)
            val = np.where(r != q, val + flat[pq_rr + rr], val)
            val = np.where((r != q) & (sr == (p & 1)), val - flat[p_rr_q + rr * m], val)
    else:
        (q1, q2), (p1, p2) = holes.T, parts.T
        val = np.zeros(len(ket))
        direct = ((p1 & 1) == (q1 & 1)) & ((p2 & 1) == (q2 & 1))
        val = np.where(direct, val + g[p1 >> 1, q1 >> 1, p2 >> 1, q2 >> 1], val)
        exchange = ((p1 & 1) == (q2 & 1)) & ((p2 & 1) == (q1 & 1))
        val = np.where(exchange, val - g[p1 >> 1, q2 >> 1, p2 >> 1, q1 >> 1], val)

    # Phase of a+_{p1}..a+_{pk} a_{qk}..a_{q1} |ket>: annihilate the holes in
    # ascending order, then create the parts in descending order.  Each
    # operator passes the ket's set bits below it less the holes already
    # annihilated below it (the parts created before it lie above it).  Only
    # the parity counts, so the masked words are folded by XOR.
    passed = np.zeros_like(ket)
    for s in np.hstack([holes, parts]).T.astype(np.uint64):
        passed ^= ket & ((np.uint64(1) << s) - np.uint64(1))
    for shift in (32, 16, 8, 4, 2, 1):
        passed ^= passed >> np.uint64(shift)
    parity = (passed & np.uint64(1)).astype(np.int64) + level * (level - 1) // 2
    parity += (holes[:, None, :] < parts[:, :, None]).sum((1, 2))
    val = np.where(parity & 1, -val, val)
    if level == 1:
        val = np.where((p & 1) == (q & 1), val, 0.0)
    return val


#: Entries of a connection table per block while the product tables are
#: built (about half of a block's pairs go to one ``_pair_elements`` call),
#: and entries of the dense matrix per block of rows it is scattered in.
_BLOCK_ENTRIES = 1 << 13


def _connection_elements(
    ints: IntegralSet, words: np.ndarray, partner: np.ndarray, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Elements of a symmetric connection table over ``words``.

    ``partner`` (N, k) lists, for each word, the words ``level`` excitations
    away (-1 for none).  Returns ``partner`` with each row sorted in place and
    the elements ``_pair_elements`` gives each pair: evaluated once per pair,
    with the bra at the higher index, as the per-pair loop fills the lower
    triangle, and reused for the other orientation.  The rows are taken in blocks
    of about ``_BLOCK_ENTRIES`` entries, so the only full-size arrays are
    the two returned.
    """
    partner.sort(axis=1)
    values = np.zeros(partner.shape)
    if not partner.size:
        return partner, values
    step = _BLOCK_ENTRIES // partner.shape[1]
    for r0 in range(0, len(partner), step):
        block, out = partner[r0 : r0 + step], values[r0 : r0 + step]
        row = np.broadcast_to(np.arange(r0, r0 + len(block))[:, None], block.shape)
        up = block > row
        out[up] = _pair_elements(ints, words[block[up]], words[row[up]], level)
        # The other orientation's value is in the lower partner's row, done
        # already, at the slot that holds this row.
        down = (block >= 0) & (block < row)
        lower, this = block[down], row[down]
        out[down] = values[lower, (partner[lower] == this[:, None]).argmax(1)]
    return partner, values


def _spin_strings(ints: IntegralSet, n: int, spin: int):
    """Every string of ``n`` electrons of one spin, with its excitations.

    Returns the strings as ascending ONV words (alpha on even bits, beta on
    odd bits); the single excitations a+_p a_q (p != q) into each string,
    as (N, n (m - n)) arrays of the source string's index, the pair index
    p m + q and the sign <T|a+_p a_q|S>, -1 to the number of orbitals
    occupied between p and q; and the same-spin doubles into each string,
    as ``_connection_elements`` of the string pairs: (0 + g_direct) -
    g_exchange times the string's sign.
    """
    m = ints.m_orb
    combos = list(combinations(range(m), n))
    occ = np.array(combos, dtype=np.int64).reshape(len(combos), n)
    bit = lambda orb: np.uint64(1) << (2 * orb + spin).astype(np.uint64)
    words = bit(occ).sum(1, dtype=np.uint64)
    order = np.argsort(words)
    words, occ = words[order], occ[order]
    empty = np.ones((len(occ), m), dtype=bool)
    empty[np.arange(len(occ))[:, None], occ] = False
    virt = np.nonzero(empty)[1].reshape(len(occ), m - n)

    p, q = np.broadcast_arrays(occ[:, :, None], virt[:, None, :])
    p, q = p.reshape(len(occ), -1), q.reshape(len(occ), -1)
    source = np.searchsorted(words, words[:, None] - bit(p) + bit(q))
    lo, hi = np.minimum(p, q)[..., None], np.maximum(p, q)[..., None]
    between = ((occ[:, None, :] > lo) & (occ[:, None, :] < hi)).sum(-1)
    singles = source, p * m + q, 1.0 - 2.0 * (between & 1)

    a1, a2 = np.triu_indices(n, 1)
    b1, b2 = np.triu_indices(m - n, 1)
    emptied = words[:, None] - bit(occ[:, a1]) - bit(occ[:, a2])
    filled = bit(virt[:, b1]) + bit(virt[:, b2])
    source = np.searchsorted(words, emptied[:, :, None] + filled[:, None, :])
    doubles = _connection_elements(ints, words, source.reshape(len(words), -1), 2)
    return words, singles, doubles


class _ProductTables:
    """The tables of the matrix-free product sigma = H v over one space.

    Every determinant sits on the grid of alpha strings x beta strings; a
    space that is not the whole grid leaves zeros at the other points.  A
    determinant is s(D) times the product of its alpha string, then its beta
    string, where s(D) is (-1) to the sum, over its occupied alpha orbitals
    p, of the occupied beta orbitals below p.  H splits into three parts:

    * the diagonal, ``_pair_elements(..., 0)`` of each determinant;
    * the singles, a fixed number per determinant, evaluated once per pair
      with the bra at the higher space index and reused for the other
      orientation (a single sums over the ket's occupied orbitals, so the
      other orientation can round differently); a partner outside the space
      points at a zero slot past the end of v;
    * the doubles on the grid: the same-spin ones from per-string lists,
      the opposite-spin ones as the integral g[p q r s] times the two
      strings' excitation signs, contracted one beta string at a time.

    Every element is the kernel's value for its pair, except that a double
    whose integrals cancel or vanish may be a zero of the other sign;
    ``matrix`` evaluates those again.
    """

    def __init__(self, ints: IntegralSet, space: FockSubspace):
        m_orb = ints.m_orb
        n_alpha = (space.n_electrons + space.ms2) // 2
        self.onvs = np.array(space.onvs, dtype=np.uint64)
        a_words, (a_src, a_pair, self.a_sign), (self.aa_src, self.aa_val) = (
            _spin_strings(ints, n_alpha, 0)
        )
        b_words, (b_src, b_pair, b_sign), (self.bb_src, self.bb_val) = (
            _spin_strings(ints, space.n_electrons - n_alpha, 1)
        )
        self.shape = (len(a_words), len(b_words))
        ia = np.searchsorted(a_words, self.onvs & np.uint64(0x5555555555555555))
        ib = np.searchsorted(b_words, self.onvs & np.uint64(0xAAAAAAAAAAAAAAAA))
        self.pos = ia * len(b_words) + ib

        occupied = occupations(space)
        alpha, beta = occupied[:, 0::2], occupied[:, 1::2].astype(np.int64)
        beta_below = np.cumsum(beta, axis=1) - beta
        self.phase = 1.0 - 2.0 * ((alpha * beta_below).sum(1) & 1)

        self.diagonal = _pair_elements(ints, self.onvs, self.onvs, 0)
        grid = np.full(self.shape, -1, dtype=np.int64)
        grid.flat[self.pos] = np.arange(space.size)
        partner = np.hstack([grid[a_src[ia], ib[:, None]], grid[ia[:, None], b_src[ib]]])
        partner, self.single_val = _connection_elements(ints, self.onvs, partner, 1)
        partner[partner < 0] = space.size
        self.single_idx = partner

        # Opposite spin: g[pq, rs] for each beta string's excitations r <- s,
        # (N_beta, m^2, n_s); the alpha side gathers column pq N_alpha + I.
        g = ints.g_dense().reshape(m_orb * m_orb, m_orb * m_orb)
        self.g_beta = np.ascontiguousarray(g[:, b_pair].transpose(1, 0, 2))
        self.b_src, self.b_sign = b_src, b_sign[:, :, None]
        self.a_col = a_pair * len(a_words) + a_src

    def sigma(self, v: np.ndarray) -> np.ndarray:
        n_alpha, n_beta = self.shape
        x = np.zeros(n_alpha * n_beta, dtype=v.dtype)
        x[self.pos] = self.phase * v
        x = x.reshape(self.shape)
        y = np.einsum("ak,akb->ab", self.aa_val, x[self.aa_src])
        y += np.einsum("bk,abk->ab", self.bb_val, x[:, self.bb_src])
        # One small product per beta string: (m^2, n_s) @ (n_s, N_alpha).
        e = (self.g_beta @ (self.b_sign * x.T[self.b_src])).reshape(n_beta, -1)
        y += np.einsum("ak,bak->ab", self.a_sign, e[:, self.a_col])
        padded = np.concatenate([v, np.zeros(1, dtype=v.dtype)])
        singles = np.einsum("jk,jk->j", self.single_val, padded[self.single_idx])
        return self.phase * y.ravel()[self.pos] + self.diagonal * v + singles

    def matrix(self, ints: IntegralSet) -> np.ndarray:
        """The dense H of these tables, scattered a block of rows at a time
        into a flat array whose last slot takes every absent partner.  A
        double is its table value times both phases; one whose value is an
        exact zero is evaluated again by ``_pair_elements``, with the bra
        at the higher index, to keep the kernel's sign of zero."""
        n = len(self.onvs)
        n_alpha, n_beta = self.shape
        grid = np.full(self.shape, n)
        grid.flat[self.pos] = np.arange(n)
        a_pair, a_src = np.divmod(self.a_col, n_alpha)
        phase = np.append(self.phase, 1.0)
        flat = np.zeros(n * n + 1)
        flat[: n * n : n + 1] = self.diagonal
        step = max(1, _BLOCK_ENTRIES // (self.a_col.shape[1] * self.b_src.shape[1] + 1))
        for r0 in range(0, n, step):
            row = np.arange(r0, min(r0 + step, n))[:, None]
            ia, ib = np.divmod(self.pos[row[:, 0]], n_beta)
            opposite = self.a_sign[ia][:, :, None] * self.g_beta[ib[:, None], a_pair[ia]]
            opposite *= self.b_sign[ib].transpose(0, 2, 1)
            cols = np.hstack([
                grid[self.aa_src[ia], ib[:, None]],
                grid[ia[:, None], self.bb_src[ib]],
                grid[a_src[ia][:, :, None], self.b_src[ib][:, None, :]].reshape(len(row), -1),
            ])
            vals = np.hstack([self.aa_val[ia], self.bb_val[ib], opposite.reshape(len(row), -1)])
            vals *= phase[row] * phase[cols]
            zero = (vals == 0.0) & (cols < n)
            hi, lo = np.maximum(row, cols)[zero], np.minimum(row, cols)[zero]
            vals[zero] = _pair_elements(ints, self.onvs[hi], self.onvs[lo], 2)
            cols = np.hstack([self.single_idx[row[:, 0]], cols])
            vals = np.hstack([self.single_val[row[:, 0]], vals])
            flat[np.where(cols < n, row * n + cols, n * n)] = vals
        return flat[: n * n].reshape(n, n)


@dataclass
class HamiltonianOperator:
    """Hamiltonian restricted to one determinant space: tables built once,
    and from them a matrix-free product and, on request, the dense matrix."""

    integrals: IntegralSet
    space: FockSubspace
    _matrix: list = field(default_factory=list, repr=False)
    _tables: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if 2 * self.integrals.m_orb != self.space.m:
            raise DimensionError(
                f"integral set covers {self.integrals.m_orb} spatial orbitals, "
                f"space uses {self.space.m} spin orbitals"
            )

    @property
    def dim(self) -> int:
        return self.space.size

    def matrix(self) -> np.ndarray:
        """Dense symmetric determinant-basis matrix, scattered once from
        the product tables; each element has ``slater_condon``'s bits."""
        if not self._matrix:
            self._matrix.append(self._product_tables().matrix(self.integrals))
        return self._matrix[0]

    def _product_tables(self) -> _ProductTables:
        if not self._tables:
            self._tables.append(_ProductTables(self.integrals, self.space))
        return self._tables[0]

    def sigma(self, v: np.ndarray) -> np.ndarray:
        """H v, without H: the sum of ``matrix()``'s elements times v, in
        v's dtype (float or ``np.longdouble``), in another order."""
        return self._product_tables().sigma(v)

    def diagonal(self) -> np.ndarray:
        """The bytes of ``matrix().diagonal()``, without the matrix."""
        return self._product_tables().diagonal


def csf_hamiltonian(basis: CsfBasis, ham: HamiltonianOperator) -> np.ndarray:
    """Dense CSF-basis matrix K H K^T, as K (K H)^T from two products of the
    sparse K with a dense matrix, block by block of K's configurations: no
    dense K^T is built, and each element adds its terms in ascending
    determinant order, so the bits do not depend on BLAS or its thread
    count.  H is ``ham.matrix()``, scattered from ``ham.sigma``'s tables."""
    K = basis.K
    return K @ (K @ ham.matrix()).T


def orbital_occupations(
    ham: HamiltonianOperator, coeffs: np.ndarray
) -> tuple[float, ...]:
    """Spin-summed occupation of each spatial orbital in a determinant state.

    Diagonal of the one-body density in the current orbital basis, one value
    in [0, 2] per spatial orbital, aligned with the orbital ordering so it
    feeds the correlator selection window directly.  When the integrals are
    expressed in natural orbitals these are the natural occupation numbers.
    """
    space = ham.space
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.size,):
        raise DimensionError("coefficient vector does not match the space")
    occupied = occupations(space)
    n_p = occupied.reshape(space.size, -1, 2).sum(axis=2)
    # cumsum adds the determinants left to right, as a loop over them does;
    # its zero terms add +0.0 to a non-negative sum, which changes no bit.
    occ = np.cumsum(n_p * (coeffs * coeffs)[:, None], axis=0)[-1]
    return tuple(float(v) for v in occ)


#: Davidson's relative residual bound (see ``lowest_eigenpair``); on the H8
#: chain the residual's rounding floor is about 1e-15 |theta|.
_RESIDUAL_TOL = 1e-12
#: Rows of the Davidson basis: every Rayleigh-Ritz ``eigh`` has at most this
#: order, below which LAPACK's ``dsyevd`` stays with its QR path.
_BASIS_MAX = 25
#: Ritz vectors a full Davidson basis restarts from.
_RITZ_KEPT = 4
#: Products with A after which an unconverged Davidson solve gives up.
_MAX_PRODUCTS = 1000


def lowest_eigenpair(apply_a, diag_a):
    """Lowest eigenpair (theta, x) of the symmetric matrix A by Davidson's
    method (J. Comput. Phys. 17, 87 (1975)), with thick restarts (Stathopoulos,
    Saad & Wu, SIAM J. Sci. Comput. 19, 227 (1998)).

    Only products with A and its diagonal are used.  The basis is
    orthonormal, each new vector orthogonalized twice, so every
    Rayleigh-Ritz step is a small ``eigh``.  The start vector is the unit
    vector of the lowest diag(A) plus a fixed quasi-random vector with
    entries in [-0.05, 0.05): a unit vector alone may lie in one symmetry
    sector of A (a closed-shell determinant has no triplet part), and the
    solve would then never leave it.  The basis grows by the residual
    divided by diag(A) - theta, or by the residual itself when that
    correction lies in the basis.  It holds at most ``_BASIS_MAX`` vectors
    and their products, allocated once: when it is full, it restarts from
    its ``_RITZ_KEPT`` lowest Ritz vectors, V <- Y^T V and AV <- Y^T AV.
    The solve stops once the residual norm is at most ``_RESIDUAL_TOL``
    times the larger of |theta| and the largest |diag(A)|, or once the
    basis spans the space, where the pair is exact; a space of at most
    ``_BASIS_MAX`` dimensions never restarts.  The scale follows the
    residual's rounding floor: a large core energy cannot push the bound
    below it, nor an energy near zero.  After ``_MAX_PRODUCTS`` products
    without either, it raises ``ConvergenceError``.  x comes out with unit
    norm to rounding.
    """
    n = len(diag_a)
    scale = np.max(np.abs(diag_a))
    rows = min(n, _BASIS_MAX)
    V, AV = np.empty((rows, n)), np.empty((rows, n))
    G = np.empty((rows, rows))  # V A V^T
    t = 0.1 * (np.modf(np.arange(1, n + 1) * 0.6180339887498949)[0] - 0.5)
    t[np.argmin(diag_a)] += 1.0
    residual = None
    k = 0  # vectors in the basis
    for _ in range(_MAX_PRODUCTS):
        if k == rows:  # full: restart from the lowest Ritz vectors
            k = _RITZ_KEPT
            V[:k], AV[:k] = ys[:, :k].T @ V, ys[:, :k].T @ AV
            G[:k, :k] = V[:k] @ AV[:k].T
        for u in (t, residual):
            size = np.linalg.norm(u)
            for _ in range(2):
                u = u - (V[:k] @ u) @ V[:k]
            if np.linalg.norm(u) > 1e-8 * size:
                break
        V[k] = u / np.sqrt(u @ u)
        AV[k] = apply_a(V[k])
        G[k, : k + 1] = G[: k + 1, k] = V[: k + 1] @ AV[k]
        k += 1
        thetas, ys = np.linalg.eigh(G[:k, :k])
        theta, y = thetas[0], ys[:, 0]
        x = y @ V[:k]
        residual = y @ AV[:k] - theta * x
        bound = _RESIDUAL_TOL * max(abs(theta), scale)
        if np.linalg.norm(residual) <= bound or k == n:
            return float(theta), x
        denom = diag_a - theta
        t = residual / np.where(np.abs(denom) > 1e-8, denom, 1e-8)
    raise ConvergenceError(
        f"Davidson solve of order {n} unconverged after {_MAX_PRODUCTS} "
        f"products: residual norm {np.linalg.norm(residual):.3e}, bound {bound:.3e}"
    )


def fix_sign(v: np.ndarray) -> np.ndarray:
    """``v``, negated when its entry of largest magnitude is negative: the
    sign of an eigenvector is arbitrary and differs between solvers."""
    return -v if v[np.argmax(np.abs(v))] < 0 else v


def exact_diagonalize(
    ham: HamiltonianOperator,
    basis: CsfBasis | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H, in the determinant or a CSF basis.

    Both bases call ``lowest_eigenpair``, so H enters only through
    ``ham.sigma`` and ``ham.diagonal``; no dense H is formed.  The
    genealogical CSFs are orthonormal, so the CSF path is a standard
    problem too, through the sparse K: A u = K (H (u K)), with u K one sum
    over K's own nonzeros, and K H K^T is not formed.  Its preconditioner
    is diag(K diag(H) K^T), each CSF's determinant diagonals weighted by
    its squared coefficients: Davidson's diagonal only shapes the
    correction vectors, so the energy depends on it only within the
    residual bound.
    On the 1568-determinant H8 chain at 1.75 bohr (1008 doublet CSFs) the
    determinant solve takes 79 products, the CSF solve 76.  The energy is
    the Rayleigh quotient w.(H w) / w.w of the eigenvector w in the
    determinant basis, with ``ham.sigma`` and both dot products in
    extended precision (64-bit mantissas on x86-64), rounded once to a
    float.  The quotient is stationary at an eigenvector, so problems that
    differ only in the order of their rows, whose float products round
    differently, give the same float.
    The returned eigenvector has unit norm, with a deterministic overall
    sign.  ``dense_limit`` caps the determinant count as before: above it,
    ``CapacityError``.
    """
    if ham.dim > dense_limit:
        raise CapacityError(
            f"{ham.dim} determinants exceed the oracle's limit "
            f"{dense_limit}; shrink the space or raise the limit explicitly"
        )
    if basis is None:
        _, vec = lowest_eigenpair(ham.sigma, ham.diagonal())
    else:
        K = basis.K
        weighted = K.data * K.data * ham.diagonal()[K.cols]
        diag = np.bincount(K.rows, weighted, minlength=K.shape[0])
        _, vec = lowest_eigenpair(lambda u: K @ ham.sigma(u @ K), diag)
    w = (vec if basis is None else vec @ basis.K).astype(np.longdouble)
    e0 = float(w @ ham.sigma(w) / (w @ w))
    return e0, fix_sign(vec)
