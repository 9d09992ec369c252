"""Correlator ansatze: tensor layout, vectorized amplitudes, site selection.

An amplitude is a product of small tensor factors, one per stored site pair
(and/or site triple); which entry of each factor participates is dictated by
the determinant's occupations at the tensor's sites.  Hybrid ansatze either
multiply a frozen pair product with an active triple product or add the two
products.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import CapacityError, DimensionError, FrozenTensorError
from .fock import MAX_SPIN_ORBITALS, FockSubspace, occupations

ANSATZ_KINDS = (
    "2s",
    "2s/si",
    "3s",
    "3s/si",
    "3s[2s]",
    "3s/si[2s]",
    "3s+[2s]",
    "3s/si+[2s]",
    "3s[2s]sel",
    "3s+[2s]sel",
)


@dataclass(frozen=True)
class AnsatzSpec:
    """Which correlators exist, which are frozen, and how factors combine.

    ``selected_sites`` lists the spin orbitals carrying triples in the
    restricted ("sel") variants.  Those default to self-interaction-inclusive
    triples over the selected sites; ``si_selected_triples=False`` switches to
    strictly increasing triples.
    """

    kind: str
    selected_sites: tuple[int, ...] | None = None
    si_selected_triples: bool = True

    def __post_init__(self):
        if self.kind not in ANSATZ_KINDS:
            raise DimensionError(
                f"unknown ansatz kind {self.kind!r}; choose from {ANSATZ_KINDS}"
            )
        if self.is_selected:
            if not self.selected_sites:
                raise DimensionError(
                    f"{self.kind} requires a nonempty selected_sites"
                )
            for site in self.selected_sites:
                integral = isinstance(site, (int, np.integer))
                if isinstance(site, bool) or not (integral and site >= 0):
                    raise DimensionError(
                        f"selected site {site!r} is not a non-negative integer"
                    )
            sites = tuple(sorted({int(site) for site in self.selected_sites}))
            object.__setattr__(self, "selected_sites", sites)
        elif self.selected_sites is not None:
            raise DimensionError(
                f"{self.kind} does not take selected_sites"
            )

    @property
    def is_selected(self) -> bool:
        return self.kind.endswith("sel")

    @property
    def is_hybrid(self) -> bool:
        return "[2s]" in self.kind

    @property
    def has_pairs(self) -> bool:
        return self.kind.startswith("2s") or self.is_hybrid

    @property
    def has_triples(self) -> bool:
        return self.kind.startswith("3s")

    @property
    def pairs_si(self) -> bool:
        """Pair tensors include the diagonal (i, i) entries."""
        return self.kind != "2s/si"

    @property
    def pairs_frozen(self) -> bool:
        return self.is_hybrid

    @property
    def triples_si(self) -> bool:
        if self.is_selected:
            return self.si_selected_triples
        return "/si" not in self.kind

    @property
    def combine_mode(self) -> str:
        """'product' for a single product, 'sum' for the additive hybrids."""
        return "sum" if "+[2s]" in self.kind else "product"

    @property
    def pair_stage(self) -> str | None:
        """Pair ansatz optimized before this one (None for the pair kinds):
        ``2s/si`` under ``3s/si``, else ``2s``, the pairs every hybrid
        freezes."""
        if not self.has_triples:
            return None
        return "2s/si" if self.kind == "3s/si" else "2s"

    def pair_keys(self, m: int) -> tuple[tuple[int, int], ...]:
        if not self.has_pairs:
            return ()
        if self.pairs_si:
            return tuple((i, j) for i in range(m) for j in range(i, m))
        return tuple((i, j) for i in range(m) for j in range(i + 1, m))

    def triple_keys(self, m: int) -> tuple[tuple[int, int, int], ...]:
        if not self.has_triples:
            return ()
        if self.is_selected:
            sites = self.selected_sites
            if max(sites) >= m:
                raise DimensionError(
                    f"selected site {max(sites)} outside 0..{m - 1}"
                )
        else:
            sites = tuple(range(m))
        if self.triples_si:
            return tuple(combinations_with_replacement(sites, 3))
        return tuple(combinations(sites, 3))

    def tensor_keys(self, m: int) -> tuple[tuple, tuple]:
        """(pair keys, triple keys) over m sites, for an ansatz with an
        active tensor: DimensionError when it stores no tensor, and
        FrozenTensorError when every tensor it stores is frozen."""
        pairs, triples = self.pair_keys(m), self.triple_keys(m)
        if not pairs and not triples:
            raise DimensionError("ansatz stores no tensors")
        if self.pairs_frozen and not triples:
            raise FrozenTensorError("every tensor of this ansatz is frozen")
        return pairs, triples


def param_count(
    spec: AnsatzSpec | str, m: int, n_selected: int | None = None
) -> int:
    """Number of active variational parameters of an ansatz over m sites:
    4 per pair tensor unless the pairs are frozen, 8 per triple tensor.

    A kind given by name with ``n_selected`` takes ``selected_sites``
    0..n_selected-1, which only the selected kinds accept.  An ansatz that
    ``AmplitudeEngine`` refuses (``AnsatzSpec.tensor_keys``) is refused here,
    and m above ``MAX_SPIN_ORBITALS`` raises CapacityError before any key
    is built.
    """
    if m < 2:
        raise DimensionError(f"need at least two sites, got m={m}")
    if m > MAX_SPIN_ORBITALS:
        raise CapacityError(f"m = {m} exceeds the {MAX_SPIN_ORBITALS}-site limit")
    if not isinstance(spec, AnsatzSpec):
        sites = None if n_selected is None else tuple(range(n_selected))
        spec = AnsatzSpec(spec, sites)
    pairs, triples = spec.tensor_keys(m)
    return 4 * (0 if spec.pairs_frozen else len(pairs)) + 8 * len(triples)


class AmplitudeEngine:
    """Vectorized amplitudes, environments, and sparse Jacobians over one space.

    The engine holds only structure (tensor keys, flat layout, and the
    entry-index table mapping every (tensor, determinant) cell to the flat
    parameter participating in it); all numeric state travels in the flat
    vector ``x``, the package's one parameter representation: the pair
    tensors in ``spec.pair_keys(m)`` order, then the triples, 4 and 8 entries
    each in C order.  The first ``n_frozen_tensors`` tensors are frozen;
    the rest, each addressed by its row in ``keys`` and ``entry_table``, are
    active: ``active_indices`` holds their entries, ``live_indices``
    (ascending) those that some determinant selects.  Only the engine knows
    how factors combine: the active entries live in the addend of tensor
    rows ``addend_start:``, after the frozen pairs of a sum hybrid
    (``pair_addend``) and from row 0 otherwise, and every derivative is a
    tensor's environment in that addend (``environments``), from which
    ``jacobian`` is built per call.  Factor tables are evaluated for the
    whole space at once, which subsumes caching per-determinant products
    within an energy evaluation.
    """

    def __init__(self, spec: AnsatzSpec, m: int, space: FockSubspace):
        if space.m != m:
            raise DimensionError(f"space has {space.m} sites, ansatz {m}")
        self.spec = spec
        self.m = m
        self.space = space
        self.pair_keys, self.triple_keys = spec.tensor_keys(m)
        self.keys = list(self.pair_keys) + list(self.triple_keys)
        self.sizes = [4] * len(self.pair_keys) + [8] * len(self.triple_keys)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))[:-1]
        self.n_params = int(sum(self.sizes))
        self.n_pair_rows = len(self.pair_keys)
        self.sum_mode = spec.combine_mode == "sum"
        self.addend_start = self.n_pair_rows if self.sum_mode else 0

        # Frozen tensors (a hybrid's pairs) lead the layout.
        self.n_frozen_tensors = self.n_pair_rows if spec.pairs_frozen else 0
        self.active_indices = np.arange(
            self.offsets[self.n_frozen_tensors], self.n_params
        )

        # entry_table[t, n] = flat index of the entry of tensor t picked by
        # determinant n's occupations, the first site the most significant:
        # t's offset plus the uint8 occupations of its sites, shifted.
        occ = np.ascontiguousarray(occupations(space).T).view(np.uint8)
        self.entry_table = np.repeat(self.offsets[:, None], space.size, axis=1)
        pairs, triples = np.split(self.entry_table, [self.n_pair_rows])
        for table, keys in ((pairs, self.pair_keys), (triples, self.triple_keys)):
            columns = list(zip(*keys))  # every key's first site, second, ...
            for shift, site in enumerate(columns[::-1]):
                table += occ[list(site)] << shift
        # np.unique would import numpy.ma on its first call (numpy 2.x).
        selected = self.entry_table[self.n_frozen_tensors :].ravel()
        counts = np.bincount(selected, minlength=self.n_params)
        self.live_indices = np.flatnonzero(counts)

    # -- flat-vector plumbing ----------------------------------------------

    def checked(self, x) -> np.ndarray:
        """``x`` as a float vector; DimensionError unless it has shape
        ``(n_params,)`` and only finite entries."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_params,) or not np.all(np.isfinite(x)):
            raise DimensionError(
                f"parameter vector of shape {x.shape} is not {self.n_params} "
                "finite entries"
            )
        return x

    def dumps(self, x: np.ndarray) -> str:
        """The ``correlators.json`` document of ``x``: every tensor's entries
        in C order under its comma-joined sites, and the frozen tensors."""
        names = [",".join(map(str, key)) for key in self.keys]
        tensors = {2: {}, 3: {}}
        for key, name, block in zip(self.keys, names, np.split(x, self.offsets[1:])):
            tensors[len(key)][name] = block.tolist()
        return json.dumps(
            {
                "format": "cgtns-correlator-set",
                "version": 1,
                "m": self.m,
                "pairs": tensors[2],
                "triples": tensors[3],
                "frozen": sorted(names[: self.n_frozen_tensors]),
            }
        )

    # -- evaluation ---------------------------------------------------------

    def pair_addend(self, x: np.ndarray) -> np.ndarray:
        """Product of the pair tensors' factors per determinant: a sum
        hybrid's frozen addend."""
        return np.prod(x[self.entry_table[: self.n_pair_rows]], axis=0)

    def amplitudes(self, x: np.ndarray) -> np.ndarray:
        """Product of the active addend's factors per determinant, plus the
        pair addend in sum mode."""
        active = np.prod(x[self.entry_table[self.addend_start :]], axis=0)
        return self.pair_addend(x) + active if self.sum_mode else active

    def environments(self, x: np.ndarray):
        """Yield (t, cofactor) per active tensor t in layout order: the
        product of every other factor of t's addend per determinant,
        d(amplitudes)/d(factor of tensor t), which DMRG calls the tensor's
        environment.  It is the left product (a product hybrid's frozen
        factors, then each active tensor's factors as the caller leaves
        them in ``x``) times the right product, from one in-place cumulative
        product (one T x n_det array); a caller may move tensor t's entries
        in ``x`` before it asks for the next tensor."""
        active_rows = self.entry_table[self.n_frozen_tensors :]
        frozen_rows = self.entry_table[self.addend_start : self.n_frozen_tensors]
        # right[i]: product of the factors of active tensor i and those after it.
        right = x[active_rows]
        np.cumprod(right[::-1], axis=0, out=right[::-1])
        left = np.prod(x[frozen_rows], axis=0)
        tensors = range(self.n_frozen_tensors, len(self.keys))
        for t, rows, right_t in zip(tensors, active_rows, [*right[1:], 1.0]):
            yield t, left * right_t
            left = left * x[rows]

    def jacobian(self, x: np.ndarray):
        """Sparse d(amplitudes)/d(active entries), a ``scipy.sparse``
        ``csr_matrix`` of shape (n_active, n_det): row e holds the
        environment of e's tensor at the determinants that select e, in
        ascending order.  Built per call from the stacked environments, as
        column n holds one entry of each active tensor.  Only the tests and
        the benchmark call it, so scipy is imported here, not with the
        package."""
        from scipy import sparse

        env = np.array([cofactor for _, cofactor in self.environments(x)])
        entries = self.entry_table[self.n_frozen_tensors :] - self.active_indices[0]
        by_det = sparse.csc_matrix(
            (env.T.ravel(), entries.T.ravel(), np.arange(0, env.size + 1, len(env))),
            shape=(len(self.active_indices), self.space.size),
        )
        return by_det.tocsr()

    def renormalized(self, x: np.ndarray) -> np.ndarray:
        """``x`` with its amplitudes pulled back toward unit scale, bit-exactly.

        Rescaling every addend by one factor rescales every amplitude, not
        the energy, so a long walk can drift toward float overflow or
        underflow.  A peak |amplitude| outside 2**±50 is scaled by 2**k,
        k = -floor(log2(peak)), spread over the T active tensors (the first
        k mod T take one power more), and in a sum hybrid over its frozen
        pairs too, so that its two addends keep their ratio.  ``np.ldexp``
        shifts only exponents, and it needs no float 2.0**q, which overflows
        for q > 1023 (one tensor under a subnormal peak).
        """
        peak = float(np.max(np.abs(self.amplitudes(x))))
        if not np.isfinite(peak) or peak == 0.0 or 2.0**-50 < peak < 2.0**50:
            return x
        k = -math.floor(math.log2(peak))
        exponents = np.zeros(len(self.keys), dtype=np.intp)
        for lo, hi in ((0, self.addend_start), (self.n_frozen_tensors, len(self.keys))):
            q, r = divmod(k, max(hi - lo, 1))
            exponents[lo:hi] = q + (np.arange(hi - lo) < r)
        return np.ldexp(x, np.repeat(exponents, self.sizes))


def select_sites(
    nat_occ, window: tuple[float, float] = (0.02, 1.98)
) -> tuple[int, ...]:
    """Spin orbitals of every spatial orbital whose occupation falls in window.

    Bounds are inclusive; both spin orbitals (2p, 2p+1) of a matching spatial
    orbital p are returned in ascending order.  An empty selection is allowed
    but warned about.
    """
    lo, hi = window
    if not lo < hi:
        raise DimensionError(f"window [{lo}, {hi}] is not increasing")
    occ = np.asarray(nat_occ, dtype=float)
    if np.any(occ < -1e-9) or np.any(occ > 2.0 + 1e-9):
        raise DimensionError("occupation numbers must lie in [0, 2]")
    sites = []
    for p, value in enumerate(occ):
        if lo <= value <= hi:
            sites.extend((2 * p, 2 * p + 1))
    if not sites:
        warnings.warn(
            f"no orbital occupation falls inside [{lo}, {hi}]; empty selection"
        )
    return tuple(sites)
