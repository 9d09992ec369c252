"""Correlator ansatze: tensors, vectorized amplitudes, and site selection.

An amplitude is a product of small tensor factors, one per stored site pair
(and/or site triple); which entry of each factor participates is dictated by
the determinant's occupations at the tensor's sites.  Hybrid ansatze either
multiply a frozen pair product with an active triple product or add the two
products.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy import sparse

from .errors import DimensionError, FrozenTensorError
from .fock import CsfBasis, FockSubspace

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
            sites = tuple(sorted(set(self.selected_sites)))
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


def param_count(
    spec: AnsatzSpec | str, m: int, q: int = 2, n_selected: int | None = None
) -> int:
    """Number of active variational parameters of an ansatz over m sites.

    Hybrids count only the active triple entries (the frozen pair tensors are
    not variational).  ``q`` is the local dimension; entries scale as q**2 per
    pair and q**3 per triple.
    """
    if m < 2:
        raise DimensionError(f"need at least two sites, got m={m}")
    kind = spec.kind if isinstance(spec, AnsatzSpec) else spec
    if kind not in ANSATZ_KINDS:
        raise DimensionError(f"unknown ansatz kind {kind!r}")
    if kind == "2s":
        return m * (m + 1) // 2 * q**2
    if kind == "2s/si":
        return m * (m - 1) // 2 * q**2
    if kind.endswith("sel"):
        if isinstance(spec, AnsatzSpec) and spec.selected_sites:
            t = len(spec.selected_sites)
            si = spec.si_selected_triples
        elif n_selected is not None:
            t = n_selected
            si = True
        else:
            raise DimensionError(
                "selected ansatz needs selected_sites or n_selected"
            )
        if si:
            return t * (t + 1) * (t + 2) // 6 * q**3
        return t * (t - 1) * (t - 2) // 6 * q**3
    # Pure and hybrid full-triple ansatze.
    if "/si" in kind:
        return m * (m - 1) * (m - 2) // 6 * q**3
    return m * (m + 1) * (m + 2) // 6 * q**3


@dataclass
class CorrelatorSet:
    """The variational parameters: one small tensor per stored site tuple."""

    m: int
    pairs: dict[tuple[int, int], np.ndarray]
    triples: dict[tuple[int, int, int], np.ndarray]
    frozen: frozenset = frozenset()

    @classmethod
    def identity(cls, spec: AnsatzSpec, m: int) -> "CorrelatorSet":
        """All tensor entries equal to one; hybrid pair tensors come frozen."""
        pairs = {k: np.ones((2, 2)) for k in spec.pair_keys(m)}
        triples = {k: np.ones((2, 2, 2)) for k in spec.triple_keys(m)}
        frozen = frozenset(pairs) if spec.pairs_frozen else frozenset()
        return cls(m=m, pairs=pairs, triples=triples, frozen=frozen)

    @classmethod
    def hybrid_from_pairs(
        cls, spec: AnsatzSpec, pair_source: "CorrelatorSet"
    ) -> "CorrelatorSet":
        """Freeze a converged pair set inside a hybrid ansatz, identity triples."""
        if not spec.is_hybrid:
            raise DimensionError(f"{spec.kind} is not a hybrid ansatz")
        m = pair_source.m
        expected = spec.pair_keys(m)
        if tuple(sorted(pair_source.pairs)) != expected:
            raise DimensionError(
                "pair source does not carry the full self-interaction-"
                "inclusive pair set the hybrid freezes"
            )
        pairs = {k: v.copy() for k, v in pair_source.pairs.items()}
        triples = {k: np.ones((2, 2, 2)) for k in spec.triple_keys(m)}
        return cls(m=m, pairs=pairs, triples=triples, frozen=frozenset(pairs))

    def validate(self, spec: AnsatzSpec) -> None:
        """Check the stored keys exactly match the ansatz definition."""
        if tuple(sorted(self.pairs)) != spec.pair_keys(self.m):
            raise DimensionError("pair tensor keys do not match the ansatz")
        if tuple(sorted(self.triples)) != spec.triple_keys(self.m):
            raise DimensionError("triple tensor keys do not match the ansatz")
        for k, t in self.pairs.items():
            if t.shape != (2, 2) or not np.all(np.isfinite(t)):
                raise DimensionError(f"pair tensor {k} malformed or non-finite")
        for k, t in self.triples.items():
            if t.shape != (2, 2, 2) or not np.all(np.isfinite(t)):
                raise DimensionError(f"triple tensor {k} malformed or non-finite")
        if spec.pairs_frozen and self.frozen != frozenset(self.pairs):
            raise DimensionError("hybrid ansatz requires all pair tensors frozen")

    def copy(self) -> "CorrelatorSet":
        return CorrelatorSet(
            m=self.m,
            pairs={k: v.copy() for k, v in self.pairs.items()},
            triples={k: v.copy() for k, v in self.triples.items()},
            frozen=self.frozen,
        )

    def tensor(self, key) -> np.ndarray:
        if len(key) == 2:
            return self.pairs[key]
        return self.triples[key]

    @property
    def n_parameters(self) -> int:
        return 4 * len(self.pairs) + 8 * len(self.triples)

    @property
    def n_active_parameters(self) -> int:
        n = sum(4 for k in self.pairs if k not in self.frozen)
        n += sum(8 for k in self.triples if k not in self.frozen)
        return n

    # -- checkpoint serialization ------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "format": "cgtns-correlator-set",
            "version": 1,
            "m": self.m,
            "pairs": {
                ",".join(map(str, k)): v.ravel().tolist()
                for k, v in self.pairs.items()
            },
            "triples": {
                ",".join(map(str, k)): v.ravel().tolist()
                for k, v in self.triples.items()
            },
            "frozen": sorted(",".join(map(str, k)) for k in self.frozen),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CorrelatorSet":
        if obj.get("format") != "cgtns-correlator-set" or obj.get("version") != 1:
            raise DimensionError("unrecognized correlator-set document")

        def parse_key(s):
            return tuple(int(t) for t in s.split(","))

        pairs = {
            parse_key(k): np.asarray(v, dtype=float).reshape(2, 2)
            for k, v in obj["pairs"].items()
        }
        triples = {
            parse_key(k): np.asarray(v, dtype=float).reshape(2, 2, 2)
            for k, v in obj["triples"].items()
        }
        frozen = frozenset(parse_key(k) for k in obj.get("frozen", ()))
        return cls(m=obj["m"], pairs=pairs, triples=triples, frozen=frozen)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, text: str) -> "CorrelatorSet":
        return cls.from_json_obj(json.loads(text))


class AmplitudeEngine:
    """Vectorized amplitudes, cofactors, and sparse Jacobians over one space.

    The engine holds only structure (tensor keys, flat layout, and the
    entry-index table mapping every (tensor, determinant) cell to the flat
    parameter participating in it); all numeric state travels in the flat
    vector ``x``.  Factor tables are evaluated for the whole space at once,
    which subsumes caching per-determinant products within an energy
    evaluation.
    """

    def __init__(self, spec: AnsatzSpec, m: int, space: FockSubspace):
        if space.m != m:
            raise DimensionError(f"space has {space.m} sites, ansatz {m}")
        self.spec = spec
        self.m = m
        self.space = space
        self.pair_keys = spec.pair_keys(m)
        self.triple_keys = spec.triple_keys(m)
        self.keys = list(self.pair_keys) + list(self.triple_keys)
        if not self.keys:
            raise DimensionError("ansatz stores no tensors")
        self.sizes = [4] * len(self.pair_keys) + [8] * len(self.triple_keys)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))[:-1]
        self.n_params = int(sum(self.sizes))
        self.n_pair_rows = len(self.pair_keys)
        self.sum_mode = bool(
            spec.combine_mode == "sum" and self.pair_keys and self.triple_keys
        )

        frozen_keys = frozenset(self.pair_keys) if spec.pairs_frozen else frozenset()
        active = np.ones(self.n_params, dtype=bool)
        for t, key in enumerate(self.keys):
            if key in frozen_keys:
                active[self.offsets[t] : self.offsets[t] + self.sizes[t]] = False
        self.active_mask = active
        self.active_indices = np.flatnonzero(active)

        # entry_table[t, n] = flat index of the entry of tensor t picked by
        # determinant n's occupations.
        n_det = space.size
        table = np.empty((len(self.keys), n_det), dtype=np.int64)
        occ = np.empty((m, n_det), dtype=np.int64)
        for n, bits in enumerate(space.onvs):
            for site in range(m):
                occ[site, n] = (bits >> site) & 1
        for t, key in enumerate(self.keys):
            if len(key) == 2:
                i, j = key
                local = 2 * occ[i] + occ[j]
            else:
                i, j, k = key
                local = 4 * occ[i] + 2 * occ[j] + occ[k]
            table[t] = self.offsets[t] + local
        self.entry_table = table

        # Sparse-Jacobian structure: row e (active entry), columns = the
        # determinants whose occupations select that entry.
        cols = []
        indptr = [0]
        self.entry_cells = []  # (tensor row, determinant columns) per active entry
        for e in self.active_indices:
            t = int(np.searchsorted(self.offsets, e, side="right") - 1)
            dets = np.flatnonzero(table[t] == e)
            cols.append(dets)
            self.entry_cells.append((t, dets))
            indptr.append(indptr[-1] + len(dets))
        self._jac_indices = (
            np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
        )
        self._jac_indptr = np.asarray(indptr, dtype=np.int64)

    # -- flat-vector plumbing ----------------------------------------------

    def flatten(self, params: CorrelatorSet) -> np.ndarray:
        params.validate(self.spec)
        if params.m != self.m:
            raise DimensionError("correlator set and engine site counts differ")
        x = np.empty(self.n_params)
        for t, key in enumerate(self.keys):
            x[self.offsets[t] : self.offsets[t] + self.sizes[t]] = params.tensor(
                key
            ).ravel()
        return x

    def unflatten(self, x: np.ndarray) -> CorrelatorSet:
        pairs = {}
        triples = {}
        for t, key in enumerate(self.keys):
            block = np.asarray(
                x[self.offsets[t] : self.offsets[t] + self.sizes[t]], dtype=float
            )
            if len(key) == 2:
                pairs[key] = block.reshape(2, 2).copy()
            else:
                triples[key] = block.reshape(2, 2, 2).copy()
        frozen = frozenset(pairs) if self.spec.pairs_frozen else frozenset()
        return CorrelatorSet(m=self.m, pairs=pairs, triples=triples, frozen=frozen)

    def active_rows(self, key) -> slice:
        """Gradient rows (positions in ``active_indices``) of tensor ``key``.

        A tensor is active or frozen as a whole, so its rows form one
        contiguous block in the tensor's element order.
        """
        if key not in self.keys:
            raise DimensionError(f"no tensor {key} in this ansatz")
        t = self.keys.index(key)
        if not self.active_mask[self.offsets[t]]:
            raise FrozenTensorError(f"tensor {key} is frozen")
        start = int(np.count_nonzero(self.active_mask[: self.offsets[t]]))
        return slice(start, start + self.sizes[t])

    # -- evaluation ---------------------------------------------------------

    def factors(self, x: np.ndarray) -> np.ndarray:
        """Factor table f[t, n] = participating entry of tensor t for det n."""
        return x[self.entry_table]

    def amplitudes(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude_parts(x)[0]

    def amplitude_parts(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(amplitudes, the addend that holds the active entries).

        The two coincide in product mode; in sum mode the second is the
        triple product alone.
        """
        f = self.factors(x)
        if self.sum_mode:
            active = np.prod(f[self.n_pair_rows :], axis=0)
            return np.prod(f[: self.n_pair_rows], axis=0) + active, active
        a = np.prod(f, axis=0)
        return a, a

    def active_cofactor(self, x: np.ndarray, t: int, dets: np.ndarray) -> np.ndarray:
        """Cofactor of tensor t within its addend, at determinants ``dets``."""
        lo = self.n_pair_rows if self.sum_mode else 0
        f = x[self.entry_table[lo:, dets]]
        f[t - lo] = 1.0
        return np.prod(f, axis=0)

    def _block_cofactors(self, f: np.ndarray) -> np.ndarray:
        """cof[t, n] = product of all rows of the block except t."""
        T = f.shape[0]
        pref = np.ones_like(f)
        suf = np.ones_like(f)
        np.cumprod(f[:-1], axis=0, out=pref[1:])
        np.cumprod(f[:0:-1], axis=0, out=suf[-2::-1])
        return pref * suf

    def cofactors(self, x: np.ndarray) -> np.ndarray:
        """Per-tensor cofactors: d(amplitude_n)/d(factor of tensor t at n).

        In sum mode the cofactor of a tensor is taken within its own addend.
        """
        f = self.factors(x)
        if self.sum_mode:
            out = np.empty_like(f)
            out[: self.n_pair_rows] = self._block_cofactors(f[: self.n_pair_rows])
            out[self.n_pair_rows :] = self._block_cofactors(f[self.n_pair_rows :])
            return out
        return self._block_cofactors(f)

    def jacobian(self, x: np.ndarray) -> sparse.csr_matrix:
        """Sparse d(amplitudes)/d(active entries), shape (n_active, n_det)."""
        cof = self.cofactors(x)
        data = np.empty(len(self._jac_indices))
        pos = 0
        for t, dets in self.entry_cells:
            data[pos : pos + len(dets)] = cof[t, dets]
            pos += len(dets)
        return sparse.csr_matrix(
            (data, self._jac_indices, self._jac_indptr),
            shape=(len(self.active_indices), self.space.size),
        )


def cgtns_norm(S: np.ndarray, basis: CsfBasis) -> float:
    """Generic squared norm sum_pq S_p S_q sum_n K_pn K_qn."""
    S = np.asarray(S, dtype=float)
    if S.shape != (basis.n_csfs,):
        raise DimensionError(
            f"weight vector has shape {S.shape}, basis has {basis.n_csfs} CSFs"
        )
    return float(S @ basis.overlap() @ S)


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
