"""Independent brute-force reference implementations used only by the tests.

Everything here is written from first principles against the same conventions
as the library (interleaved spin orbitals, ascending-index operator strings)
but shares no code with it, so agreement is meaningful.  The exceptions are
the references for vectorized library code, which keep the loops that code
replaced: the reference Metropolis sweep reuses the library's step bounds and
scale renormalization (it checks how proposals are priced, not those), and
``slater_condon_matrix`` calls the library's per-pair ``slater_condon`` (it
checks the excitation-class assembly of ``HamiltonianOperator.matrix``, not
the Slater-Condon rules, which ``hamiltonian_matrix_brute`` checks).  The
per-determinant loops ``amplitude``, ``amplitude_partial_derivative`` and
``orbital_occupations_loop`` are the references for ``AmplitudeEngine`` and
``orbital_occupations``, and ``jacobian_loop`` for ``AmplitudeEngine.jacobian``.
``tensors`` restates the flat parameter layout from the ansatz definition
alone, so the amplitude references read the tensors without the engine.
``exact_diagonalize_full`` keeps the full-spectrum dense solve that
``exact_diagonalize`` replaced by a lowest-eigenpair solve; it reuses the
library's matrices, so it checks the eigensolver, not the Hamiltonian.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, sparse

from cgtns.correlators import AnsatzSpec
from cgtns.errors import DegenerateStateError, DimensionError, FrozenTensorError
from cgtns.hamiltonian import csf_hamiltonian, slater_condon
from cgtns.optimizer import STEP_BOUNDS, STEP_FACTOR_CAP, _renormalize_product_scale


def popcount_below(bits: int, pos: int) -> int:
    return (bits & ((1 << pos) - 1)).bit_count()


def op_annihilate(bits: int, so: int):
    if not (bits >> so) & 1:
        return None
    sign = -1.0 if popcount_below(bits, so) & 1 else 1.0
    return bits & ~(1 << so), sign


def op_create(bits: int, so: int):
    if (bits >> so) & 1:
        return None
    sign = -1.0 if popcount_below(bits, so) & 1 else 1.0
    return bits | (1 << so), sign


def all_onvs_brute(m: int, n: int, ms: float) -> list[int]:
    """Filter all 2**m bitstrings on electron count and spin projection."""
    out = []
    for bits in range(1 << m):
        if bits.bit_count() != n:
            continue
        n_alpha = sum((bits >> so) & 1 for so in range(0, m, 2))
        n_beta = n - n_alpha
        if (n_alpha - n_beta) / 2.0 == ms:
            out.append(bits)
    return out


def spin_ladder_matrix(onvs: list[int], m: int, raising: bool) -> np.ndarray:
    """Dense S+ (or S-) in the given determinant list, padded to a closed map.

    Entries landing outside the list are dropped, which is fine for products
    like S- S+ that return to the original projection sector.
    """
    index = {b: i for i, b in enumerate(onvs)}
    # S+ moves beta -> alpha; collect images in a dict keyed by bits.
    images: list[dict[int, float]] = []
    for bits in onvs:
        img: dict[int, float] = {}
        for p in range(m // 2):
            so_from = 2 * p + (1 if raising else 0)
            so_to = 2 * p + (0 if raising else 1)
            step = op_annihilate(bits, so_from)
            if step is None:
                continue
            t, s1 = step
            step = op_create(t, so_to)
            if step is None:
                continue
            t, s2 = step
            img[t] = img.get(t, 0.0) + s1 * s2
        images.append(img)
    # Build the rectangular matrix onto the *union* sector.
    targets = sorted({b for img in images for b in img})
    tindex = {b: i for i, b in enumerate(targets)}
    mat = np.zeros((len(targets), len(onvs)))
    for col, img in enumerate(images):
        for b, v in img.items():
            mat[tindex[b], col] = v
    return mat, targets


def s2_matrix_brute(onvs: list[int], m: int, ms: float) -> np.ndarray:
    """Dense S^2 = S- S+ + Sz(Sz+1) over an explicit determinant list."""
    plus, mid = spin_ladder_matrix(onvs, m, raising=True)
    if len(mid) == 0:
        lowered = np.zeros((len(onvs), len(onvs)))
    else:
        minus, back = spin_ladder_matrix(mid, m, raising=False)
        # Map `back` onto the original list; S- S+ must land inside it.
        perm = np.zeros((len(onvs), len(back)))
        index = {b: i for i, b in enumerate(onvs)}
        for j, b in enumerate(back):
            perm[index[b], j] = 1.0
        lowered = perm @ minus @ plus
    return lowered + ms * (ms + 1.0) * np.eye(len(onvs))


def hamiltonian_matrix_brute(
    onvs: list[int], m_orb: int, h: np.ndarray, g: np.ndarray, e_core: float
) -> np.ndarray:
    """Assemble <bra|H|ket> by direct operator application.

    H = E_core + sum_{PQ,sigma} h_PQ a+_{P sigma} a_{Q sigma}
      + 1/2 sum_{PQRS,sigma,tau} (PQ|RS) a+_{P sigma} a+_{R tau} a_{S tau} a_{Q sigma}

    with spatial indices and chemists' two-electron integrals.
    """
    index = {b: i for i, b in enumerate(onvs)}
    dim = len(onvs)
    mat = np.zeros((dim, dim))
    spins = (0, 1)
    for col, ket in enumerate(onvs):
        acc: dict[int, float] = {}

        def add(bits, val):
            acc[bits] = acc.get(bits, 0.0) + val

        for P in range(m_orb):
            for Q in range(m_orb):
                for sg in spins:
                    step = op_annihilate(ket, 2 * Q + sg)
                    if step is None:
                        continue
                    t1, s1 = step
                    step = op_create(t1, 2 * P + sg)
                    if step is None:
                        continue
                    t2, s2 = step
                    add(t2, h[P, Q] * s1 * s2)
        for P in range(m_orb):
            for Q in range(m_orb):
                for R in range(m_orb):
                    for S in range(m_orb):
                        val = g[P, Q, R, S]
                        if val == 0.0:
                            continue
                        for sg in spins:
                            for tau in spins:
                                step = op_annihilate(ket, 2 * Q + sg)
                                if step is None:
                                    continue
                                t1, s1 = step
                                step = op_annihilate(t1, 2 * S + tau)
                                if step is None:
                                    continue
                                t2, s2 = step
                                step = op_create(t2, 2 * R + tau)
                                if step is None:
                                    continue
                                t3, s3 = step
                                step = op_create(t3, 2 * P + sg)
                                if step is None:
                                    continue
                                t4, s4 = step
                                add(t4, 0.5 * val * s1 * s2 * s3 * s4)
        for bits, val in acc.items():
            row = index.get(bits)
            if row is not None:
                mat[row, col] += val
    mat += e_core * np.eye(dim)
    return mat


def slater_condon_matrix(ints, space) -> np.ndarray:
    """Dense determinant H from one ``slater_condon`` call per pair j <= i."""
    n = space.size
    mat = np.zeros((n, n))
    onvs = space.onvs
    for i in range(n):
        for j in range(i + 1):
            el = slater_condon(onvs[i], onvs[j], ints)
            mat[i, j] = el
            mat[j, i] = el
    return mat


def exact_diagonalize_full(ham, basis=None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair taken from every eigenpair of the dense problem."""
    if basis is None:
        evals, evecs = linalg.eigh(ham.matrix())
    else:
        evals, evecs = linalg.eigh(csf_hamiltonian(basis, ham), basis.overlap())
    vec = evecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(evals[0]), vec


def orbital_occupations_loop(ham, coeffs) -> tuple[float, ...]:
    """Spin-summed orbital occupations, one determinant at a time."""
    m_orb = ham.integrals.m_orb
    occ = np.zeros(m_orb)
    coeffs = np.asarray(coeffs, dtype=float)
    weights = coeffs * coeffs
    for i, bits in enumerate(ham.space.onvs):
        if weights[i] == 0.0:
            continue
        for p in range(m_orb):
            n_p = ((bits >> (2 * p)) & 1) + ((bits >> (2 * p + 1)) & 1)
            if n_p:
                occ[p] += n_p * weights[i]
    return tuple(float(v) for v in occ)


def fd_gradient(f, x, idx, h=3e-4):
    """Richardson-extrapolated central difference along one coordinate.

    Combining steps h and h/2 cancels the h**2 truncation term, leaving
    roundoff of order eps*|f|/h as the dominant oracle error.
    """

    def central(step):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        return (f(xp) - f(xm)) / (2 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def fd_noise_bound(f_scale, h=3e-4):
    """Conservative roundoff bound on the finite-difference oracle itself."""
    return 64.0 * np.finfo(float).eps * max(1.0, abs(f_scale)) / h


def dense_g_from_unique(m_orb: int, entries: dict) -> np.ndarray:
    """Expand {(p,q,r,s): value} (0-based, chemists') to a full 8-fold array."""
    g = np.zeros((m_orb,) * 4)
    for (p, q, r, s), v in entries.items():
        for a, b in ((p, q), (q, p)):
            for c, d in ((r, s), (s, r)):
                g[a, b, c, d] = v
                g[c, d, a, b] = v
    return g


def metropolis_sweep_full(replica, temperature, evaluator, target_acceptance=None):
    """Reference Metropolis sweep: one full energy evaluation per proposal.

    Same proposal order, random draws, step adaptation and power-of-two scale
    renormalization as the library's sweep, which must take the same
    decisions.  Returns the acceptance ratio.
    """
    active = evaluator.engine.active_indices
    accepted = 0
    for entry in active:
        delta = replica.rng.uniform(-replica.step, replica.step)
        x_new = replica.x.copy()
        x_new[entry] += delta
        try:
            e_new = evaluator.energy(x_new).e
        except DegenerateStateError:
            continue
        de = e_new - replica.energy
        if de <= 0.0 or replica.rng.random() < math.exp(-de / temperature):
            replica.x = x_new
            replica.energy = e_new
            accepted += 1
    ratio = accepted / len(active)
    if target_acceptance is not None:
        factor = math.exp(ratio - target_acceptance)
        factor = min(max(factor, 1.0 / STEP_FACTOR_CAP), STEP_FACTOR_CAP)
        replica.step = min(max(replica.step * factor, STEP_BOUNDS[0]), STEP_BOUNDS[1])
    replica.x = _renormalize_product_scale(evaluator.engine, replica.x)
    return ratio


def jacobian_loop(engine, x: np.ndarray) -> sparse.csr_matrix:
    """Reference ``AmplitudeEngine.jacobian``: the per-entry loop it replaced,
    its sparsity structure rebuilt from the entry table."""
    cof = engine.cofactors(x)
    data, indices, indptr = [], [], [0]
    for e in engine.active_indices:
        t = int(np.searchsorted(engine.offsets, e, side="right") - 1)
        dets = np.flatnonzero(engine.entry_table[t] == e)
        data.append(cof[t, dets])
        indices.append(dets)
        indptr.append(indptr[-1] + len(dets))
    return sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.asarray(indptr)),
        shape=(len(engine.active_indices), engine.space.size),
    )


def bits_of(pattern: str) -> int:
    """ONV of a left-to-right occupation string: '1001' sets bits 0 and 3."""
    return int(pattern[::-1], 2)


def _occ(bits: int, site: int) -> int:
    return (bits >> site) & 1


def identity(spec: AnsatzSpec, m: int) -> np.ndarray:
    """Flat vector of ``spec`` over ``m`` sites with every tensor entry one."""
    return np.ones(4 * len(spec.pair_keys(m)) + 8 * len(spec.triple_keys(m)))


def tensors(spec: AnsatzSpec, m: int, x: np.ndarray):
    """(pairs, triples): views of the flat vector ``x`` keyed by sites.

    The layout: pair tensors in ``spec.pair_keys(m)`` order, then triple
    tensors in ``spec.triple_keys(m)`` order, 4 and 8 entries each in C
    order.  Writing to a view writes to ``x``.
    """
    pair_keys, triple_keys = spec.pair_keys(m), spec.triple_keys(m)
    n_pair = 4 * len(pair_keys)
    if x.shape != (n_pair + 8 * len(triple_keys),):
        raise DimensionError(f"vector of shape {x.shape} does not fit the ansatz")
    pairs = dict(zip(pair_keys, x[:n_pair].reshape(-1, 2, 2)))
    triples = dict(zip(triple_keys, x[n_pair:].reshape(-1, 2, 2, 2)))
    return pairs, triples


def randomize(spec: AnsatzSpec, m: int, rng, scale: float = 0.6) -> np.ndarray:
    """``identity`` plus uniform noise in [-scale, scale] on every active
    tensor, drawn tensor by tensor in layout order."""
    x = identity(spec, m)
    pairs, triples = tensors(spec, m, x)
    if not spec.pairs_frozen:
        for tensor in pairs.values():
            tensor += rng.uniform(-scale, scale, size=(2, 2))
    for tensor in triples.values():
        tensor += rng.uniform(-scale, scale, size=(2, 2, 2))
    return x


def amplitude(spec: AnsatzSpec, m: int, x: np.ndarray, onv) -> float:
    """Reference amplitude of one determinant (plain loops over the tensors)."""
    pairs, triples = tensors(spec, m, x)
    bits = int(onv)
    pair_product = 1.0
    for (i, j), tensor in pairs.items():
        pair_product *= tensor[_occ(bits, i), _occ(bits, j)]
    triple_product = 1.0
    for (i, j, k), tensor in triples.items():
        triple_product *= tensor[_occ(bits, i), _occ(bits, j), _occ(bits, k)]
    if not pairs:
        return triple_product
    if not triples:
        return pair_product
    if spec.combine_mode == "sum":
        return pair_product + triple_product
    return pair_product * triple_product


def amplitude_partial_derivative(
    spec: AnsatzSpec, m: int, x: np.ndarray, onv, key, element
) -> float:
    """d(amplitude)/d(one tensor entry), recomputing the co-factor product.

    Zero unless the determinant's occupations at the tensor's sites match the
    entry's index pattern; the surviving factor product is rebuilt without the
    differentiated tensor rather than divided out.
    """
    pairs, triples = tensors(spec, m, x)
    if len(key) == 2 and spec.pairs_frozen:
        raise FrozenTensorError(f"tensor {key} is frozen")
    if len(key) == 2 and key not in pairs:
        raise DimensionError(f"no pair tensor {key}")
    if len(key) == 3 and key not in triples:
        raise DimensionError(f"no triple tensor {key}")
    bits = int(onv)
    occs = tuple(_occ(bits, site) for site in key)
    if occs != tuple(element):
        return 0.0
    pair_product = 1.0
    for k, tensor in pairs.items():
        if k == key:
            continue
        pair_product *= tensor[_occ(bits, k[0]), _occ(bits, k[1])]
    triple_product = 1.0
    for k, tensor in triples.items():
        if k == key:
            continue
        triple_product *= tensor[_occ(bits, k[0]), _occ(bits, k[1]), _occ(bits, k[2])]
    if spec.combine_mode == "sum" and pairs and triples:
        # The differentiated entry lives in exactly one of the two addends.
        return triple_product if len(key) == 3 else pair_product
    return pair_product * triple_product
