"""Independent brute-force reference implementations used only by the tests.

Everything here is written from first principles against the same conventions
as the library (interleaved spin orbitals, ascending-index operator strings)
but shares no code with it, so agreement is meaningful.  The exceptions are
the references for vectorized library code, which keep the loops that code
replaced: the reference Metropolis sweep reuses the library's step bounds and
scale renormalization (it checks how proposals are priced, not those), and
``renormalized_loop`` and ``warm_triples_loop`` keep the per-tensor and
per-entry loops of ``AmplitudeEngine.renormalized`` and
``optimizer._warm_triples``.
``slater_condon_loop`` is the per-pair Slater-Condon loop that the library's
whole-array kernel replaced, and ``slater_condon_matrix`` assembles it pair
by pair: the references, bit for bit, for ``slater_condon`` and
``HamiltonianOperator.matrix`` (``hamiltonian_matrix_brute`` checks the
rules themselves by operator application).  The per-determinant loops
``amplitude``, ``amplitude_partial_derivative`` and
``orbital_occupations_loop`` are the references for ``AmplitudeEngine`` and
``orbital_occupations``, ``cofactors_reference`` (the prefix and suffix
products the engine's environments replaced) for
``AmplitudeEngine.environments``, and ``jacobian_loop`` for
``AmplitudeEngine.jacobian``.
``jacobian_rows``, ``subspace_solve_reference`` and
``subspace_refine_reference`` keep the tensor solve that
``gradient_subspace_solve`` replaced by a cofactor handed in by its caller,
``subspace_refine`` keeping each pass's left and right products: each
reference solve regathers every tensor's factors, builds a sparse matrix of
the tensor's Jacobian rows and calls numpy's ``eigh`` (or the ``eigh`` it is
given) and the library's sign rule.  ``solve_at_key`` is no reference: it
calls the library's solve on a tensor named by its key.
``tensors`` restates the flat parameter layout from the ansatz definition
alone, so the amplitude references read the tensors without the engine.
``exact_diagonalize_full`` keeps the full-spectrum dense solve that
``exact_diagonalize`` replaced by a lowest-eigenpair solve; it reuses the
library's matrices, so it checks the eigensolver, not the Hamiltonian.
``exact_diagonalize_reference`` runs the library's oracle on
``lowest_eigenpair_reference``, the Davidson solve before its basis was
bounded and restarted, and on the dense H that ``exact_diagonalize`` no
longer forms: ``csf_diagonals_dense`` and ``rayleigh_quotient_dense`` keep
the CSF diagonal and the extended-precision energy that read it, which
``_csf_diagonals`` and ``HamiltonianOperator.sigma`` replaced.
``determinant_matrix_reference`` keeps the
float32 occupation product that classified the determinant pairs before
the per-string tables.
Like ``generic_quotient``, the energy as the evaluator formed it before it
relied on orthonormal CSFs, it takes the CSF metric from the basis's
overlap K K^T rather than assuming the identity.
``csf_basis_reference`` keeps the per-configuration genealogical build
that ``build_csf_basis`` replaced by one coefficient block per open-shell
count; it reuses the library's Clebsch-Gordan step and coupling paths, so
it checks the grouping and the ordering, not the coefficients.
``csr_reference``, ``gram_reference`` and ``csf_diagonals_reference`` are
per-row loops over a matrix's nonzeros in ascending column order, the
references for the products of ``fock.CouplingMatrix`` and for
``csf_diagonals_dense``, and ``scipy_csr`` is the scipy CSR matrix
of the same nonzeros, for the tests that compare with scipy's kernels.
All three read K only through ``toarray()``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, sparse

from cgtns import fock, hamiltonian, optimizer
from cgtns.correlators import AnsatzSpec
from cgtns.errors import DegenerateStateError, DimensionError, FrozenTensorError
from cgtns.hamiltonian import csf_hamiltonian
from cgtns.optimizer import STEP_BOUNDS, STEP_FACTOR_CAP


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


def _triangular(a: int, b: int) -> int:
    """Position of the unordered pair (a, b) in row-major lower-triangular
    order."""
    a, b = max(a, b), min(a, b)
    return a * (a + 1) // 2 + b


def slater_condon_loop(bra: int, ket: int, ints) -> float:
    """<bra|H|ket> by the Slater-Condon rules, one determinant pair at a time.

    The phase comes from applying the excitation operators, annihilations in
    ascending hole order, then creations in descending part order.  The sums
    run over the ket's occupied spin orbitals in ascending order and read the
    integrals from ``IntegralSet.g_flat`` by the canonical triangular index.
    """
    diff = bra ^ ket
    ndiff = diff.bit_count()
    if ndiff > 4 or bra.bit_count() != ket.bit_count():
        return 0.0
    h = ints.h

    def g(p, q, r, s):
        return ints.g_flat[_triangular(_triangular(p, q), _triangular(r, s))]

    if ndiff == 0:
        occ = [so for so in range(ket.bit_length()) if (ket >> so) & 1]
        val = ints.e_core
        for a, p in enumerate(occ):
            P, sp = p >> 1, p & 1
            val += h[P, P]
            for q in occ[:a]:
                Q, sq = q >> 1, q & 1
                val += g(P, P, Q, Q)
                if sp == sq:
                    val -= g(P, Q, Q, P)
        return val

    holes = [so for so in range(ket.bit_length()) if (diff & ket) >> so & 1]
    parts = [so for so in range(bra.bit_length()) if (diff & bra) >> so & 1]
    bits, phase = ket, 1.0
    for so, op in [(q, op_annihilate) for q in holes] + [
        (p, op_create) for p in reversed(parts)
    ]:
        bits, sign = op(bits, so)
        phase *= sign
    assert bits == bra

    if ndiff == 2:
        (q,), (p,) = holes, parts
        if (p & 1) != (q & 1):
            return 0.0
        P, Q, sp = p >> 1, q >> 1, p & 1
        val = h[P, Q]
        for r in range(ket.bit_length()):
            if r != q and (ket >> r) & 1:
                R = r >> 1
                val += g(P, Q, R, R)
                if r & 1 == sp:
                    val -= g(P, R, R, Q)
        return phase * val

    (q1, q2), (p1, p2) = holes, parts
    val = 0.0
    if (p1 & 1) == (q1 & 1) and (p2 & 1) == (q2 & 1):
        val += g(p1 >> 1, q1 >> 1, p2 >> 1, q2 >> 1)
    if (p1 & 1) == (q2 & 1) and (p2 & 1) == (q1 & 1):
        val -= g(p1 >> 1, q2 >> 1, p2 >> 1, q1 >> 1)
    return phase * val


def slater_condon_matrix(ints, space) -> np.ndarray:
    """Dense determinant H from one ``slater_condon_loop`` call per pair j <= i."""
    n = space.size
    mat = np.zeros((n, n))
    onvs = space.onvs
    for i in range(n):
        for j in range(i + 1):
            el = slater_condon_loop(onvs[i], onvs[j], ints)
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


def determinant_matrix_reference(ints, space) -> np.ndarray:
    """Dense determinant H with the pairs classified by a float32 product of
    occupation matrices, one block of 256 rows at a time, and evaluated by
    the library's ``_pair_elements`` kernel: an independent classification
    against which the tests check ``HamiltonianOperator.matrix``, which
    scatters the product tables."""
    n, n_el = space.size, space.n_electrons
    onvs = np.array(space.onvs, dtype=np.uint64)
    mat = np.zeros((n, n))
    mat[np.arange(n), np.arange(n)] = hamiltonian._pair_elements(ints, onvs, onvs, 0)
    counts = fock.occupations(space).astype(np.float32)  # exact: small integers
    for i0 in range(0, n, 256):
        i1 = min(i0 + 256, n)
        shared = counts[i0:i1] @ counts[:i1].T
        rows, cols = np.nonzero(shared >= n_el - 2)
        below_diagonal = cols < rows + i0
        rows, cols = rows[below_diagonal], cols[below_diagonal]
        levels = n_el - shared[rows, cols].astype(np.int64)
        for level in (1, 2):
            bra, ket = rows[levels == level] + i0, cols[levels == level]
            val = hamiltonian._pair_elements(ints, onvs[bra], onvs[ket], level)
            mat[bra, ket] = val
            mat[ket, bra] = val
    return mat


def lowest_eigenpair_reference(apply_a, diag_a):
    """Davidson's lowest eigenpair with no restart: the basis, stored in
    blocks of 32 rows, grows until the residual bound of the library's
    solve holds or the basis spans the space, with the same start vector,
    corrections and orthogonalization as ``hamiltonian.lowest_eigenpair``."""
    n = len(diag_a)
    scale = np.max(np.abs(diag_a))
    V = AV = np.empty((0, n))
    G = np.empty((0, 0))
    t = 0.1 * (np.modf(np.arange(1, n + 1) * 0.6180339887498949)[0] - 0.5)
    t[np.argmin(diag_a)] += 1.0
    residual = None
    for k in range(n):
        if k == len(V):
            rows = ((0, min(32, n - k)), (0, 0))
            V, AV, G = np.pad(V, rows), np.pad(AV, rows), np.pad(G, rows[:1] * 2)
        for u in (t, residual):
            size = np.linalg.norm(u)
            for _ in range(2):
                u = u - (V[:k] @ u) @ V[:k]
            if np.linalg.norm(u) > 1e-8 * size:
                break
        V[k] = u / np.sqrt(u @ u)
        AV[k] = apply_a(V[k])
        G[k, : k + 1] = G[: k + 1, k] = V[: k + 1] @ AV[k]
        thetas, ys = np.linalg.eigh(G[: k + 1, : k + 1])
        theta, y = thetas[0], ys[:, 0]
        x = y @ V[: k + 1]
        residual = y @ AV[: k + 1] - theta * x
        bound = hamiltonian._RESIDUAL_TOL * max(abs(theta), scale)
        if np.linalg.norm(residual) <= bound or k + 1 == n:
            return float(theta), x
        denom = diag_a - theta
        t = residual / np.where(np.abs(denom) > 1e-8, denom, 1e-8)


def csf_diagonals_dense(K, H: np.ndarray) -> np.ndarray:
    """diag(K H K^T) from the nonzeros of K and a dense H, block by block.

    Each CSF's element adds, from zero, the terms of every ordered pair of
    its own nonzeros, left-major in ascending determinant order, so no
    dense K @ H is formed.
    """
    diag = np.zeros(K.shape[0])
    for coeffs, rows, cols in K.blocks:
        nonzero = coeffs != 0.0
        i, j, jj = np.nonzero(nonzero[:, :, None] & nonzero[:, None, :])
        terms = coeffs[i, j] * H[cols[:, j], cols[:, jj]] * coeffs[i, jj]
        bins = np.arange(len(rows))[:, None] * len(coeffs) + i
        sums = np.bincount(bins.ravel(), terms.ravel(), minlength=rows.size)
        diag[rows] = sums.reshape(rows.shape)
    return diag


def rayleigh_quotient_dense(H: np.ndarray, w: np.ndarray) -> float:
    """w^T H w / w^T w in extended precision, rounded once to a float, with
    H converted about 2**16 elements (1 MB) at a time."""
    w = w.astype(np.longdouble)
    rows = max(1, 2**16 // len(w))
    num = sum(
        w[i0 : i0 + rows] @ (H[i0 : i0 + rows].astype(np.longdouble) @ w)
        for i0 in range(0, len(w), rows)
    )
    return float(num / (w @ w))


def exact_diagonalize_reference(
    ham, basis=None, dense_products=False
) -> tuple[float, np.ndarray]:
    """``hamiltonian.exact_diagonalize`` on ``lowest_eigenpair_reference``,
    with the diagonal and the energy of the dense H: ``H.diagonal()`` or
    ``csf_diagonals_dense``, ``rayleigh_quotient_dense`` and the library's
    sign rule.  The products are ``ham.sigma``'s, as the library's are, so
    a solve that does not restart gives the library's bits; with
    ``dense_products`` they are those of ``ham.matrix()``."""
    H = ham.matrix()
    apply_h = H.__matmul__ if dense_products else ham.sigma
    if basis is None:
        _, vec = lowest_eigenpair_reference(apply_h, H.diagonal())
    else:
        K = basis.K
        _, vec = lowest_eigenpair_reference(
            lambda u: K @ apply_h(u @ K), csf_diagonals_dense(K, H)
        )
    e0 = rayleigh_quotient_dense(H, vec if basis is None else vec @ basis.K)
    return e0, hamiltonian.fix_sign(vec)


def generic_quotient(evaluator, x: np.ndarray) -> float:
    """Rayleigh quotient S.(h S) / S.(K K^T) S of the evaluator's CSF
    weights S, in the generic metric of ``basis.overlap()``; unscreened."""
    S = evaluator.weights(x)
    overlap = evaluator.basis.overlap()
    return float(S @ (evaluator.h_csf @ S)) / float(S @ overlap @ S)


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


def csf_basis_reference(space, s2: int) -> np.ndarray:
    """Dense K of the genealogical basis with total spin s2 / 2, built one
    configuration at a time: configurations in the order of their first
    determinant, each one's CSFs in the order of ``genealogical_paths``,
    every coefficient a product of ``_cg_add_half`` steps; zeros are +0.0."""
    m_orb = space.m // 2
    groups: dict[tuple, list[int]] = {}
    for pos, bits in enumerate(space.onvs):
        occ = [((bits >> (2 * p)) & 1, (bits >> (2 * p + 1)) & 1) for p in range(m_orb)]
        docc = tuple(p for p, (a, b) in enumerate(occ) if a and b)
        socc = tuple(p for p, (a, b) in enumerate(occ) if a != b)
        groups.setdefault((docc, socc), []).append(pos)
    rows = []
    for (_, socc), members in groups.items():
        for path in fock.genealogical_paths(len(socc), s2):
            row = np.zeros(space.size)
            for pos in members:
                bits = space.onvs[pos]
                coeff = 1.0
                s2_prev = 0
                m2 = 0
                for p, s2_next in zip(socc, path):
                    mu2 = 1 if (bits >> (2 * p)) & 1 else -1
                    m2 += mu2
                    coeff *= fock._cg_add_half(s2_prev, m2, mu2, s2_next)
                    s2_prev = s2_next
                if coeff != 0.0:
                    row[pos] = coeff
            rows.append(row)
    return np.array(rows).reshape(-1, space.size)


def _stored(dense: np.ndarray) -> list[list[tuple[int, float]]]:
    """Each row's nonzeros (column, value) in ascending column order."""
    return [[(n, row[n]) for n in np.flatnonzero(row)] for row in dense]


def csr_reference(K, other: np.ndarray) -> np.ndarray:
    """K @ other for a 1-D or 2-D ``other``, from a loop over each row's
    nonzeros: ``acc = 0.0``, then ``acc += a * x`` in ascending column
    order."""
    other = np.asarray(other, dtype=float)
    columns = other.reshape(len(other), -1)
    out = np.zeros((K.shape[0], columns.shape[1]))
    for r, stored in enumerate(_stored(K.toarray())):
        for j in range(columns.shape[1]):
            acc = 0.0
            for n, a in stored:
                acc += a * columns[n, j]
            out[r, j] = acc
    return out.reshape(K.shape[0], *other.shape[1:])


def gram_reference(K) -> np.ndarray:
    """Dense K K^T from a loop over row p's nonzeros in ascending column
    order, adding K_pn K_qn wherever row q has a nonzero at column n."""
    stored = _stored(K.toarray())
    rows = [dict(row) for row in stored]
    out = np.zeros((K.shape[0], K.shape[0]))
    for p in range(K.shape[0]):
        for q in range(K.shape[0]):
            acc = 0.0
            for n, a in stored[p]:
                if n in rows[q]:
                    acc += a * rows[q][n]
            out[p, q] = acc
    return out


def csf_diagonals_reference(K, H: np.ndarray) -> np.ndarray:
    """diag(K H K^T) from a loop over each row's ordered pairs of nonzeros,
    left-major in ascending column order."""
    diag = np.zeros(K.shape[0])
    for p, row in enumerate(_stored(K.toarray())):
        acc = 0.0
        for left, a in row:
            for right, b in row:
                acc += a * H[left, right] * b
        diag[p] = acc
    return diag


def scipy_csr(K) -> sparse.csr_matrix:
    """The scipy CSR matrix of K's nonzeros, ascending columns in each row."""
    return sparse.csr_matrix(K.toarray())


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

    Same proposal order (the entries some determinant selects, ascending),
    random draws (one uniform per proposal, and one more unless its
    evaluation fails), step adaptation and power-of-two scale
    renormalization as the library's sweep, which must take the same
    decisions.  Returns the acceptance ratio over the proposals.
    """
    live = np.unique(evaluator.engine.entry_table[evaluator.engine.n_frozen_tensors :])
    accepted = 0
    for entry in live:
        delta = replica.rng.uniform(-replica.step, replica.step)
        x_new = replica.x.copy()
        x_new[entry] += delta
        try:
            e_new = evaluator.energy(x_new).e
        except DegenerateStateError:
            continue
        de = e_new - replica.energy
        if replica.rng.random() < math.exp(min(0.0, -de / temperature)):
            replica.x = x_new
            replica.energy = e_new
            accepted += 1
    ratio = accepted / len(live)
    if target_acceptance is not None:
        factor = math.exp(ratio - target_acceptance)
        factor = min(max(factor, 1.0 / STEP_FACTOR_CAP), STEP_FACTOR_CAP)
        replica.step = min(max(replica.step * factor, STEP_BOUNDS[0]), STEP_BOUNDS[1])
    replica.x = evaluator.engine.renormalized(replica.x)
    return ratio


def renormalized_loop(engine, x: np.ndarray) -> np.ndarray:
    """Reference ``AmplitudeEngine.renormalized``: the per-tensor loop it
    replaced, one power of two multiplied into each tensor's slice of every
    addend that holds active entries (the active tensors, and a sum
    hybrid's pairs)."""
    peak = float(np.max(np.abs(engine.amplitudes(x))))
    if not np.isfinite(peak) or peak == 0.0:
        return x
    if 2.0**-50 < peak < 2.0**50:
        return x
    k = -int(math.floor(math.log2(peak)))
    blocks = [range(engine.n_frozen_tensors, len(engine.keys))]
    if engine.spec.combine_mode == "sum":
        blocks.append(range(len(engine.pair_keys)))
    x = x.copy()
    for block in blocks:
        q, r = divmod(k, len(block))
        for i, t in enumerate(block):
            start = engine.offsets[t]
            x[start : start + engine.sizes[t]] *= 2.0 ** (q + 1 if i < r else q)
    return x


def _slot_pairs(key: tuple[int, int, int]):
    i, j, k = key
    return (
        ((i, j), (0, 1, None)),
        ((i, k), (0, None, 1)),
        ((j, k), (None, 0, 1)),
    )


def warm_triples_loop(engine, pair_x: np.ndarray) -> np.ndarray:
    """Reference ``optimizer._warm_triples``: the per-entry loop it replaced.
    Each triple entry multiplies in |C|**(1/n) of its slot pair entries in
    slot order; then, at each pair's first slot appearance, the entries of
    a negative pair entry change sign."""
    spec, m = engine.spec, engine.m
    pair_keys = AnsatzSpec(spec.pair_stage).pair_keys(m)
    pairs = dict(zip(pair_keys, np.reshape(pair_x, (-1, 2, 2))))
    exponent = 1.0 / (m + 2) if spec.triples_si else 1.0 / (m - 2)

    x = np.ones(engine.n_params)
    triples = dict(zip(engine.triple_keys, x.reshape(-1, 2, 2, 2)))
    for key, tensor in triples.items():
        for pair, layout in _slot_pairs(key):
            source = pairs[pair]
            for a in range(2):
                for b in range(2):
                    magnitude = abs(source[a, b]) ** exponent
                    idx = [slice(None)] * 3
                    idx[layout.index(0)] = a
                    idx[layout.index(1)] = b
                    tensor[tuple(idx)] *= magnitude
    assigned: set[tuple[int, int]] = set()
    for key, tensor in triples.items():
        for pair, layout in _slot_pairs(key):
            if pair in assigned:
                continue
            source = pairs[pair]
            for a in range(2):
                for b in range(2):
                    if source[a, b] < 0:
                        idx = [slice(None)] * 3
                        idx[layout.index(0)] = a
                        idx[layout.index(1)] = b
                        tensor[tuple(idx)] *= -1.0
            assigned.add(pair)
    return x


def cofactors_reference(engine, x: np.ndarray) -> np.ndarray:
    """Reference ``AmplitudeEngine.environments``: the prefix and suffix
    cumulative products over the active addend that it replaced, one
    O(T n_det) pass.  Row t - ``addend_start`` is tensor t's cofactor, for
    every tensor t from ``addend_start`` on: the product of the addend's
    factors before t times the product of those after it."""
    f = x[engine.entry_table[engine.addend_start :]]
    pref = np.ones_like(f)
    suf = np.ones_like(f)
    np.cumprod(f[:-1], axis=0, out=pref[1:])
    np.cumprod(f[:0:-1], axis=0, out=suf[-2::-1])
    return pref * suf


def _tensor_cells(engine, t: int) -> list[np.ndarray]:
    """The determinants that select each entry of tensor t, ascending."""
    first = int(engine.offsets[t])
    return [
        np.flatnonzero(engine.entry_table[t] == e)
        for e in range(first, first + engine.sizes[t])
    ]


def entry_cells_loop(engine) -> list[tuple[int, np.ndarray]]:
    """(tensor row, selecting determinants) per active entry, scanned from
    the entry table entry by entry."""
    return [
        (t, dets)
        for t in range(engine.n_frozen_tensors, len(engine.keys))
        for dets in _tensor_cells(engine, t)
    ]


def jacobian_loop(engine, x: np.ndarray) -> sparse.csr_matrix:
    """Reference ``AmplitudeEngine.jacobian``: the per-entry loop over
    ``entry_cells_loop`` and ``cofactors_reference``."""
    cof = cofactors_reference(engine, x)
    cells = entry_cells_loop(engine)
    start = engine.addend_start
    return sparse.csr_matrix(
        (
            np.concatenate([cof[t - start, dets] for t, dets in cells]),
            np.concatenate([dets for _, dets in cells]),
            np.cumsum([0] + [len(dets) for _, dets in cells]),
        ),
        shape=(len(engine.active_indices), engine.space.size),
    )


def active_rows(engine, key) -> slice:
    """Gradient rows (positions in ``engine.active_indices``) of the active
    tensor ``key``: one contiguous block in the tensor's element order."""
    t = engine.keys.index(key)
    start = int(engine.offsets[t] - engine.active_indices[0])
    return slice(start, start + engine.sizes[t])


def jacobian_rows(engine, x: np.ndarray, key) -> sparse.csr_matrix:
    """Rows ``active_rows(engine, key)`` of ``engine.jacobian(x)``, bit for
    bit, from tensor ``key``'s row of ``cofactors_reference``."""
    t = engine.keys.index(key)
    cells = _tensor_cells(engine, t)
    dets = np.concatenate(cells)
    cofactor = cofactors_reference(engine, x)[t - engine.addend_start]
    return sparse.csr_matrix(
        (cofactor[dets], dets, np.cumsum([0] + [len(c) for c in cells])),
        shape=(len(cells), engine.space.size),
    )


def solve_at_key(evaluator, x: np.ndarray, key):
    """``gradient_subspace_solve`` of the tensor ``key``: its row from
    ``engine.keys``, its cofactor and a sum hybrid's pair weights formed as
    ``subspace_refine`` forms them.  A frozen tensor has no environment; it
    gets ones, which the solve refuses before it reads them."""
    engine = evaluator.engine
    t = engine.keys.index(key)
    cofactor = dict(engine.environments(x)).get(t, np.ones(engine.space.size))
    pair_weights = evaluator.K @ engine.pair_addend(x) if engine.sum_mode else None
    return optimizer.gradient_subspace_solve(evaluator, x, t, cofactor, pair_weights)


def subspace_solve_reference(evaluator, x: np.ndarray, key, eigh=np.linalg.eigh):
    """Reference ``gradient_subspace_solve``: the solve from the tensor's
    Jacobian rows, ``eigh`` and the sign rule that makes the entry of
    largest magnitude positive."""
    engine = evaluator.engine
    rows = active_rows(engine, key)
    V = (jacobian_rows(engine, x, key) @ scipy_csr(evaluator.K).T).toarray()
    if engine.sum_mode:
        addend = np.prod(x[engine.entry_table[: engine.n_pair_rows]], axis=0)
        V = np.vstack((evaluator.K @ addend, V))
    peaks = np.max(np.abs(V), axis=1)
    scale = 1.0 / np.where(peaks > 0.0, peaks, 1.0)
    V *= scale[:, None]
    h_sub = V @ evaluator.h_csf @ V.T
    s_sub = V @ V.T
    h_sub = 0.5 * (h_sub + h_sub.T)
    s_sub = 0.5 * (s_sub + s_sub.T)
    w, U = eigh(s_sub)
    w_max = float(w[-1])
    if w_max <= 0.0:
        raise DegenerateStateError("all subspace states vanish")
    keep = w > 1e-10 * w_max
    X = U[:, keep] / np.sqrt(w[keep])
    evals, Y = eigh(X.T @ h_sub @ X)
    coeff = X @ Y[:, 0]
    if engine.sum_mode and not abs(coeff[0]) * math.sqrt(max(s_sub[0, 0], 0.0)) > 1e-10:
        return x.copy(), evaluator.energy(x).e
    coeff = coeff * scale
    if coeff[np.argmax(np.abs(coeff))] < 0:
        coeff = -coeff
    if engine.sum_mode:
        coeff = coeff[1:] / coeff[0]
    x_new = x.copy()
    x_new[engine.active_indices[rows]] = coeff
    return x_new, float(evals[0])


def subspace_refine_reference(evaluator, x: np.ndarray):
    """Reference ``subspace_refine``: passes of independent reference solves
    under the library's pass cap and gain; (x, energy, passes, converged)."""
    energy = evaluator.energy(x).e
    for done in range(1, optimizer.SUBSPACE_PASSES + 1):
        improved = False
        for key in evaluator.engine.keys[evaluator.engine.n_frozen_tensors :]:
            x, e_sub = subspace_solve_reference(evaluator, x, key)
            if energy - e_sub > optimizer.SUBSPACE_GAIN:
                improved = True
            energy = e_sub
        if not improved:
            break
    return x, energy, done, not improved


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
