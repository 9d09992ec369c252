#!/usr/bin/env python3
"""Generate the bundled hydrogen-chain/ring integral fixtures.

Computes STO-3G integrals for small all-hydrogen systems from closed-form
s-Gaussian formulas, symmetrically (Loewdin) orthogonalizes the basis, and
writes FCIDUMP files plus a provenance record with full-CI oracle energies
computed here by direct second-quantized operator application (independent
of the cgtns package, which must reproduce them).

Run from the repository root:

    python3 tools/make_fixtures.py

Outputs land in src/cgtns/fixtures/.
"""

import json
import math
from pathlib import Path

import numpy as np

# STO-3G hydrogen 1s: exponents and contraction coefficients for
# unit-normalized primitives (zeta = 1.24 scaling already applied).
STO3G_H_EXPS = (3.42525091, 0.62391373, 0.16885540)
STO3G_H_COEFS = (0.15432897, 0.53532814, 0.44463454)


def boys_f0(x: float) -> float:
    if x < 1e-12:
        return 1.0 - x / 3.0
    return 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))


def prim_norm(alpha: float) -> float:
    return (2.0 * alpha / math.pi) ** 0.75


def prim_overlap(a, A, b, B) -> float:
    p = a + b
    mu = a * b / p
    r2 = float(np.dot(A - B, A - B))
    return (math.pi / p) ** 1.5 * math.exp(-mu * r2)


def prim_kinetic(a, A, b, B) -> float:
    p = a + b
    mu = a * b / p
    r2 = float(np.dot(A - B, A - B))
    return mu * (3.0 - 2.0 * mu * r2) * (math.pi / p) ** 1.5 * math.exp(-mu * r2)


def prim_nuclear(a, A, b, B, C) -> float:
    p = a + b
    mu = a * b / p
    r2 = float(np.dot(A - B, A - B))
    P = (a * A + b * B) / p
    pc2 = float(np.dot(P - C, P - C))
    return -2.0 * math.pi / p * math.exp(-mu * r2) * boys_f0(p * pc2)


def prim_eri(a, A, b, B, c, C, d, D) -> float:
    p = a + b
    q = c + d
    mu_ab = a * b / p
    mu_cd = c * d / q
    rab2 = float(np.dot(A - B, A - B))
    rcd2 = float(np.dot(C - D, C - D))
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    pq2 = float(np.dot(P - Q, P - Q))
    pref = 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q))
    return (
        pref
        * math.exp(-mu_ab * rab2 - mu_cd * rcd2)
        * boys_f0(p * q / (p + q) * pq2)
    )


class Basis:
    """One contracted s function per hydrogen atom."""

    def __init__(self, centers):
        self.centers = [np.asarray(c, dtype=float) for c in centers]
        self.n = len(centers)
        # Re-normalize the contracted function exactly.
        coefs = [c * prim_norm(a) for a, c in zip(STO3G_H_EXPS, STO3G_H_COEFS)]
        self_overlap = 0.0
        for ai, ci in zip(STO3G_H_EXPS, coefs):
            for aj, cj in zip(STO3G_H_EXPS, coefs):
                self_overlap += ci * cj * prim_overlap(ai, np.zeros(3), aj, np.zeros(3))
        scale = 1.0 / math.sqrt(self_overlap)
        self.coefs = [c * scale for c in coefs]

    def pairs(self, i, j):
        A, B = self.centers[i], self.centers[j]
        for a, ca in zip(STO3G_H_EXPS, self.coefs):
            for b, cb in zip(STO3G_H_EXPS, self.coefs):
                yield ca * cb, a, A, b, B


def ao_integrals(basis: Basis):
    n = basis.n
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for w, a, A, b, B in basis.pairs(i, j):
                S[i, j] += w * prim_overlap(a, A, b, B)
                T[i, j] += w * prim_kinetic(a, A, b, B)
                for C in basis.centers:  # all nuclei are hydrogens (Z=1)
                    V[i, j] += w * prim_nuclear(a, A, b, B, C)
    eri = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if (i * (i + 1) // 2 + j) < (k * (k + 1) // 2 + l):
                        continue
                    val = 0.0
                    for wij, a, A, b, B in basis.pairs(i, j):
                        for wkl, c, C, d, D in basis.pairs(k, l):
                            val += wij * wkl * prim_eri(a, A, b, B, c, C, d, D)
                    for p, q in ((i, j), (j, i)):
                        for r, s in ((k, l), (l, k)):
                            eri[p, q, r, s] = val
                            eri[r, s, p, q] = val
    return S, T + V, eri


def lowdin_orbitals(S):
    w, U = np.linalg.eigh(S)
    return U @ np.diag(w**-0.5) @ U.T


def transform(h_ao, eri_ao, X):
    h = X.T @ h_ao @ X
    g = np.einsum("pqrs,pi,qj,rk,sl->ijkl", eri_ao, X, X, X, X, optimize=True)
    return h, g


def nuclear_repulsion(centers):
    e = 0.0
    for i in range(len(centers)):
        for j in range(i):
            e += 1.0 / float(np.linalg.norm(np.asarray(centers[i]) - np.asarray(centers[j])))
    return e


def write_fcidump(path, h, g, e_core, n_electrons, ms2):
    n = h.shape[0]
    lines = [
        f"&FCI NORB={n},NELEC={n_electrons},MS2={ms2},",
        " ORBSYM=" + ",".join(["1"] * n) + ",",
        " ISYM=1,",
        "&END",
    ]
    for p in range(n):
        for q in range(p + 1):
            pq = p * (p + 1) // 2 + q
            for r in range(n):
                for s in range(r + 1):
                    rs = r * (r + 1) // 2 + s
                    if pq < rs:
                        continue
                    val = g[p, q, r, s]
                    if abs(val) > 1e-14:
                        lines.append(
                            f"{float(val)!r} {p + 1} {q + 1} {r + 1} {s + 1}"
                        )
    for p in range(n):
        for q in range(p + 1):
            if abs(h[p, q]) > 1e-14:
                lines.append(f"{float(h[p, q])!r} {p + 1} {q + 1} 0 0")
    lines.append(f"{float(e_core)!r} 0 0 0 0")
    Path(path).write_text("\n".join(lines) + "\n")


def write_h8_chain(path, spacing):
    """The linear H8 chain at ``spacing`` bohr with 5 electrons and MS2 = 1
    (1568 determinants, 1008 doublet CSFs), written to ``path``."""
    centers = [(0.0, 0.0, spacing * k) for k in range(8)]
    S, h_ao, eri_ao = ao_integrals(Basis(centers))
    h, g = transform(h_ao, eri_ao, lowdin_orbitals(S))
    write_fcidump(path, h, g, nuclear_repulsion(centers), 5, 1)
    return Path(path)


# --- independent full CI by direct operator application -------------------


def _ann(bits, so):
    if not (bits >> so) & 1:
        return None
    sign = -1.0 if (bits & ((1 << so) - 1)).bit_count() & 1 else 1.0
    return bits & ~(1 << so), sign


def _cre(bits, so):
    if (bits >> so) & 1:
        return None
    sign = -1.0 if (bits & ((1 << so) - 1)).bit_count() & 1 else 1.0
    return bits | (1 << so), sign


def fci_ground_state(h, g, e_core, n_electrons, ms2):
    """Lowest eigenvalue over all determinants with the given N and Ms.

    Spin orbitals interleave alpha/beta (2p, 2p+1); determinants are
    ascending-index creation strings.
    """
    n_orb = h.shape[0]
    m = 2 * n_orb
    onvs = []
    for bits in range(1 << m):
        if bits.bit_count() != n_electrons:
            continue
        na = sum((bits >> so) & 1 for so in range(0, m, 2))
        if 2 * na - n_electrons == ms2:
            onvs.append(bits)
    index = {b: i for i, b in enumerate(onvs)}
    dim = len(onvs)
    mat = np.zeros((dim, dim))
    for col, ket in enumerate(onvs):
        acc = {}
        for P in range(n_orb):
            for Q in range(n_orb):
                if h[P, Q] == 0.0:
                    continue
                for sg in (0, 1):
                    step = _ann(ket, 2 * Q + sg)
                    if step is None:
                        continue
                    t, s1 = step
                    step = _cre(t, 2 * P + sg)
                    if step is None:
                        continue
                    t, s2 = step
                    acc[t] = acc.get(t, 0.0) + h[P, Q] * s1 * s2
        for P in range(n_orb):
            for Q in range(n_orb):
                for R in range(n_orb):
                    for S in range(n_orb):
                        val = g[P, Q, R, S]
                        if val == 0.0:
                            continue
                        for sg in (0, 1):
                            for tau in (0, 1):
                                step = _ann(ket, 2 * Q + sg)
                                if step is None:
                                    continue
                                t, s1 = step
                                step = _ann(t, 2 * S + tau)
                                if step is None:
                                    continue
                                t, s2 = step
                                step = _cre(t, 2 * R + tau)
                                if step is None:
                                    continue
                                t, s3 = step
                                step = _cre(t, 2 * P + sg)
                                if step is None:
                                    continue
                                t, s4 = step
                                acc[t] = acc.get(t, 0.0) + 0.5 * val * s1 * s2 * s3 * s4
        for bits, val in acc.items():
            row = index.get(bits)
            if row is not None:
                mat[row, col] += val
    mat += e_core * np.eye(dim)
    evals = np.linalg.eigvalsh(mat)
    return float(evals[0]), dim


SYSTEMS = {
    "h2": {
        "comment": "H2 at 1.4 bohr, STO-3G, Loewdin-orthogonalized AOs",
        "centers": [(0.0, 0.0, 0.0), (0.0, 0.0, 1.4)],
    },
    "h4": {
        "comment": "Linear H4 chain, 1.8 bohr spacing, STO-3G, Loewdin AOs",
        "centers": [(0.0, 0.0, 1.8 * k) for k in range(4)],
    },
    "h6": {
        "comment": "Regular H6 hexagon, 1.8 bohr edge, STO-3G, Loewdin AOs",
        "centers": [
            (1.8 * math.cos(2 * math.pi * k / 6), 1.8 * math.sin(2 * math.pi * k / 6), 0.0)
            for k in range(6)
        ],
    },
}


FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cgtns" / "fixtures"


def main(outdir=FIXTURES):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    provenance = {
        "generator": "tools/make_fixtures.py",
        "basis": "STO-3G (hydrogen), contracted s functions, re-normalized",
        "orbitals": "symmetric (Loewdin) orthogonalization of the AO overlap",
        "oracle": "dense full CI by second-quantized operator application, "
        "computed by this script without the cgtns package",
        "units": "bohr, Hartree",
        "systems": {},
    }
    for name, system in SYSTEMS.items():
        centers = system["centers"]
        basis = Basis(centers)
        S, h_ao, eri_ao = ao_integrals(basis)
        X = lowdin_orbitals(S)
        h, g = transform(h_ao, eri_ao, X)
        e_core = nuclear_repulsion(centers)
        n_electrons = len(centers)
        write_fcidump(outdir / f"{name}.fcidump", h, g, e_core, n_electrons, 0)
        e_fci, n_det = fci_ground_state(h, g, e_core, n_electrons, 0)
        provenance["systems"][name] = {
            "comment": system["comment"],
            "centers_bohr": [list(c) for c in centers],
            "n_spatial_orbitals": len(centers),
            "n_electrons": n_electrons,
            "ms2": 0,
            "e_core": e_core,
            "n_determinants_ms0": n_det,
            "e_fci": e_fci,
        }
        print(f"{name}: {n_det} determinants, E_FCI = {e_fci:.10f} Ha")
    (outdir / "provenance.json").write_text(
        json.dumps(provenance, indent=2) + "\n"
    )
    print(f"wrote fixtures to {outdir}")


if __name__ == "__main__":
    main()
