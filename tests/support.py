"""Shared samplers for the test suite.

All randomness flows through an explicit generator so every test is
reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from fockband import (DilationReport, DilationResult, EnElement, MatrixTuple, en_element,
                      hermitize, make_fock)
from fockband.dilation import DEFECT_RANK_TOL


def random_matrix(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))


def random_tuple(rng: np.random.Generator, n: int, p: int, scale: float = 1.0) -> MatrixTuple:
    return MatrixTuple.from_arrays([random_matrix(rng, p, scale) for _ in range(n)])


def unitary(rng: np.random.Generator, p: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, p))
    return q * (np.diag(r) / abs(np.diag(r)))


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T / rank
    return 0.5 * (m + m.conj().T)


def random_row_contraction(rng: np.random.Generator, n: int, p: int,
                           norm: float = 0.9) -> MatrixTuple:
    """Tuple scaled so the row gram has operator norm exactly ``norm``**2."""
    t = random_tuple(rng, n, p)
    top = float(np.linalg.eigvalsh(t.row_gram())[-1])
    return t.scale(norm / np.sqrt(top))


def random_psd_arrowhead(rng: np.random.Generator, n: int, p: int) -> EnElement:
    """Positive arrowhead element built so positivity holds by construction.

    Choosing the corner as a psd residual plus the exact Schur term makes
    the assembled matrix psd for any arms; tests still re-check psd by
    eigensolve rather than trusting this argument.
    """
    b = random_psd(rng, p) + 0.2 * np.eye(p)
    arms = [random_matrix(rng, p, scale=0.7) for _ in range(n)]
    residual = random_psd(rng, p, rank=max(1, p - 1))
    a0 = residual.astype(np.complex128)
    for m in arms:
        a0 = a0 + m @ np.linalg.solve(b, m.conj().T)
    a0 = 0.5 * (a0 + a0.conj().T)
    return en_element(a0, b, arms)


def random_unit_scalars(rng: np.random.Generator, n: int) -> MatrixTuple:
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = c / np.linalg.norm(c)
    return MatrixTuple.from_arrays([np.array([[x]]) for x in c])


def reference_walk(t: MatrixTuple, depth: int, shift: float = 0.0,
                   slope: bool = False) -> tuple[int, np.ndarray, np.ndarray | None]:
    """The level walk one level at a time: a Cholesky test of each pivot, a broadcast
    solve for the gains and a hermitized next pivot.  Same contract as
    ``fockband.shorted._walk``, which it checks."""
    p = t.p
    row, adj = np.hstack(t.a), np.stack([m.conj().T for m in t.a])
    eye = np.eye(p)
    base = (1.0 - shift) * np.eye(p, dtype=np.complex128)
    x, dx = base, (-eye if slope else None)
    for k in range(depth):
        try:
            np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            return k, x, dx
        c = np.linalg.solve(x, adj)
        stacked = c.reshape(-1, p)
        if slope:
            dx = stacked.conj().T @ (dx @ c).reshape(-1, p) - eye
        out = base - row @ stacked
        x = 0.5 * (out + out.conj().T)
    return depth, x, dx


def reference_tower(t: MatrixTuple, depth: int) -> DilationResult:
    """The dilation tower built block by block: A_i, then one defect block per first-level
    word, then one identity block per inner word, gathered into a COO matrix.  Same
    entries as ``fockband.bunce_dilate``, which it checks."""
    import scipy.sparse as sp
    n, p = t.n, t.p
    dim = make_fock(n, depth).dim * p
    row = np.hstack(t.a)
    w, u = np.linalg.eigh(np.eye(n * p) - hermitize(row.conj().T @ row, "gram"))
    w_clip = np.clip(w, 0.0, None)
    defect = hermitize((u * np.sqrt(w_clip)) @ u.conj().T, "defect")
    block_rows = np.arange(p).repeat(p)
    block_cols = np.tile(np.arange(p), p)
    ops = []
    for i in range(1, n + 1):
        rows, cols, vals = [block_rows], [block_cols], [t.a[i - 1].ravel()]
        strip = defect[:, (i - 1) * p:i * p]
        for j in range(1, n + 1):
            rows.append(j * p + block_rows)
            cols.append(block_cols)
            vals.append(strip[(j - 1) * p:j * p, :].ravel())
        for k in range(1, make_fock(n, depth).inner_dim()):
            rows.append((k * n + i) * p + np.arange(p))
            cols.append(k * p + np.arange(p))
            vals.append(np.ones(p, dtype=np.complex128))
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim), dtype=np.complex128)
        ops.append(mat.tocsr())
    return DilationResult(V=tuple(ops), depth=depth,
                          defect_rank=int(np.sum(w_clip > DEFECT_RANK_TOL)), p=p)


def reference_verify(r: DilationResult, t: MatrixTuple, max_word: int = 3) -> DilationReport:
    """The dilation relations one gram and one word at a time: V_i* V_j - delta_ij P for
    each pair, normed on its nonzero rows and columns, and one sparse apply per word of
    the frontier.  Same contract as ``fockband.verify_dilation``, which it checks."""
    import scipy.sparse as sp
    n, p = t.n, t.p
    dim = r.V[0].shape[0]
    inner = make_fock(n, r.depth).inner_dim() * p
    proj = sp.diags((np.arange(dim) < inner).astype(float), format="csr")
    iso_dev = 0.0
    for i in range(n):
        for j in range(n):
            gram = (r.V[i].conj().T @ r.V[j] - (proj if i == j else 0)).tocsr()
            rows, cols = gram.nonzero()
            if rows.size:
                sub = gram[np.unique(rows)][:, np.unique(cols)].toarray()
                iso_dev = max(iso_dev, float(np.linalg.norm(sub, 2)))
    comp_dev = 0.0
    words = 0
    frontier = [(np.eye(dim, p, dtype=np.complex128), np.eye(p, dtype=np.complex128))]
    for _ in range(min(max_word, r.depth)):
        nxt = []
        for slab, a_word in frontier:
            for letter in range(n):
                slab2 = r.V[letter] @ slab
                a2 = t.a[letter] @ a_word
                comp_dev = max(comp_dev, float(np.linalg.norm(slab2[:p, :p] - a2, 2)))
                words += 1
                nxt.append((slab2, a2))
        frontier = nxt
    return DilationReport(isometry_deviation=iso_dev, compression_deviation=comp_dev,
                          words_checked=words)
