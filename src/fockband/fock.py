"""Truncated Fock space and the isometries that generate the band operator.

The space for ``n`` letters truncated at depth ``d`` is spanned by the
words of length at most ``d``, enumerated in level order with the empty
word (vacuum) at index 0.  The flat index of the word ``w . i`` (word w
followed by letter i, with i in 1..n) is ``k*n + i`` where ``k`` is the
index of ``w``.  For n >= 2 the dimension is (n^(d+1) - 1)/(n - 1); for
n = 1 it is d + 1.

The generator ``S_i`` maps basis vector ``e_k`` to ``e_{k n + i}``.  At the
truncation, columns whose image would leave the space (the top level) are
zero, so each ``S_i`` is an exact 0/1 matrix and the compression of the
deeper operator.  Products of these matrices are exact in floating point,
which the relation tests rely on.

A matrix tuple (``MatrixTuple``) supplies the p x p coefficients of the
band operator, whose assemblies here are the reference for tests.  Only
the word-space builders are size-guarded (``capped_dim``), and only they
import scipy.sparse, at first use, so importing the package does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, InputError
from .linalg import as_matrix

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Cap on the dimension of a word space built by ``make_fock``.
DIM_CAP = 200_000


def fock_dim(n: int, depth: int) -> int:
    """Dimension of the depth-``depth`` truncation on ``n`` letters."""
    if n < 1:
        raise InputError(f"number of letters must be >= 1, got {n}")
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    if n == 1:
        return depth + 1
    return (n ** (depth + 1) - 1) // (n - 1)


def capped_dim(n: int, depth: int, max_rows: int, p: int = 1) -> int:
    """``fock_dim(n, depth)``; CapacityError past ``max_rows`` rows of ``p`` per word."""
    dim = fock_dim(n, min(depth, max_rows))  # dim > depth: the clip keeps the verdict
    if dim * p > max_rows:
        raise CapacityError(
            f"depth {depth} on {n} letters needs more than {max_rows} rows ({p} per word)")
    return dim


@dataclass(frozen=True)
class MatrixTuple:
    """An n-tuple of p x p complex matrices."""

    n: int
    p: int
    a: tuple[np.ndarray, ...]

    @staticmethod
    def from_arrays(arrays) -> "MatrixTuple":
        mats = tuple(as_matrix(m, f"tuple entry {i + 1}") for i, m in enumerate(arrays))
        if not mats:
            raise InputError("matrix tuple must have at least one entry")
        p = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (p, p):
                raise InputError(f"tuple entry {i + 1} has shape {m.shape}, expected ({p}, {p})")
        return MatrixTuple(n=len(mats), p=p, a=mats)

    def adjoint(self) -> "MatrixTuple":
        return MatrixTuple(self.n, self.p, tuple(m.conj().T for m in self.a))

    def scale(self, s: complex) -> "MatrixTuple":
        return MatrixTuple(self.n, self.p, tuple(s * m for m in self.a))

    def row_gram(self) -> np.ndarray:
        """The Hermitian sum ``sum_i a_i a_i*`` whose norm decides row contractivity."""
        g = np.zeros((self.p, self.p), dtype=np.complex128)
        for m in self.a:
            g += m @ m.conj().T
        return g


@dataclass(frozen=True)
class TruncatedFock:
    """A depth-truncated word space on ``n`` letters."""

    n: int
    depth: int
    dim: int
    levels: np.ndarray = field(repr=False, compare=False)

    def level_indices(self, level: int) -> np.ndarray:
        """Flat indices of the words of the given length."""
        if not 0 <= level <= self.depth:
            raise InputError(f"level {level} outside 0..{self.depth}")
        return np.nonzero(self.levels == level)[0]

    def inner_dim(self) -> int:
        """Number of words strictly below the top level."""
        return fock_dim(self.n, self.depth - 1) if self.depth > 0 else 0


def make_fock(n: int, depth: int) -> TruncatedFock:
    """Build the truncated word space, refusing more than ``DIM_CAP`` words."""
    dim = capped_dim(n, depth, DIM_CAP)
    levels = np.repeat(np.arange(depth + 1), n ** np.arange(depth + 1))
    return TruncatedFock(n=n, depth=depth, dim=dim, levels=levels)


@dataclass(frozen=True)
class CuntzIsometries:
    """The n generator matrices on a truncated word space.

    Each ``ops[i]`` is an exact 0/1 sparse matrix.  Columns indexed by
    top-level words are zero, so ``S_i* S_j = delta_ij P`` with P the
    projection onto words below the top level, exactly.
    """

    fock: TruncatedFock
    ops: tuple[sp.csr_matrix, ...]

    def dense(self) -> list[np.ndarray]:
        return [s.toarray() for s in self.ops]


def cuntz_isometries(f: TruncatedFock) -> CuntzIsometries:
    """Generator matrices ``S_i : e_k -> e_{k n + i}`` at the truncation."""
    import scipy.sparse as sp
    ops = []
    for i in range(1, f.n + 1):
        cols = np.arange(f.dim, dtype=np.int64)
        rows = cols * f.n + i
        keep = rows < f.dim
        data = np.ones(int(keep.sum()))
        s = sp.csr_matrix((data, (rows[keep], cols[keep])), shape=(f.dim, f.dim))
        ops.append(s)
    return CuntzIsometries(fock=f, ops=tuple(ops))


def _coerce_arms(arms, n: int) -> list[np.ndarray]:
    """Accept a matrix tuple object or a plain sequence of square arrays."""
    seq = getattr(arms, "a", arms)
    mats = [as_matrix(a, f"arm {i + 1}") for i, a in enumerate(seq)]
    if len(mats) != n:
        raise InputError(f"expected {n} arms, got {len(mats)}")
    p = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (p, p):
            raise InputError(f"arm {i + 1} has shape {m.shape}, expected ({p}, {p})")
    return mats


def band_operator(f: TruncatedFock, arms) -> np.ndarray:
    """Dense band operator ``I + sum_j S_j (x) a_j* + sum_j S_j* (x) a_j``.

    The coefficient block at position (k, k n + j) is ``a_j`` and its
    adjoint sits at the mirrored position, so the matrix is Hermitian by
    construction.  The word-space factor is the first Kronecker leg.
    Reference assembly for tests; the package uses the p x p level recursion.
    """
    return band_operator_sparse(f, arms).toarray()


def band_operator_sparse(f: TruncatedFock, arms) -> sp.csr_matrix:
    """Sparse version of ``band_operator``; reference assembly for tests."""
    import scipy.sparse as sp
    mats = _coerce_arms(arms, f.n)
    p = mats[0].shape[0]
    iso = cuntz_isometries(f)
    band = sp.identity(f.dim * p, dtype=np.complex128, format="csr")
    for s, a in zip(iso.ops, mats):
        band = band + sp.kron(s, a.conj().T, format="csr") + sp.kron(s.T, a, format="csr")
    return band.tocsr()


def coupling_operator_sparse(f: TruncatedFock, arms) -> sp.csr_matrix:
    """Sparse ``sum_j S_j (x) a_j*``, the lower half of the band."""
    import scipy.sparse as sp
    mats = _coerce_arms(arms, f.n)
    p = mats[0].shape[0]
    iso = cuntz_isometries(f)
    op = sp.csr_matrix((f.dim * p, f.dim * p), dtype=np.complex128)
    for s, a in zip(iso.ops, mats):
        op = op + sp.kron(s, a.conj().T, format="csr")
    return op.tocsr()


def compress(a, f: TruncatedFock, depth: int):
    """Principal submatrix of a word-space operator on levels <= depth.

    The basis is level ordered, so the compression is the leading block of
    size ``fock_dim(n, depth) * p`` where ``p`` is the coefficient size
    inferred from the shape of ``a``.  Entries are copied verbatim.
    """
    if not 0 <= depth <= f.depth:
        raise InputError(f"compression depth {depth} outside 0..{f.depth}")
    size = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError(f"compress requires a square matrix, got shape {a.shape}")
    if size % f.dim != 0:
        raise InputError(f"matrix size {size} is not a multiple of the word-space dimension {f.dim}")
    p = size // f.dim
    cut = fock_dim(f.n, depth) * p
    if hasattr(a, "tocsr"):
        return a.tocsr()[:cut, :cut]
    return np.asarray(a)[:cut, :cut]
