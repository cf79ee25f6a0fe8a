"""Isometric dilation of row contractions and radius-preserving lifts.

A row contraction (A_1, .., A_n) on C^p dilates to isometries with
mutually orthogonal ranges.  The dilation space here is the truncated
word space tensored with C^p: each V_i acts as A_i on the original
block, scatters the defect square root into the first word level, and
then appends the letter i on deeper levels.  Because every block of V_i
moves levels strictly downward except the compression corner, word
compressions reproduce A-words exactly, and the orthogonal-range
relations hold on all sub-top levels with only the defect square-root
rounding as error.

The lift half realizes a quotient of a finite direct sum of matrix
blocks by deleting ideal blocks.  Zero-padding a quotient tuple back
into the full algebra preserves the joint numerical radius at every
truncation depth, the finite shadow of radius-preserving liftability.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, InputError
from .fock import MatrixTuple, capped_dim, fock_dim
from .linalg import hermitize
from .radius import LADDER_BUDGET, THETA_POINTS, joint_numerical_radius
from .shorted import check_depth

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Eigenvalues of the defect below this count as zero for the rank report.
DEFECT_RANK_TOL = 1e-10

#: Cap on the rows (word-space dimension * p) of a dilation tower.
DILATION_ROWS = 20_000


@dataclass(frozen=True)
class DilationResult:
    """Truncated isometric dilation of a row contraction."""

    V: tuple[sp.csr_matrix, ...]
    depth: int
    defect_rank: int
    p: int


def bunce_dilate(t: MatrixTuple, depth: int, tol: float = 1e-8) -> DilationResult:
    """Build the depth-``depth`` dilation tower of a row contraction.

    The defect square root D = (I - (row A)*(row A))^{1/2} lives on n
    copies of C^p.  The vacuum column block of V_i is A_i stacked over
    column strip i of D, which feeds the first word level; the block of
    every other word w below the top level goes to the word w i through
    an identity block.  Those shift entries are placed by one broadcast
    over the inner words, and since the rows come out sorted, each V_i is
    assembled directly in CSR form.  Top-level columns are zero,
    mirroring the truncation convention of the word space itself.
    """
    import scipy.sparse as sp
    n, p = t.n, t.p
    if depth < 1:
        raise InputError(f"dilation depth must be >= 1 (the defect enters at level 1), got {depth}")
    dim = capped_dim(n, depth, DILATION_ROWS, p) * p
    row = np.hstack(t.a)
    gram = hermitize(row.conj().T @ row, "gram")
    w, u = np.linalg.eigh(np.eye(n * p) - gram)
    if w[0] < -tol:
        raise DomainError(
            f"tuple is not a row contraction (defect eigenvalue {w[0]:.3e}); cannot dilate")
    w_clip = np.clip(w, 0.0, None)
    defect = hermitize((u * np.sqrt(w_clip)) @ u.conj().T, "defect")
    defect_rank = int(np.sum(w_clip > DEFECT_RANK_TOL))

    # Vacuum block: rows 0 .. (n+1)p - 1, p entries each.  Inner word k >= 1: its row
    # (k n + i) p + c holds one entry, in column k p + c; those rows lie past the vacuum's.
    words = np.arange(1, fock_dim(n, depth - 1))[:, None]
    vacuum_rows = np.arange((n + 1) * p).repeat(p)
    shift_rows = (words * (n * p) + np.arange(p)).ravel()
    cols = np.concatenate([np.tile(np.arange(p), (n + 1) * p),
                           (words * p + np.arange(p)).ravel()])
    ones = np.ones(shift_rows.size, dtype=np.complex128)
    bounds = np.arange(dim + 1)
    ops = []
    for i in range(1, n + 1):
        vals = np.concatenate([t.a[i - 1].ravel(), defect[:, (i - 1) * p:i * p].ravel(), ones])
        indptr = np.searchsorted(np.concatenate([vacuum_rows, shift_rows + i * p]), bounds)
        ops.append(sp.csr_matrix((vals, cols, indptr), shape=(dim, dim)))
    return DilationResult(V=tuple(ops), depth=depth, defect_rank=defect_rank, p=p)


@dataclass(frozen=True)
class DilationReport:
    """Deviations of a dilation from its defining relations."""

    isometry_deviation: float
    compression_deviation: float
    words_checked: int


def verify_dilation(r: DilationResult, t: MatrixTuple, max_word: int = 3) -> DilationReport:
    """Measure the orthogonal-range relations and word compressions.

    ``isometry_deviation`` is the worst norm of V_i* V_j minus delta_ij
    times the projection P onto sub-top levels; ``compression_deviation``
    the worst gap between a compressed dilation word and the matching
    A-word, over words of length up to min(max_word, depth).
    ``max_word == 0`` checks the isometry relations alone.

    All n^2 grams come from one sparse product W* W of the stacked tower
    W = [V_1 .. V_n]; P leaves the diagonal blocks by index arithmetic,
    and each block's norm is taken on its rows and columns that hold
    nonzeros (the vacuum block, up to rounding), so no gram is densified.
    Words act on the original block only and are checked a level at a
    time: each letter is applied once to the column-stacked slabs of the
    whole level, and the level's compressions get one stacked norm.
    """
    import scipy.sparse as sp
    n, p = t.n, t.p
    if len(r.V) != n or r.p != p:
        raise InputError("dilation and tuple shapes do not match")
    if max_word < 0:
        raise InputError(f"max_word must be >= 0, got {max_word}")
    dim = r.V[0].shape[0]
    inner = fock_dim(n, r.depth - 1) * p
    stacked = sp.hstack(r.V, format="csr")
    gram = (stacked.conj().T @ stacked).tocoo()
    rows, cols, vals = gram.row, gram.col, gram.data
    # Every diagonal entry of P gets a gram entry, stored or not.
    on_p = (rows == cols) & (rows % dim < inner)
    diag = (np.arange(n)[:, None] * dim + np.arange(inner)).ravel()
    gram_diag = np.zeros(n * dim, dtype=np.complex128)
    gram_diag[rows[on_p]] = vals[on_p]
    rows = np.concatenate([rows[~on_p], diag])
    cols = np.concatenate([cols[~on_p], diag])
    vals = np.concatenate([vals[~on_p], gram_diag[diag] - 1])
    nonzero = vals != 0
    rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    blocks = rows // dim * n + cols // dim
    iso_dev = 0.0
    for b in np.unique(blocks):
        here = blocks == b
        sub_rows, at_row = np.unique(rows[here], return_inverse=True)
        sub_cols, at_col = np.unique(cols[here], return_inverse=True)
        sub = np.zeros((sub_rows.size, sub_cols.size), dtype=np.complex128)
        sub[at_row, at_col] = vals[here]
        iso_dev = max(iso_dev, float(np.linalg.norm(sub, 2)))
    # Level L: column block i m + w of ``slabs`` is V_i V_w on the original block, and
    # a_words[i m + w] = a_i a_w, for the m words w of level L - 1.
    slabs = np.eye(dim, p, dtype=np.complex128)
    a_words = np.eye(p, dtype=np.complex128)[None]
    comp_dev = 0.0
    words = 0
    for _ in range(min(max_word, r.depth)):
        slabs = np.hstack([v @ slabs for v in r.V])
        a_words = np.concatenate([a @ a_words for a in t.a])
        m = a_words.shape[0]
        corners = slabs[:p].reshape(p, m, p).transpose(1, 0, 2)
        comp_dev = max(comp_dev, float(np.linalg.norm(corners - a_words, 2, axis=(1, 2)).max()))
        words += m
    return DilationReport(isometry_deviation=iso_dev, compression_deviation=comp_dev,
                          words_checked=words)


@dataclass(frozen=True)
class QuotientAlgebra:
    """Finite direct sum of matrix blocks with some blocks forming an ideal."""

    block_sizes: tuple[int, ...]
    ideal: tuple[int, ...]

    @property
    def total_size(self) -> int:
        return sum(self.block_sizes)

    @property
    def quotient_size(self) -> int:
        return sum(s for k, s in enumerate(self.block_sizes) if k not in self.ideal)


def quotient_algebra(block_sizes, ideal) -> QuotientAlgebra:
    try:
        sizes = tuple(operator.index(s) for s in block_sizes)
        idx = tuple(sorted(operator.index(k) for k in ideal))
    except TypeError:
        raise InputError(f"block sizes and ideal must list integers: {block_sizes!r}, {ideal!r}")
    if not sizes or any(s <= 0 for s in sizes):
        raise InputError(f"block sizes must be positive, got {sizes}")
    if len(set(idx)) != len(idx) or any(k < 0 or k >= len(sizes) for k in idx):
        raise InputError(f"ideal must be a set of block indices in [0, {len(sizes)}), got {idx}")
    if len(idx) == len(sizes):
        raise InputError("ideal cannot contain every block; the quotient would be empty")
    return QuotientAlgebra(block_sizes=sizes, ideal=idx)


def _quotient_slices(q: QuotientAlgebra) -> list[tuple[slice, slice]]:
    """Pairs of (slice in quotient coordinates, slice in full coordinates)."""
    pairs = []
    full_off = 0
    quot_off = 0
    for k, s in enumerate(q.block_sizes):
        if k not in q.ideal:
            pairs.append((slice(quot_off, quot_off + s), slice(full_off, full_off + s)))
            quot_off += s
        full_off += s
    return pairs


@dataclass(frozen=True)
class LiftResult:
    """Zero-padded lift of a quotient tuple with its radius comparison."""

    lifted: MatrixTuple
    depths: tuple[int, ...]
    base_lower: tuple[float, ...]
    lifted_lower: tuple[float, ...]

    @property
    def max_gap(self) -> float:
        return max((abs(a - b) for a, b in zip(self.base_lower, self.lifted_lower)),
                   default=0.0)


def lift_tuple(q: QuotientAlgebra, t: MatrixTuple, depth: int,
               theta_points: int = THETA_POINTS) -> LiftResult:
    """Lift a quotient tuple by zero-padding the ideal blocks.

    The joint radii of the base and the lift are compared depth by depth:
    the padded blocks add a direct summand on which the band operator is
    the identity, and the band's least eigenvalue never exceeds 1 (the
    coupling operator is traceless), so the radii must match to
    eigensolver accuracy.
    """
    check_depth(depth, LADDER_BUDGET)
    pairs = _quotient_slices(q)
    if t.p != q.quotient_size:
        raise InputError(
            f"tuple size {t.p} does not match quotient size {q.quotient_size}")
    mask = np.zeros((t.p, t.p), dtype=bool)
    for qs, _ in pairs:
        mask[qs, qs] = True
    for i, m in enumerate(t.a):
        if np.any(m[~mask] != 0):
            raise InputError(
                f"tuple entry {i + 1} has support off the quotient blocks; "
                "quotient elements are block diagonal")
    total = q.total_size
    lifted_mats = []
    for m in t.a:
        big = np.zeros((total, total), dtype=np.complex128)
        for qs, fs in pairs:
            big[fs, fs] = m[qs, qs]
        lifted_mats.append(big)
    lifted = MatrixTuple(n=t.n, p=total, a=tuple(lifted_mats))

    depths = tuple(range(1, depth + 1))
    base_lower = tuple(joint_numerical_radius(t, d, theta_points=theta_points).lower
                       for d in depths)
    lifted_lower = tuple(joint_numerical_radius(lifted, d, theta_points=theta_points).lower
                         for d in depths)
    return LiftResult(lifted=lifted, depths=depths,
                      base_lower=base_lower, lifted_lower=lifted_lower)


def project_tuple(q: QuotientAlgebra, t: MatrixTuple) -> MatrixTuple:
    """Quotient map on tuples: keep the non-ideal diagonal blocks."""
    if t.p != q.total_size:
        raise InputError(f"tuple size {t.p} does not match algebra size {q.total_size}")
    pairs = _quotient_slices(q)
    small = q.quotient_size
    mats = []
    for m in t.a:
        out = np.zeros((small, small), dtype=np.complex128)
        for qs, fs in pairs:
            out[qs, qs] = m[fs, fs]
        mats.append(out)
    return MatrixTuple(n=t.n, p=small, a=tuple(mats))
