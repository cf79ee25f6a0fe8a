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
from .fock import MatrixTuple, capped_dim, fock_dim, make_fock
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
    copies of C^p; column strip i of D feeds the first word level of V_i.
    Top-level columns are zeroed, mirroring the truncation convention of
    the word space itself.
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

    block_rows = np.arange(p).repeat(p)
    block_cols = np.tile(np.arange(p), p)
    ops = []
    for i in range(1, n + 1):
        rows, cols, vals = [], [], []
        a_i = t.a[i - 1]
        rows.append(block_rows)
        cols.append(block_cols)
        vals.append(a_i.ravel())
        strip = defect[:, (i - 1) * p:i * p]
        for j in range(1, n + 1):
            rows.append(j * p + block_rows)
            cols.append(block_cols)
            vals.append(strip[(j - 1) * p:j * p, :].ravel())
        for k in range(1, fock_dim(n, depth - 1)):
            child = k * n + i
            rows.append(child * p + np.arange(p))
            cols.append(k * p + np.arange(p))
            vals.append(np.ones(p, dtype=np.complex128))
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim), dtype=np.complex128)
        ops.append(mat.tocsr())
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
    times the projection onto sub-top levels; ``compression_deviation``
    the worst gap between a compressed dilation word and the matching
    A-word, over words of length up to min(max_word, depth).  Words act
    on the original block only, so each word costs one sparse apply to a
    column slab instead of a full matrix product; no gram is densified.
    ``max_word == 0`` checks the isometry relations alone.
    """
    import scipy.sparse as sp
    n, p = t.n, t.p
    if len(r.V) != n or r.p != p:
        raise InputError("dilation and tuple shapes do not match")
    if max_word < 0:
        raise InputError(f"max_word must be >= 0, got {max_word}")
    dim = r.V[0].shape[0]
    inner = make_fock(n, r.depth).inner_dim() * p
    proj = sp.diags((np.arange(dim) < inner).astype(float), format="csr")
    iso_dev = 0.0
    for i in range(n):
        for j in range(n):
            gram = (r.V[i].conj().T @ r.V[j] - (proj if i == j else 0)).tocsr()
            # Norm on the rows and columns holding nonzeros: the vacuum block, up to rounding.
            rows, cols = gram.nonzero()
            if rows.size:
                sub = gram[np.unique(rows)][:, np.unique(cols)].toarray()
                iso_dev = max(iso_dev, float(np.linalg.norm(sub, 2)))
    base = np.eye(dim, p, dtype=np.complex128)
    comp_dev = 0.0
    words = 0
    frontier = [(base, np.eye(p, dtype=np.complex128))]
    for _ in range(1, min(max_word, r.depth) + 1):
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
