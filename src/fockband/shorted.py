"""Shorted operators, the variational identity, and arrowhead completion.

The shorted operator of a psd block matrix onto its leading block is the
largest psd operator supported there that stays below the whole matrix.
For finite matrices it is the (generalized) Schur complement
``A11 - A12 A22^+ A21``, and it obeys a variational identity: the
quadratic form of the short at x is the infimum of the full form over all
tail completions y, attained at ``y* = -A22^+ A21 x``.

The truncated band operator is an n-ary tree of identical p x p levels,
so its block LDL* taken from the leaves up has one pivot per level:

    X_0 = (1 - mu) I,    X_{k+1} = (1 - mu) I - sum_i a_i X_k^{-1} a_i*

for the shifted band ``band_d - mu I``.  By Sylvester that operator is
positive definite exactly when X_0..X_d are, and its short onto the
vacuum block is X_d.  Per-depth positivity, every vacuum short below and
the band's least eigenvalue (the root of lam_min(X_d(mu)), found by
Newton) run through this recursion in p x p arithmetic; the band itself
is never built, so a request is bounded by its depth alone (``check_depth``).

Completion turns that machinery into a positivity certificate for a
matrix tuple.  Short the epsilon-shrunk truncated band operator onto the
vacuum block to get b, set a = 1 - b, and assemble the arrowhead

    [[a,    a_1, ..., a_n],
     [a_1*, b,        0  ],
     [ .. ,      .,      ],
     [a_n*, 0,        b  ]].

A nonnegative arrowhead spectrum with a, b both strictly positive
certifies the tuple as a strict dual row contraction; the certificate is
finite and re-checkable by a single eigensolve.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import CapacityError, ConvergenceError, DomainError, InputError
from .fock import MatrixTuple
from .linalg import PINV_CUTOFF, as_matrix, hermitize, pinv, psd_margin


@dataclass(frozen=True)
class BlockSplit:
    """A Hermitian matrix with a cut separating the leading block."""

    matrix: np.ndarray
    cut: int


def block_split(a, cut: int) -> BlockSplit:
    m = hermitize(as_matrix(a, "matrix"), "matrix")
    if not 0 < cut < m.shape[0]:
        raise InputError(f"cut must lie strictly inside [0, {m.shape[0]}], got {cut}")
    return BlockSplit(matrix=m, cut=cut)


@dataclass(frozen=True)
class ShortResult:
    """Schur complement onto the leading block.

    ``schur_used`` records whether the tail block was inverted directly;
    False means the generalized (pseudo-inverse) complement was taken.
    """

    shorted: np.ndarray
    schur_used: bool


@dataclass(frozen=True)
class AndoCertificate:
    """Finite positivity certificate (a, b) with a + b = 1 exactly.

    ``margin`` is the least eigenvalue of the assembled arrowhead.  The
    arms are carried along so the certificate is self-contained: checking
    it needs only eigensolves, not the construction that produced it.
    """

    a: np.ndarray
    b: np.ndarray
    arrowhead: np.ndarray
    margin: float
    epsilon_used: float
    depth_used: int
    arms: MatrixTuple

    def strictly_valid(self, tol: float = 1e-8) -> bool:
        """Certificate semantics: arrowhead psd and a, b strictly positive."""
        if self.margin < -tol:
            return False
        a_min = float(np.linalg.eigvalsh(self.a)[0])
        b_min = float(np.linalg.eigvalsh(self.b)[0])
        return a_min > 0.0 and b_min > 0.0


def short(split: BlockSplit, cutoff: float = PINV_CUTOFF) -> ShortResult:
    """Shorted operator of a psd matrix onto its leading block."""
    a = split.matrix
    report = psd_margin(a)
    if not report.is_psd:
        raise DomainError(
            f"shorted operator requires a psd matrix; min eigenvalue {report.min_eigenvalue:.3e}")
    k = split.cut
    a11, a12, a22 = a[:k, :k], a[:k, k:], a[k:, k:]
    # Prefer the exact complement; fall back to pinv when the tail block
    # is singular (rank-deficient psd inputs are legitimate here).
    schur_used = True
    try:
        w = np.linalg.eigvalsh(a22)
        if w[0] <= cutoff * max(1.0, w[-1]):
            raise np.linalg.LinAlgError("tail block numerically singular")
        x = np.linalg.solve(a22, a12.conj().T)
    except np.linalg.LinAlgError:
        schur_used = False
        x = pinv(a22, cutoff=cutoff) @ a12.conj().T
    return ShortResult(shorted=hermitize(a11 - a12 @ x, "shorted"), schur_used=schur_used)


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of checking the shorted-operator variational identity at one x."""

    short_value: float
    closed_form_min: float
    best_sampled: float
    minimizer: np.ndarray
    trials: int

    def consistent(self, tol: float = 1e-8) -> bool:
        scale = max(1.0, abs(self.short_value))
        if abs(self.short_value - self.closed_form_min) > tol * scale:
            return False
        return self.best_sampled >= self.short_value - tol * scale


def variational_check(split: BlockSplit, x, trials: int = 200,
                      rng: np.random.Generator | None = None,
                      cutoff: float = PINV_CUTOFF) -> VariationalReport:
    """Check <short(A) x, x> = inf_y <A (x, y), (x, y)> with its closed-form minimizer."""
    a = split.matrix
    k = split.cut
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != k:
        raise InputError(f"x must have length {k}, got {x.shape[0]}")
    if rng is None:
        rng = np.random.default_rng(0)
    s = short(split, cutoff=cutoff).shorted
    short_value = float(np.real(np.vdot(x, s @ x)))

    a21 = a[k:, :k]
    y_star = -pinv(a[k:, k:], cutoff=cutoff) @ (a21 @ x)

    def form(y: np.ndarray) -> float:
        v = np.concatenate([x, y])
        return float(np.real(np.vdot(v, a @ v)))

    closed_form_min = form(y_star)
    best = np.inf
    m = a.shape[0] - k
    scale = max(1.0, float(np.linalg.norm(y_star)))
    for _ in range(trials):
        step = scale * 10.0 ** rng.uniform(-3, 1)
        y = y_star + step * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        best = min(best, form(y))
    if trials == 0:
        best = closed_form_min
    return VariationalReport(short_value=short_value, closed_form_min=closed_form_min,
                             best_sampled=float(best), minimizer=y_star, trials=trials)


def arrowhead_matrix(a0: np.ndarray, arms, diag: np.ndarray) -> np.ndarray:
    """Assemble [[a0, arms],[arms*, diag(diag, ..)]] in M_{n+1} (x) M_p."""
    arms = [np.asarray(m, dtype=np.complex128) for m in arms]
    p = a0.shape[0]
    n = len(arms)
    out = np.zeros(((n + 1) * p, (n + 1) * p), dtype=np.complex128)
    out[:p, :p] = a0
    for i, m in enumerate(arms, start=1):
        out[:p, i * p:(i + 1) * p] = m
        out[i * p:(i + 1) * p, :p] = m.conj().T
        out[i * p:(i + 1) * p, i * p:(i + 1) * p] = diag
    return out


#: Level budget: the deepest truncation served, and the peeling continuation's step budget.
PEEL_BUDGET = 200_000

#: Pass budget of the safeguarded Newton iteration of band_min_eig.
NEWTON_BUDGET = 200


def check_depth(depth: int, budget: int = PEEL_BUDGET) -> None:
    """The recursion's one guard: InputError below 0, CapacityError past ``budget``."""
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    if depth > budget:
        raise CapacityError(f"depth {depth} exceeds the level budget {budget}")


def _row_and_adjoints(t: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """The p x np rows [a_1 .. a_n] and [a_1* .. a_n*] that one level step multiplies."""
    return np.hstack(t.a), np.hstack([m.conj().T for m in t.a])


def _level_step(x: np.ndarray, base: np.ndarray, row: np.ndarray, adj: np.ndarray,
                dx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """One level of bottom-up elimination: X -> base - sum a_i X^{-1} a_i*.

    Given ``dx`` = dX/dmu, the next level's -I + sum_i C_i* dX C_i with
    C_i = X^{-1} a_i* comes along.  Raises LinAlgError when X is not
    positive definite: the band at the current depth has a nonpositive pivot.
    """
    np.linalg.cholesky(x)
    p = x.shape[0]
    c = np.linalg.solve(x, adj).reshape(p, -1, p).swapaxes(0, 1)
    stacked = c.reshape(-1, p)
    out = base - row @ stacked
    if dx is not None:
        dx = stacked.conj().T @ (dx @ c).reshape(-1, p) - np.eye(p)
    return 0.5 * (out + out.conj().T), dx


def _level_pivots(t: MatrixTuple, shift: float = 0.0) -> Iterator[np.ndarray]:
    """Yield the pivots X_0, X_1, .. of ``band - shift * I``, leaves up.

    A pivot is yielded once the step past it has factored it, so every
    yielded X_k is positive definite; the iteration stops at the first
    pivot that is not.
    """
    base = (1.0 - shift) * np.eye(t.p, dtype=np.complex128)
    row, adj = _row_and_adjoints(t)
    x = base
    while True:
        try:
            after, _ = _level_step(x, base, row, adj)
        except np.linalg.LinAlgError:
            return
        yield x
        x = after


def _newton_pass(t: MatrixTuple, depth: int, mu: float, row: np.ndarray,
                 adj: np.ndarray) -> tuple[float, float]:
    """f(mu) = lam_min(X_depth(mu)) and a slope of f there.

    Raises LinAlgError when mu lies past the pole lam_min(band_{depth-1}) of f.
    """
    base = (1.0 - mu) * np.eye(t.p, dtype=np.complex128)
    x, dx = base, -np.eye(t.p)
    for _ in range(depth):
        x, dx = _level_step(x, base, row, adj, dx)
    w, v = np.linalg.eigh(x)
    return float(w[0]), float(np.real(np.vdot(v[:, 0], dx @ v[:, 0])))


def band_min_eig(t: MatrixTuple, depth: int) -> float:
    """Least eigenvalue of the band operator of ``t`` at truncation depth ``depth``.

    It is the root of f(mu) = lam_min(X_depth(mu)).  Below its pole f is
    concave with slope <= -1, so Newton from the left lands right of the
    root and then decreases monotonically to it; an iterate past the pole
    becomes the bracket's upper end and the next one bisects.  With
    r = ||sum a_i a_i*||^(1/2) the bracket is [1 - 2 r cos(pi/(depth+2)), 1 - r]:
    the coupling operator has norm r and vanishes at power depth + 1, so its
    numerical radius is at most r cos(pi/(depth+2)) (Haagerup-de la Harpe),
    and 1 - r is lam_min(band_1).  The lower end is exact for scalar tuples.
    """
    check_depth(depth)
    r = math.sqrt(max(0.0, float(np.linalg.eigvalsh(t.row_gram())[-1])))
    if depth == 0 or r == 0.0:
        return 1.0
    row, adj = _row_and_adjoints(t)
    lo, hi = 1.0 - 2.0 * r * math.cos(math.pi / (depth + 2)), 1.0 - r
    # Resolution of mu and of the shifted diagonal 1 - mu on the bracket.
    tol = 4.0 * np.finfo(float).eps * max(1.0, r)
    mu, newton = lo, False
    for _ in range(NEWTON_BUDGET):
        try:
            f, slope = _newton_pass(t, depth, mu, row, adj)
        except np.linalg.LinAlgError:
            hi = mu
        else:
            nxt = mu - f / slope
            # A Newton iterate lies right of the root, so f >= 0 there is rounding.
            if abs(nxt - mu) <= tol or (newton and f >= 0.0):
                return nxt
            lo, hi = (mu, hi) if f > 0.0 else (lo, mu)
            if nxt < hi:
                mu, newton = nxt, True
                continue
        mu, newton = 0.5 * (lo + hi), False
        if hi - lo <= tol:
            return mu
    raise ConvergenceError(
        f"least band eigenvalue at depth {depth} not converged after {NEWTON_BUDGET} passes")


def _pivots_to(t: MatrixTuple, depth: int, shift: float = 0.0) -> Iterator[np.ndarray]:
    """Yield X_0..X_depth; DomainError unless ``band_depth - shift * I`` is positive definite."""
    count = 0
    for count, x in enumerate(islice(_level_pivots(t, shift), depth + 1), 1):
        yield x
    if count <= depth:
        raise DomainError(f"band operator is not positive definite at depth {count} "
                          f"(shift {shift:.3e})")


def first_nonpositive_depth(t: MatrixTuple, max_depth: int, shift: float = 0.0) -> int | None:
    """Least d <= max_depth with ``band_d - shift * I`` not positive definite, else None."""
    check_depth(max_depth)
    count = sum(1 for _ in islice(_level_pivots(t, shift), max_depth + 1))
    return count if count <= max_depth else None


def _arrowhead_margin(a0: np.ndarray, arms, diag: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(arrowhead_matrix(a0, arms, diag))[0])


def ando_complete(t: MatrixTuple, depth: int = 6, epsilon: float | None = None,
                  tol: float = 1e-8) -> AndoCertificate:
    """Completion certificate for a dual row contraction.

    Takes b as the short of the epsilon-shrunk depth-``depth`` band
    operator onto the vacuum block, which is the level pivot X_depth at
    shift epsilon, sets a = 1 - b, and returns the arrowhead together with
    its eigenvalue margin.  ``epsilon`` defaults to half the truncation
    margin (the band's least eigenvalue, from ``band_min_eig``) and must
    stay below it so the shrunk band remains positive.

    Boundary tuples defeat any fixed shallow truncation: their only valid
    pair sits at the fixed point of the level recursion, which the
    depth-L short reaches only as L grows.  The automatic-epsilon path
    therefore keeps iterating with the shift removed until the arrowhead
    margin clears -tol, the recursion refutes band positivity, or the
    budget runs out.  An explicit epsilon is honored literally and never
    extended.
    """
    band_margin = band_min_eig(t, depth)
    if band_margin <= tol:
        raise DomainError(
            f"band operator not strictly positive at depth {depth} "
            f"(min eigenvalue {band_margin:.3e}); no completion exists on this truncation")
    auto = epsilon is None
    if auto:
        epsilon = 0.5 * band_margin
    if not 0.0 < epsilon < band_margin:
        raise DomainError(
            f"epsilon must lie in (0, {band_margin:.3e}), got {epsilon:.3e}")

    p = t.p
    b = deque(_pivots_to(t, depth, shift=epsilon), maxlen=1)[0]  # X_depth alone is kept
    margin = _arrowhead_margin(np.eye(p) - b, t.a, b)
    depth_used = depth
    epsilon_used = float(epsilon)
    if auto and margin < -tol:
        b, margin, depth_used = _peel_to_margin(t, tol, start_depth=depth)
        epsilon_used = 0.0
    a = np.eye(p, dtype=np.complex128) - b
    head = arrowhead_matrix(a, t.a, b)
    return AndoCertificate(a=a, b=b, arrowhead=head, margin=margin,
                          epsilon_used=epsilon_used, depth_used=depth_used, arms=t)


def _peel_to_margin(t: MatrixTuple, tol: float, start_depth: int) -> tuple[np.ndarray, float, int]:
    """Run the shift-free level recursion until the arrowhead margin clears -tol."""
    base = np.eye(t.p, dtype=np.complex128)
    checkpoint = max(16, start_depth)
    best = -np.inf
    for depth, x in enumerate(_level_pivots(t)):
        if depth >= checkpoint:
            margin = _arrowhead_margin(base - x, t.a, x)
            best = max(best, margin)
            if margin >= -tol:
                return x, margin, depth
            checkpoint *= 2
        if depth >= PEEL_BUDGET:
            raise ConvergenceError(
                f"arrowhead margin still {best:.3e} after {PEEL_BUDGET} peeling steps; "
                "tuple sits too close to the boundary for this tolerance")
    raise DomainError(
        f"band operator is not positive definite at depth {depth + 1}; "
        "no strict completion exists")


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Depthwise shorts of the band operator and their successive drifts."""

    depths: tuple[int, ...]
    shorts: tuple[np.ndarray, ...]
    drifts: tuple[float, ...]

    @property
    def final_drift(self) -> float:
        return self.drifts[-1] if self.drifts else 0.0


def self_similarity_check(t: MatrixTuple, depth: int) -> SelfSimilarityReport:
    """Track how the vacuum-block short stabilizes as the truncation deepens.

    The tail of the band operator repeats the band one level down, so the
    depth-L short is the level pivot X_L and should converge; the report
    carries the successive differences rather than asserting any rate.
    No band is built: DomainError is raised unless the band operator is
    positive definite at depth ``depth``.
    """
    check_depth(depth)
    shorts = tuple(islice(_pivots_to(t, depth), 1, None))
    drifts = tuple(float(np.linalg.norm(b - a, 2)) for a, b in zip(shorts, shorts[1:]))
    return SelfSimilarityReport(depths=tuple(range(1, depth + 1)), shorts=shorts, drifts=drifts)
