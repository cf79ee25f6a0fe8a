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
vacuum block is X_d.  One walker, ``_walk``, runs this recursion in p x p
arithmetic, one linear solve per level with level 1 in closed form, and
returns the first pivot that is not positive definite; the pivots are
tested a batch at a time by one stacked Cholesky.  Per-depth positivity,
the vacuum short and the band's least eigenvalue (the root of
lam_min(X_d(mu)), found with the walker's slope by steps to the root of a
pole model, as in secular-equation solvers) are all read off it; the band
itself is never built, so a request is bounded by its depth alone
(``check_depth``).

Completion turns that machinery into a positivity certificate for a
matrix tuple.  Short the epsilon-shrunk truncated band operator onto the
vacuum block to get b, set a = 1 - b, and assemble the arrowhead

    [[a,    a_1, ..., a_n],
     [a_1*, b,        0  ],
     [ .. ,      .,      ],
     [a_n*, 0,        b  ]].

A nonnegative arrowhead spectrum with a, b both strictly positive
certifies the tuple as a strict dual row contraction; the certificate is
finite and re-checkable by a single eigensolve.  At the boundary the pair
sits at the limit of the shift-free recursion, the maximal solution of
X + sum_i a_i X^{-1} a_i* = I, which Newton's method reaches instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    b is the vacuum short of the depth-``depth_used`` band shrunk by
    ``epsilon_used``, or, when ``epsilon_used == 0``, a Newton iterate for
    the recursion's fixed point after the depth-``depth_used`` short failed.
    """

    a: np.ndarray
    b: np.ndarray
    arrowhead: np.ndarray
    margin: float
    epsilon_used: float
    depth_used: int
    arms: MatrixTuple

    def verify(self, tol: float = 1e-8) -> dict:
        """Certificate semantics with their numbers: a + b == I exactly, arrowhead
        margin >= -tol, and the Hermitian parts of a and b strictly positive."""
        gap = self.a + self.b - np.eye(self.a.shape[0])
        sum_gap = float(np.linalg.norm(gap, 2)) if gap.any() else 0.0  # no SVD of a zero gap
        a_min = float(np.linalg.eigvalsh(0.5 * (self.a + self.a.conj().T))[0])
        b_min = float(np.linalg.eigvalsh(0.5 * (self.b + self.b.conj().T))[0])
        valid = sum_gap == 0.0 and self.margin >= -tol and a_min > 0.0 and b_min > 0.0
        return {"valid": valid, "sum_gap": sum_gap, "margin": self.margin,
                "a_min": a_min, "b_min": b_min}

    def strictly_valid(self, tol: float = 1e-8) -> bool:
        return self.verify(tol)["valid"]


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


#: Level budget: the deepest truncation served.
PEEL_BUDGET = 200_000

#: Pass budget of the Newton iterations: band_min_eig's and the fixed point's.
NEWTON_BUDGET = 200


def check_depth(depth: int, budget: int = PEEL_BUDGET) -> None:
    """The recursion's one guard: InputError below 0, CapacityError past ``budget``."""
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    if depth > budget:
        raise CapacityError(f"depth {depth} exceeds the level budget {budget}")


@dataclass(frozen=True)
class _Levels:
    """What every level step of one tuple reads.

    ``row`` is the p x np row [a_1 .. a_n], ``adj`` the n x p x p stack
    a_1* .. a_n*, ``gram`` the Hermitian R = sum a_i a_i* and ``r`` = ||R||^(1/2).
    """

    row: np.ndarray
    adj: np.ndarray
    gram: np.ndarray
    r: float


def _levels(t: MatrixTuple) -> _Levels:
    """The level data of ``t``, built on first use and kept on the (frozen) tuple, so
    that the calls of one verdict share one row gram and one eigensolve."""
    levels = t.__dict__.get("_levels")
    if levels is None:
        g = t.row_gram()
        r = math.sqrt(max(0.0, float(np.linalg.eigvalsh(g)[-1])))
        levels = _Levels(row=np.hstack(t.a), adj=np.stack([m.conj().T for m in t.a]),
                         gram=0.5 * (g + g.conj().T), r=r)
        for shared in (levels.row, levels.adj, levels.gram):  # every later call reads these
            shared.setflags(write=False)
        object.__setattr__(t, "_levels", levels)
    return levels


def _positive_definite(x: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _first_not_positive_definite(xs: np.ndarray) -> int | None:
    """Index of the first pivot of the stack ``xs`` that is not positive definite, else None.

    One stacked Cholesky settles the usual case; only a failing stack is searched.
    """
    try:
        np.linalg.cholesky(xs)
        return None
    except np.linalg.LinAlgError:
        return next((j for j, x in enumerate(xs) if not _positive_definite(x)), None)


def _gains(x: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """The gains K_i = X^{-1} a_i*, stacked n x p x p like the adjoint stack ``adj``."""
    return np.linalg.solve(x, adj)


#: Pivots checked by one stacked Cholesky of the walk.
_CHECK_LEVELS = 32


def _walk(levels: _Levels, depth: int, shift: float = 0.0,
          slope: bool = False) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Walk X_0 = (1 - shift) I, X_{k+1} = X_0 - sum a_i X_k^{-1} a_i* up to X_depth.

    Returns ``(depth, X_depth, dX_depth)`` when X_0..X_{depth-1} are positive
    definite, so that X_depth is the vacuum short of ``band_depth - shift * I`` if
    it is positive definite itself; else ``(k, X_k, dX_k)`` at the first k < depth
    whose X_k is not.  With ``slope``, dX = dX/dshift comes along as
    -I + sum_i K_i* dX K_i; otherwise it is None.

    Level 1 is closed form: with s = 1 - shift, X_1 = s I - R/s and dX_1 = -I - R/s^2.
    Each later level is one solve against ``levels.adj`` for the n x p x p gains,
    whose np x p view [K_1; ..; K_n] the row multiplies.  The pivots are kept
    unsymmetrized and checked ``_CHECK_LEVELS`` at a time by one stacked Cholesky
    (which reads the lower triangle); only the pivot returned is hermitized.
    Without the slope the recursion is a fixed map of X alone, so a checked batch
    short of the last whose final pivot equals an earlier one of the batch ends the
    walk: from there the pivots cycle through positive definite ones (a fixed point,
    or a short cycle of roundings), and X_depth is read off that cycle.
    """
    p = levels.row.shape[0]
    eye = np.eye(p)
    s = 1.0 - shift
    base = s * np.eye(p, dtype=np.complex128)
    if depth == 0 or not s > 0.0:
        return 0, base, (-eye if slope else None)
    x = base - levels.gram / s
    dx = -eye - levels.gram / (s * s) if slope else None
    if depth == 1 or not s > levels.r:  # X_1 = s I - R/s is positive definite iff s > r
        return 1, x, dx
    size = min(_CHECK_LEVELS, depth - 2)
    xs = np.empty((size, p, p), dtype=np.complex128)
    dxs = np.empty((size, p, p), dtype=np.complex128) if slope else None
    first, j = 2, 0  # xs[:j] holds the unchecked pivots X_first .. X_{first + j - 1}
    for k in range(2, depth + 1):
        try:
            c = _gains(x, levels.adj)
        except np.linalg.LinAlgError:  # X_{k-1} is singular
            c = None
        else:
            stacked = c.reshape(-1, p)
            if slope:
                dx = stacked.conj().T @ (dx @ c).reshape(-1, p) - eye
            x = base - levels.row @ stacked
            if k == depth:
                break
            xs[j] = x
            if slope:
                dxs[j] = dx
            j += 1
        if c is None or j == size or k == depth - 1:
            bad = _first_not_positive_definite(xs[:j])
            if bad is not None:
                k, x, dx = first + bad, xs[bad], (dxs[bad] if slope else None)
                break
            if c is None:
                k -= 1
                break
            if not slope and k < depth - 1:
                same = np.flatnonzero((xs[:j - 1] == x).all(axis=(1, 2)))
                if same.size:
                    # X_k == X_{k-q}: the pivots X_{k-q+1} .. X_k repeat forever.
                    q = j - 1 - same[-1]
                    k, x = depth, xs[j - 1 - (k - depth) % q]
                    break
            first, j = k + 1, 0
    return k, 0.5 * (x + x.conj().T), dx


def band_lower_bound(t: MatrixTuple, depth: int) -> tuple[float, float]:
    """``(r, lo)``: r = ||sum a_i a_i*||^(1/2) and lo = 1 - 2 r cos(pi/(depth+2)).

    The coupling operator has norm r and vanishes at power depth + 1, so its
    numerical radius is at most r cos(pi/(depth+2)) (Haagerup-de la Harpe):
    lo bounds lam_min(band_d) from below at every d <= depth, and is exact
    for scalar tuples.
    """
    check_depth(depth)
    r = _levels(t).r
    return r, 1.0 - 2.0 * r * math.cos(math.pi / (depth + 2))


def _fitted_pole(mu: float, f: float, g: float, prev: tuple | None, pole: float) -> float:
    """The pole P of A + B/(P - mu) through (f, g = f') at ``mu`` and the (mu, f) of ``prev``.

    With s the secant slope, P - mu = s (mu - mu_prev) / (g - s).  A fit that puts
    P left of either point, or not left of ``pole`` (a shift already seen at or past
    the pole), gives way to ``pole``.
    """
    if prev is None:
        return pole
    delta = mu - prev[0]
    s = (f - prev[1]) / delta
    u = s * delta / (g - s) if g != s else math.inf
    return mu + u if 0.0 < u and 0.0 < u + delta and mu + u < pole else pole


def _pole_step(mu: float, f: float, g: float, pole: float) -> float | None:
    """Step to the root of A + B/(pole - mu) fitted to (f, g = f') at mu: f / (f/(pole - mu) - g).

    Newton's step when the pole is not right of mu; None when the model has no root.
    """
    u = pole - mu
    denom = f / u - g if u > 0.0 else -g
    return f / denom if denom > 0.0 else None


def _extrapolated_pole(stops: dict, depth: int) -> float | None:
    """lam_min(band_{depth-1}) extrapolated from the walks that stopped short, or None.

    ``stops`` maps a level k to the least shift whose walk stopped at X_k, which
    lies in [lam_min(band_k), lam_min(band_{k-1})).  Those eigenvalues fall to their
    limit like C/(k+2)^2 (for scalar tuples lam_min(band_k) = 1 - 2r cos(pi/(k+2)));
    the law through the two deepest stops is read at k = depth - 1.
    """
    if len(stops) < 2:
        return None
    (k1, m1), (k2, m2) = sorted(stops.items())[-2:]
    a1, a2 = (k1 + 2.0) ** -2, (k2 + 2.0) ** -2
    c = (m1 - m2) / (a1 - a2)
    return m2 + c * ((depth + 1.0) ** -2 - a2) if c > 0.0 else None


def band_min_eig(t: MatrixTuple, depth: int) -> float:
    """Least eigenvalue of the band operator of ``t`` at truncation depth ``depth``.

    It is 1 - r at depth 1.  At depth d >= 2 it is the root of f(mu) =
    lam_min(X_d(mu)) in the bracket [lo, 1 - r] (r and lo from ``band_lower_bound``),
    left of the pole P = lam_min(band_{d-1}) <= 1 - r past which the walk stops
    short of X_d.  Left of P, f is concave with slope <= -1, so Newton from the
    left overshoots, often past P.

    Each walk that reaches X_d steps instead to the root of the pole model
    f ~ A + B/(P - mu), as secular-equation solvers do (Bunch-Nielsen-Sorensen,
    Numer. Math. 31, 1978): fitted to (f, f') there and to f at the walk before,
    or, with one such walk, with P the least shift seen at or past the pole.  For
    a simple pole the model is exact.  When Newton from the left reaches 1 - r, one
    probe just below 1 - r settles a root that coincides with the pole (nilpotent
    arms, where the model would only halve the distance).  A walk that stops short
    at level k has mu >= lam_min(band_k); the next shift is P as extrapolated from
    the two deepest such stops (``_extrapolated_pole``), which at large depths
    finds the cluster of poles next to the root in a few walks.  A shift outside
    the bracket bisects it.  The iteration ends when a step, or the step that its
    quadratic convergence predicts next, is within the resolution of mu.
    """
    r, lo = band_lower_bound(t, depth)
    if depth == 0 or r == 0.0:
        return 1.0
    if depth == 1:
        return 1.0 - r
    levels = _levels(t)
    hi = pole = top = 1.0 - r
    # Resolution of mu and of the shifted diagonal 1 - mu on the bracket.
    tol = 4.0 * np.finfo(float).eps * max(1.0, r)
    # prev: (mu, f) of the walk before; last: the step to mu; stops: level -> shift.
    mu, prev, last, stops = lo, None, None, {}
    for _ in range(NEWTON_BUDGET):
        k, x, dx = _walk(levels, depth, mu, slope=True)
        nxt = step = None
        if k < depth:  # mu lies at or past the pole, and past lam_min(band_k)
            hi = pole = stops[k] = mu
            nxt = _extrapolated_pole(stops, depth)
        else:
            w, v = np.linalg.eigh(x)
            f, g = float(w[0]), float(np.real(np.vdot(v[:, 0], dx @ v[:, 0])))
            lo, hi = (mu, hi) if f > 0.0 else (lo, mu)
            if hi == top and mu - f / g >= top and lo < top - 2.0 * tol:
                nxt = top - 2.0 * tol
            else:
                fit = _fitted_pole(mu, f, g, prev, pole)
                step = _pole_step(mu, f, g, fit)
                if step is not None:
                    # The next step is about c step^2, with c read off the last two steps
                    # and off the model's curvature 1/(P - mu).
                    curvature = 1.0 / (fit - mu) if fit > mu else 0.0
                    if abs(step) <= tol or (last is not None and step * step * max(
                            abs(step) / last ** 2, curvature) <= tol):
                        return mu + step
                    nxt = mu + step
            prev = (mu, f)
        if nxt is None or not lo < nxt < hi:
            nxt, step = 0.5 * (lo + hi), None
            if hi - lo <= tol:
                return nxt
        mu, last = nxt, step
    raise ConvergenceError(
        f"least band eigenvalue at depth {depth} not converged after {NEWTON_BUDGET} passes")


def first_nonpositive_depth(t: MatrixTuple, max_depth: int, shift: float = 0.0) -> int | None:
    """Least d <= max_depth with ``band_d - shift * I`` not positive definite, else None."""
    check_depth(max_depth)
    # band_d - shift * I is positive definite exactly when X_0..X_d are.
    k, _, _ = _walk(_levels(t), max_depth + 1, shift)
    return k if k <= max_depth else None


def _arrowhead_margin(a0: np.ndarray, arms, diag: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(arrowhead_matrix(a0, arms, diag))[0])


def ando_complete(t: MatrixTuple, depth: int = 6, epsilon: float | None = None,
                  tol: float = 1e-8) -> AndoCertificate:
    """Completion certificate for a dual row contraction.

    Takes b as the short of the epsilon-shrunk depth-``depth`` band
    operator onto the vacuum block, which is the level pivot X_depth at
    shift epsilon, sets a = 1 - b, and returns the arrowhead together with
    its eigenvalue margin.  ``epsilon`` defaults to half the truncation
    margin (the band's least eigenvalue, from ``band_min_eig``).  A given
    epsilon must lie in (0, 1) and below that margin, so the shrunk band
    stays positive; the walk raises DomainError at the first pivot where
    it is not.

    Boundary tuples defeat any fixed shallow truncation: their only valid
    pair sits at the fixed point of the level recursion, which the
    depth-L short reaches only as L grows.  So when the arrowhead margin is
    below -tol, the first Newton iterate for that fixed point whose margin
    clears -tol is taken instead (``epsilon_used == 0``,
    ``depth_used == depth``).
    """
    check_depth(depth)
    if epsilon is None:
        band_margin = band_min_eig(t, depth)
        if band_margin <= tol:
            raise DomainError(
                f"band operator not strictly positive at depth {depth} "
                f"(min eigenvalue {band_margin:.3e}); no completion exists on this truncation")
        epsilon = 0.5 * band_margin
    elif not 0.0 < epsilon < 1.0:  # the band's least eigenvalue is at most 1
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon:.3e}")

    p = t.p
    k, b, _ = _walk(_levels(t), depth, epsilon)
    if k < depth or not _positive_definite(b):
        raise DomainError(f"band operator is not positive definite at depth {k} "
                          f"(shift {epsilon:.3e})")
    margin = _arrowhead_margin(np.eye(p) - b, t.a, b)
    if margin < -tol:
        b, margin = _fixed_point(t, tol)
        epsilon = 0.0
    a = np.eye(p, dtype=np.complex128) - b
    head = arrowhead_matrix(a, t.a, b)
    return AndoCertificate(a=a, b=b, arrowhead=head, margin=margin,
                          epsilon_used=float(epsilon), depth_used=depth, arms=t)


def _stein(k: np.ndarray) -> np.ndarray:
    """I - sum_i kron(K_i*, K_i^T) for the n x p x p gains ``k``: the matrix of
    H -> H - sum_i K_i* H K_i on row-major vec(H).

    Each term is one broadcast outer product, the entries of ``np.kron``; the
    terms are added in order i = 1..n, one p^2 x p^2 temporary at a time.
    """
    p = k.shape[1]
    total = 0
    for m in k:
        kh, kt = m.conj().T, m.T
        total += (kh[:, None, :, None] * kt[None, :, None, :]).reshape(p * p, p * p)
    return np.eye(p * p) - total


def _fixed_point(t: MatrixTuple, tol: float) -> tuple[np.ndarray, float]:
    """Newton from X = I on X + sum a_i X^{-1} a_i* = I, to the first margin >= -tol.

    Each step solves H - sum K_i* H K_i = I - X - sum a_i K_i, K_i = X^{-1} a_i*, on
    row-major vec(H) through the Stein matrix of ``_stein``, assembled one broadcast
    outer product per term.  The arrowhead is assembled once; a step rewrites only
    its diagonal blocks I - X and X before the eigensolve.  For a dual row
    contraction the iterates decrease to the maximal solution (Guo-Lancaster), so a
    pivot that is not positive definite, a singular step or a rising one ends the
    iteration; the level recursion then tells refutation from exhaustion.
    """
    p, eye = t.p, np.eye(t.p, dtype=np.complex128)
    levels = _levels(t)
    row, adj = levels.row, levels.adj
    head = arrowhead_matrix(eye, t.a, eye)
    blocks = [slice(i * p, (i + 1) * p) for i in range(1, t.n + 1)]
    x = eye
    for _ in range(NEWTON_BUDGET):
        try:
            np.linalg.cholesky(x)
            k = _gains(x, adj)
            h = np.linalg.solve(_stein(k), np.ravel(eye - x - row @ k.reshape(-1, p))).reshape(p, p)
        except np.linalg.LinAlgError:
            break
        h = 0.5 * (h + h.conj().T)
        if np.linalg.eigvalsh(h)[-1] > tol:
            break
        x = x + h
        head[:p, :p] = eye - x
        for b in blocks:
            head[b, b] = x
        margin = float(np.linalg.eigvalsh(head)[0])
        if margin >= -tol:
            return x, margin
    depth = first_nonpositive_depth(t, PEEL_BUDGET)
    if depth is not None:
        raise DomainError(f"band operator is not positive definite at depth {depth}; "
                          "no strict completion exists")
    raise ConvergenceError(f"arrowhead margin still below -{tol:.1e} where the fixed-point "
                           "iteration stopped; tuple sits too close to the boundary")
