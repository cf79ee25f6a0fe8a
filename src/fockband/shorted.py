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
arithmetic and stops at the first pivot that is not positive definite.
Per-depth positivity, the vacuum short and the band's least eigenvalue
(the root of lam_min(X_d(mu)), found by Newton with the walker's slope)
are all read off it; the band itself is never built, so a request is
bounded by its depth alone (``check_depth``).

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
        sum_gap = float(np.linalg.norm(self.a + self.b - np.eye(self.a.shape[0]), 2))
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


def _row_and_adjoints(t: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """The p x np rows [a_1 .. a_n] and [a_1* .. a_n*] that one level step multiplies."""
    return np.hstack(t.a), np.hstack([m.conj().T for m in t.a])


def _positive_definite(x: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _gains(x: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """The gains K_i = X^{-1} a_i*, stacked n x p x p."""
    p = x.shape[0]
    return np.linalg.solve(x, adj).reshape(p, -1, p).swapaxes(0, 1)


def _walk(stacks: tuple[np.ndarray, np.ndarray], depth: int, shift: float = 0.0,
          slope: bool = False) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Walk X_0 = (1 - shift) I, X_{k+1} = X_0 - sum a_i X_k^{-1} a_i* up to X_depth.

    ``stacks`` is ``_row_and_adjoints(t)``.  Returns ``(depth, X_depth, dX_depth)``
    when X_0..X_{depth-1} are positive definite, so that X_depth is the vacuum
    short of ``band_depth - shift * I`` if it is positive definite itself; else
    ``(k, X_k, dX_k)`` at the first k < depth whose X_k is not.  With ``slope``,
    dX = dX/dshift comes along as -I + sum_i K_i* dX K_i; otherwise it is None.
    """
    row, adj = stacks
    p = row.shape[0]
    base = (1.0 - shift) * np.eye(p, dtype=np.complex128)
    x, dx = base, (-np.eye(p) if slope else None)
    for k in range(depth):
        if not _positive_definite(x):
            return k, x, dx
        c = _gains(x, adj)
        stacked = c.reshape(-1, p)
        if slope:
            dx = stacked.conj().T @ (dx @ c).reshape(-1, p) - np.eye(p)
        out = base - row @ stacked
        x = 0.5 * (out + out.conj().T)
    return depth, x, dx


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
    stacks = _row_and_adjoints(t)
    lo, hi = 1.0 - 2.0 * r * math.cos(math.pi / (depth + 2)), 1.0 - r
    # Resolution of mu and of the shifted diagonal 1 - mu on the bracket.
    tol = 4.0 * np.finfo(float).eps * max(1.0, r)
    mu, newton = lo, False
    for _ in range(NEWTON_BUDGET):
        k, x, dx = _walk(stacks, depth, mu, slope=True)
        if k < depth:  # mu lies past the pole lam_min(band_{depth-1}) of f
            hi = mu
        else:
            w, v = np.linalg.eigh(x)
            f, slope = float(w[0]), float(np.real(np.vdot(v[:, 0], dx @ v[:, 0])))
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


def first_nonpositive_depth(t: MatrixTuple, max_depth: int, shift: float = 0.0) -> int | None:
    """Least d <= max_depth with ``band_d - shift * I`` not positive definite, else None."""
    check_depth(max_depth)
    # band_d - shift * I is positive definite exactly when X_0..X_d are.
    k, _, _ = _walk(_row_and_adjoints(t), max_depth + 1, shift)
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
    k, b, _ = _walk(_row_and_adjoints(t), depth, epsilon)
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


def _fixed_point(t: MatrixTuple, tol: float) -> tuple[np.ndarray, float]:
    """Newton from X = I on X + sum a_i X^{-1} a_i* = I, to the first margin >= -tol.

    Each step solves H - sum K_i* H K_i = I - X - sum a_i K_i, K_i = X^{-1} a_i*, densely
    in row-major vec form.  For a dual row contraction the iterates decrease to the
    maximal solution (Guo-Lancaster), so a pivot that is not positive definite, a
    singular step or a rising one ends the iteration; the level recursion then tells
    refutation from exhaustion.
    """
    p, eye = t.p, np.eye(t.p, dtype=np.complex128)
    row, adj = _row_and_adjoints(t)
    x = eye
    for _ in range(NEWTON_BUDGET):
        try:
            np.linalg.cholesky(x)
            k = _gains(x, adj)
            stein = np.eye(p * p) - sum(np.kron(m.conj().T, m.T) for m in k)
            h = np.linalg.solve(stein, np.ravel(eye - x - row @ k.reshape(-1, p))).reshape(p, p)
        except np.linalg.LinAlgError:
            break
        h = 0.5 * (h + h.conj().T)
        if np.linalg.eigvalsh(h)[-1] > tol:
            break
        x = x + h
        margin = _arrowhead_margin(eye - x, t.a, x)
        if margin >= -tol:
            return x, margin
    depth = first_nonpositive_depth(t, PEEL_BUDGET)
    if depth is not None:
        raise DomainError(f"band operator is not positive definite at depth {depth}; "
                          "no strict completion exists")
    raise ConvergenceError(f"arrowhead margin still below -{tol:.1e} where the fixed-point "
                           "iteration stopped; tuple sits too close to the boundary")
