"""Numerical radius estimation and the two contraction predicates.

The numerical radius of a single operator T is estimated from below by
sweeping ``max_theta lam_max(Re(e^{i theta} T))`` over a uniform angle grid
and refining the best grid lobes by golden-section search.  The sweep value
is always a certified lower bound; the matching upper bound adds the
Lipschitz slack ``||T|| * pi / theta_points``.

The joint radius of a matrix tuple (a_1, .., a_n) at truncation depth d is
the numerical radius of ``T_d = sum_j S_j (x) a_j*`` on the depth-d word
space.  Every rotation of T_d is unitarily equivalent to T_d, so no angle
sweep is needed: the joint radius is ``(1 - lam_min(band_d)) / 2`` exactly,
read off the least eigenvalue of the band operator ``I + T_d + T_d*``.
That eigenvalue comes from the p x p level recursion of the shorted
module (``band_min_eig``); the band itself is never built.  The radius is
nondecreasing in d, so each evaluation lower-bounds the limit.

Two predicates return three-valued verdicts:

* ``is_row_contraction``: decided exactly by the norm of sum a_i a_i*.
* ``is_dual_row_contraction``: positivity of the band operator at every
  depth, scanned by the p x p level recursion of the shorted module.  A
  band eigenvalue below -tol at some truncation refutes it; only a
  completion certificate (see the shorted module) can confirm it, since
  band positivity at finitely many depths proves nothing about deeper
  truncations.  Anything else stays undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InputError
from .fock import MatrixTuple
# lam_min is unused here: perfbench/test_bench.py::test_untraced_run_installs_no_wrapper reads it.
from .linalg import as_matrix, lam_max, lam_min, op_norm  # noqa: F401
from .shorted import (AndoCertificate, ando_complete, band_lower_bound, band_min_eig,
                      first_nonpositive_depth)

CERTIFIED_YES = "certified_yes"
CERTIFIED_NO = "certified_no"
UNDECIDED = "undecided"

#: Default number of grid angles for the radius sweep.
THETA_POINTS = 720

#: Default deepest truncation tried by the dual predicate.
MAX_DEPTH = 6

#: Deepest ``sweep``/``lift`` ladder: each depth is solved from scratch, O(D^2) level steps.
#: On one Xeon core depth 200 took 0.6 s for scalars, 12 s for a random n = p = 3 tuple.
LADDER_BUDGET = 200


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified bracket for a numerical radius sweep."""

    lower: float
    grid_upper: float
    depth: int | None
    theta_points: int


@dataclass(frozen=True)
class ContractionVerdict:
    """Three-valued outcome of a contraction predicate.

    ``margin`` is the decisive eigenvalue gap: for a refutation it is the
    negative band eigenvalue that witnesses failure, otherwise the margin
    at the deepest truncation examined.
    """

    status: str
    margin: float
    depth: int | None = None
    certificate: AndoCertificate | None = None


def _check_theta_points(theta_points: int) -> None:
    if theta_points < 8:
        raise InputError(f"theta_points must be >= 8, got {theta_points}")


def _angle_sweep(t_mat, theta_points: int) -> float:
    """Best lower bound for max_theta lam_max(Re(e^{i theta} T))."""
    _check_theta_points(theta_points)
    t_adj = t_mat.conj().T

    def f(theta: float) -> float:
        z = np.exp(1j * theta)
        return lam_max(0.5 * (z * t_mat + np.conj(z) * t_adj))

    step = 2.0 * math.pi / theta_points
    vals = np.array([f(k * step) for k in range(theta_points)])
    best = float(vals.max())
    # Refine the two strongest circular-grid lobes; a single lobe can lose
    # the true maximum when two lobes nearly tie at grid resolution.
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.nonzero(is_peak)[0]
    if len(peaks) == 0:
        peaks = np.array([int(vals.argmax())])
    order = peaks[np.argsort(vals[peaks])[::-1]]
    for k in order[:2]:
        center = k * step
        best = max(best, _golden_max(f, center - step, center + step))
    return best


def _golden_max(f, lo: float, hi: float, interval_tol: float = 1e-7) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = max(f1, f2)
    while hi - lo > interval_tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        best = max(best, f1, f2)
    return best


def numerical_radius(t, theta_points: int = THETA_POINTS) -> RadiusEstimate:
    """Angle-grid bracket for the numerical radius of a single operator."""
    t = as_matrix(t, "operator")
    if t.shape[0] != t.shape[1]:
        raise InputError(f"numerical radius requires a square matrix, got shape {t.shape}")
    lower = _angle_sweep(t, theta_points)
    slack = op_norm(t) * math.pi / theta_points
    return RadiusEstimate(lower=float(lower), grid_upper=float(lower + slack),
                          depth=None, theta_points=theta_points)


def joint_numerical_radius(t: MatrixTuple, depth: int,
                           theta_points: int = THETA_POINTS) -> RadiusEstimate:
    """Joint radius of a tuple at truncation depth ``depth``, exact up to the eigensolve.

    With D_w = diag(w^|word|) (x) I, D_w T D_w* = w T for every |w| = 1, so all
    rotations of T are unitarily equivalent and the angle maximum is the value
    at any one angle: lam_max(Re(-T)) = (1 - lam_min(band)) / 2.  The bracket
    is therefore closed (``grid_upper == lower``); ``theta_points`` is only
    validated and echoed.
    """
    _check_theta_points(theta_points)
    w = 0.5 * (1.0 - band_min_eig(t, depth))
    return RadiusEstimate(lower=w, grid_upper=w, depth=depth, theta_points=theta_points)


def is_row_contraction(t: MatrixTuple, tol: float = 1e-8) -> ContractionVerdict:
    """Decide ``||sum a_i a_i*|| <= 1`` exactly up to ``tol``.

    The margin is ``1 - ||sum a_i a_i*||``; no truncation is involved, so
    the verdict is never undecided.
    """
    norm = float(np.linalg.eigvalsh(0.5 * (t.row_gram() + t.row_gram().conj().T))[-1])
    margin = 1.0 - norm
    status = CERTIFIED_YES if norm <= 1.0 + tol else CERTIFIED_NO
    return ContractionVerdict(status=status, margin=margin)


def is_dual_row_contraction(t: MatrixTuple, max_depth: int = MAX_DEPTH,
                            tol: float = 1e-8) -> ContractionVerdict:
    """Three-valued band positivity check across truncation depths.

    One pass of the p x p level recursion (see the shorted module) at shift
    ``-tol`` finds the first depth d* <= max_depth at which some band
    eigenvalue is at most ``-tol``.  That pass runs only when the lower
    bound lo of ``band_lower_bound`` at max_depth is at most ``-tol``: lo falls
    with the depth and bounds every band_d, d <= max_depth, from below, so
    otherwise no depth can be flagged.  Band eigenvalues are then computed from
    d* upwards (or at max_depth alone when there is no such depth), and one
    below ``-tol`` refutes the claim at that depth (compressions of a
    positive operator stay positive, so the refutation is sound for the
    untruncated statement).  If no depth refutes and the margin at
    max_depth exceeds ``tol``, a completion certificate is attempted at
    max_depth with epsilon half that margin (``ando_complete``'s own
    default); only a strictly valid certificate upgrades the verdict to
    certified_yes.
    """
    _, lo = band_lower_bound(t, max_depth)
    first_bad = first_nonpositive_depth(t, max_depth, shift=-tol) if lo <= -tol else None
    for d in range(max_depth if first_bad is None else first_bad, max_depth + 1):
        margin = band_min_eig(t, d)
        if margin < -tol:
            return ContractionVerdict(status=CERTIFIED_NO, margin=float(margin), depth=d)
    cert = None
    if margin > tol:
        try:
            cert = ando_complete(t, depth=max_depth, epsilon=0.5 * margin, tol=tol)
        except (ConvergenceError, DomainError):
            pass
    if cert is not None and cert.strictly_valid(tol):
        return ContractionVerdict(status=CERTIFIED_YES, margin=float(margin),
                                  depth=max_depth, certificate=cert)
    return ContractionVerdict(status=UNDECIDED, margin=float(margin), depth=max_depth)


@dataclass(frozen=True)
class DualRowReport:
    """Joint outcome of the dual and plain row-contraction checks."""

    dual: ContractionVerdict
    row: ContractionVerdict

    @property
    def implication_ok(self) -> bool:
        """A certified dual row contraction must be a row contraction."""
        if self.dual.status != CERTIFIED_YES:
            return True
        return self.row.status == CERTIFIED_YES


def dual_implies_row(t: MatrixTuple, max_depth: int = MAX_DEPTH,
                     tol: float = 1e-8) -> DualRowReport:
    """Run both contraction predicates and report them side by side."""
    return DualRowReport(dual=is_dual_row_contraction(t, max_depth=max_depth, tol=tol),
                         row=is_row_contraction(t, tol=tol))
