"""Arrowhead operator systems inside M_{n+1} and their dual-side predicates.

Two concrete subsystems of (n+1) x (n+1) block matrices drive everything
here.  The source system consists of arrowheads with corner a0, constant
tail diagonal b, and arms a_i; it maps onto the span of the truncated
isometries through the quotient phi sending the corner unit and the tail
unit each to half the identity and the arm units to half of S_i, S_i*.
The dual system fixes the whole diagonal to a single coefficient B0 and
keeps arms B_i; its positivity is equivalent to B0 >= 0 together with a
row-contraction bound on the arms congruated by B0^{-1/2}.  That bound is
decided exactly, from one eigendecomposition of B0 whose eigenvalues are
floored at max(tol, eps * max(1, ||B0||)): flooring only enlarges B0, so a
refutation stays sound, and an arm off range(B0) blows up instead of
being lost.

The decomposition half of the module certifies positivity of an ep-shifted
arrowhead as a sum of Kronecker products P_ij (x) Q_ij where P is one
fixed 0/1 psd pattern depending only on n and Q is a psd matrix built
from the element.  Both factors are checked by eigensolves rather than
trusted from their construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, InputError
from .fock import MatrixTuple, make_fock, cuntz_isometries
from .linalg import as_matrix, hermitize, kron, psd_margin
from .radius import CERTIFIED_NO, CERTIFIED_YES, ContractionVerdict, is_dual_row_contraction
from .shorted import arrowhead_matrix

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class EnElement:
    """Arrowhead with corner a0, tail diagonal b, and arms a_1..a_n."""

    n: int
    p: int
    a0: np.ndarray
    b: np.ndarray
    arms: tuple[np.ndarray, ...]

    def matrix(self) -> np.ndarray:
        return arrowhead_matrix(self.a0, self.arms, self.b)


def en_element(a0, b, arms) -> EnElement:
    a0 = as_matrix(a0, "a0")
    b = as_matrix(b, "b")
    mats = tuple(as_matrix(m, f"arm {i + 1}") for i, m in enumerate(arms))
    if not mats:
        raise InputError("element needs at least one arm")
    p = a0.shape[0]
    for name, m in [("a0", a0), ("b", b), *((f"arm {i + 1}", m) for i, m in enumerate(mats))]:
        if m.shape != (p, p):
            raise InputError(f"{name} has shape {m.shape}, expected ({p}, {p})")
    return EnElement(n=len(mats), p=p, a0=a0, b=b, arms=mats)


@dataclass(frozen=True)
class PhiImage:
    """Coefficients of the quotient image: unit, S_i, and S_i* parts."""

    unit: np.ndarray
    s: tuple[np.ndarray, ...]
    s_adj: tuple[np.ndarray, ...]


def phi_apply(e: EnElement) -> PhiImage:
    """Push an arrowhead through the quotient onto the isometry span.

    The corner and tail units each map to half the identity, the arm
    units to half of S_i and S_i* respectively, so the element lands on
    ``(a0 + b)/2`` against the unit and ``a_i/2`` against each S_i.
    """
    unit = 0.5 * (e.a0 + e.b)
    s = tuple(0.5 * m for m in e.arms)
    s_adj = tuple(0.5 * m.conj().T for m in e.arms)
    return PhiImage(unit=unit, s=s, s_adj=s_adj)


def image_operator(img: PhiImage, depth: int) -> sp.csr_matrix:
    """Realize a quotient image on the depth-``depth`` truncation."""
    import scipy.sparse as sp
    n = len(img.s)
    f = make_fock(n, depth)
    iso = cuntz_isometries(f)
    out = sp.kron(sp.identity(f.dim, format="csr"), img.unit, format="csr")
    for s_i, c, d in zip(iso.ops, img.s, img.s_adj):
        out = out + sp.kron(s_i, c, format="csr") + sp.kron(s_i.T, d, format="csr")
    return out.tocsr()


def kernel_membership(e: EnElement, tol: float = 1e-8) -> bool:
    """True iff the element dies under the quotient.

    The kernel is one-dimensional up to matrix coefficients: arms zero
    and a0 = -b (the corner unit minus the tail unit).
    """
    if any(float(np.linalg.norm(m, 2)) > tol for m in e.arms):
        return False
    return float(np.linalg.norm(e.a0 + e.b, 2)) <= tol


def pattern_matrix(n: int) -> np.ndarray:
    """The fixed 0/1 psd pattern in M_{n+1}(M_{n+1}) used by en_decompose.

    Block (0,0) is diag(0, 1, .., 1); block (0, j) is the unit with a one
    at row j, column 0; block (i, 0) its adjoint; block (i, i) the unit
    at the corner.  The pattern has rank n and does not depend on the
    element being decomposed.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    m = n + 1
    out = np.zeros((m * m, m * m))

    def block(i: int, j: int) -> tuple[slice, slice]:
        return slice(i * m, (i + 1) * m), slice(j * m, (j + 1) * m)

    out[block(0, 0)] = np.diag([0.0] + [1.0] * n)
    for i in range(1, m):
        unit = np.zeros((m, m))
        unit[i, 0] = 1.0
        out[block(0, i)] = unit
        out[block(i, 0)] = unit.T
        corner = np.zeros((m, m))
        corner[0, 0] = 1.0
        out[block(i, i)] = corner
    return out


@dataclass(frozen=True)
class EnDecomposition:
    """Positivity certificate for an ep-shifted arrowhead.

    The shifted element reconstructs as ``corner (x) D`` plus the sum of
    ``P_ij (x) Q_ij`` over all blocks of the fixed pattern P and the
    element-dependent psd matrix Q.
    """

    n: int
    p: int
    D: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    epsilon: float

    def reconstruction(self) -> np.ndarray:
        m = self.n + 1
        p = self.p
        out = np.zeros((m * p, m * p), dtype=np.complex128)
        out[:p, :p] = self.D
        for i in range(m):
            for j in range(m):
                p_block = self.P[i * m:(i + 1) * m, j * m:(j + 1) * m]
                q_block = self.Q[i * p:(i + 1) * p, j * p:(j + 1) * p]
                out += kron(p_block, q_block)
        return out


def en_decompose(e: EnElement, epsilon: float = 1e-6) -> EnDecomposition:
    """Decompose the ep-shifted arrowhead into the fixed pattern against Q."""
    if epsilon < 0:
        raise InputError(f"epsilon must be nonnegative, got {epsilon}")
    shifted = e.matrix() + epsilon * np.eye((e.n + 1) * e.p)
    report = psd_margin(hermitize(shifted, "shifted element"))
    if not report.is_psd:
        raise DomainError(
            f"element is not psd after the epsilon shift; min eigenvalue "
            f"{report.min_eigenvalue:.3e}")
    b_shift = hermitize(e.b + epsilon * np.eye(e.p), "b")
    a0_shift = e.a0 + epsilon * np.eye(e.p)
    try:
        binv_arms = [np.linalg.solve(b_shift, m.conj().T) for m in e.arms]
    except np.linalg.LinAlgError:
        raise DomainError("tail diagonal is singular; decompose with a positive epsilon")
    d = a0_shift.astype(np.complex128).copy()
    for m, col in zip(e.arms, binv_arms):
        d -= m @ col
    d = hermitize(d, "D")

    p = e.p
    q = np.zeros(((e.n + 1) * p, (e.n + 1) * p), dtype=np.complex128)
    q[:p, :p] = b_shift
    for i, m in enumerate(e.arms, start=1):
        q[:p, i * p:(i + 1) * p] = m.conj().T
        q[i * p:(i + 1) * p, :p] = m
    for i, mi in enumerate(e.arms, start=1):
        for j, col_j in enumerate(binv_arms, start=1):
            q[i * p:(i + 1) * p, j * p:(j + 1) * p] = mi @ col_j
    return EnDecomposition(n=e.n, p=e.p, D=d, P=pattern_matrix(e.n),
                           Q=hermitize(q, "Q"), epsilon=float(epsilon))


@dataclass(frozen=True)
class DualElement:
    """Element of the dual system: constant diagonal B0 with arms B_i."""

    n: int
    p: int
    B0: np.ndarray
    B: tuple[np.ndarray, ...]


def dual_element(b0, bs) -> DualElement:
    b0 = as_matrix(b0, "B0")
    mats = tuple(as_matrix(m, f"B_{i + 1}") for i, m in enumerate(bs))
    if not mats:
        raise InputError("dual element needs at least one arm")
    p = b0.shape[0]
    if b0.shape != (p, p):
        raise InputError(f"B0 must be square, got {b0.shape}")
    for i, m in enumerate(mats):
        if m.shape != (p, p):
            raise InputError(f"B_{i + 1} has shape {m.shape}, expected ({p}, {p})")
    return DualElement(n=len(mats), p=p, B0=b0, B=mats)


def theta_embed(d: DualElement) -> np.ndarray:
    """Arrowhead realization with constant diagonal B0 and arms B_i."""
    return arrowhead_matrix(d.B0, d.B, d.B0)


@dataclass(frozen=True)
class DualVerdict:
    """Positivity verdict for a dual element.

    ``witness`` is the decisive quantity: the least eigenvalue of B0 when
    that refutes the element, otherwise the squared row norm of the arms
    congruated by the floored B0^{-1/2}, whose comparison against 1
    settles the verdict.
    """

    status: str
    witness: float


def dual_positive(d: DualElement, tol: float = 1e-8) -> DualVerdict:
    """Decide positivity of a dual element, i.e. of ``theta_embed(d)``.

    The arrowhead is psd exactly when B0 is psd, the arms vanish off
    range(B0), and the arms congruated by B0^{+1/2} form a row contraction.
    One eigendecomposition B0 = V diag(w) V* decides all three.  A least
    eigenvalue below -tol refutes the element with that eigenvalue as
    witness.  Otherwise every arm is congruated by V diag(max(w, f))^{-1/2} V*
    with the floor f = max(tol, eps * max(1, w[-1])), and the element is
    positive iff the squared row norm of the result is at most 1 + tol.

    Raising the eigenvalues to f gives a B0' >= B0, and the arrowhead of B0'
    dominates the element's, so a row norm above 1 is a sound refutation;
    an arm that leaks off range(B0) is scaled up by 1/f instead of being
    dropped.  The float-rounding term eps keeps the floor positive at
    tol = 0, where a singular B0 would otherwise divide by zero.
    """
    herm_gap = float(np.linalg.norm(d.B0 - d.B0.conj().T, 2))
    if herm_gap > 1e-12 * max(1.0, float(np.linalg.norm(d.B0, 2))):
        raise InputError(f"B0 must be Hermitian; anti-Hermitian part has norm {herm_gap:.3e}")
    w, v = np.linalg.eigh(hermitize(d.B0, "B0"))
    if w[0] < -tol:
        return DualVerdict(status=CERTIFIED_NO, witness=float(w[0]))
    floor = max(tol, np.finfo(float).eps * max(1.0, w[-1]))
    inv_sqrt = (v * (1.0 / np.sqrt(np.maximum(w, floor)))) @ v.conj().T
    arms = MatrixTuple(d.n, d.p, tuple(inv_sqrt @ m @ inv_sqrt for m in d.B))
    norm = float(np.linalg.eigvalsh(hermitize(arms.row_gram(), "gram"))[-1])
    return DualVerdict(status=CERTIFIED_YES if norm <= 1.0 + tol else CERTIFIED_NO,
                       witness=norm)


@dataclass(frozen=True)
class DualMap:
    """Unital self-adjoint map off the dual system, pinned by its arm images."""

    n: int
    q: int
    unit: np.ndarray
    x: tuple[np.ndarray, ...]


def dual_map(unit, xs) -> DualMap:
    unit = as_matrix(unit, "unit image")
    mats = tuple(as_matrix(m, f"x_{i + 1}") for i, m in enumerate(xs))
    if not mats:
        raise InputError("map needs at least one arm image")
    q = unit.shape[0]
    if not np.allclose(unit, np.eye(q), atol=1e-12):
        raise InputError("map must be unital: the unit image must be the identity")
    for i, m in enumerate(mats):
        if m.shape != (q, q):
            raise InputError(f"x_{i + 1} has shape {m.shape}, expected ({q}, {q})")
    return DualMap(n=len(mats), q=q, unit=unit, x=mats)


def dual_cp_check(m: DualMap, max_depth: int = 6, tol: float = 1e-8) -> ContractionVerdict:
    """Complete positivity of a dual-system map.

    Complete positivity is equivalent to the adjoint tuple (x_1*, .., x_n*)
    being a dual row contraction, so the verdict (including soundness of
    yes and no) is inherited from that predicate.
    """
    adj = MatrixTuple(n=m.n, p=m.q, a=tuple(x.conj().T for x in m.x))
    return is_dual_row_contraction(adj, max_depth=max_depth, tol=tol)
