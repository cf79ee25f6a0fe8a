"""Dense complex linear algebra with explicit tolerance reporting.

All matrices are numpy arrays with dtype complex128.  Hermitian inputs are
symmetrized on entry via ``hermitize`` so that eigenvalue routines see an
exactly Hermitian matrix.  ``psd_margin`` reports the minimal eigenvalue
together with the tolerance that was used, so callers never compare
against an implicit zero.

Sparse input (anything with ``toarray``, scipy.sparse included) is
converted to a dense array once, in ``as_matrix``, so every helper here
runs dense LAPACK without importing scipy.  No band operator comes here:
its positivity, vacuum shorts and least eigenvalue are p x p level
recursions in the shorted module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Default relative cutoff for pseudo-inverse singular values.
PINV_CUTOFF = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input (``toarray`` is called if present) to a 2d complex128 array.

    Raises InputError on non-2d shapes or non-finite entries.
    """
    m = np.asarray(a.toarray() if hasattr(a, "toarray") else a, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def hermitize(a, name: str = "matrix") -> np.ndarray:
    """Return the Hermitian part (A + A*)/2 of a square matrix."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness test."""

    min_eigenvalue: float
    dim: int
    tolerance_used: float

    @property
    def is_psd(self) -> bool:
        return self.min_eigenvalue >= -self.tolerance_used


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as columns, so that ``h == V @ diag(w) @ V.conj().T`` up
    to the backward error of the solver.
    """
    h = hermitize(h)
    w, v = np.linalg.eigh(h)
    return w, v


def psd_margin(h, tol: float | None = None) -> PsdReport:
    """Minimal eigenvalue of the Hermitian part of ``h`` with tolerance.

    The default tolerance is ``1e-8 * max(1, ||h||)`` where the norm is the
    spectral norm, read off from the same eigendecomposition.
    """
    h = hermitize(h)
    if h.shape[0] == 0:
        return PsdReport(min_eigenvalue=0.0, dim=0, tolerance_used=tol if tol is not None else 1e-8)
    w = np.linalg.eigvalsh(h)
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.max(np.abs(w))))
    return PsdReport(min_eigenvalue=float(w[0]), dim=h.shape[0], tolerance_used=float(tol))


def kron(a, b) -> np.ndarray:
    """Kronecker product with block (i, j) equal to ``a[i, j] * b``."""
    return np.kron(as_matrix(a, "kron left factor"), as_matrix(b, "kron right factor"))


def pinv(a, cutoff: float = PINV_CUTOFF) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, discarding singular values below
    ``cutoff`` times the largest singular value."""
    return np.linalg.pinv(as_matrix(a, "pinv matrix"), rcond=cutoff)


def op_norm(a) -> float:
    """Operator (spectral) norm."""
    a = as_matrix(a, "op_norm matrix")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def lam_max(h) -> float:
    """Largest eigenvalue of a Hermitian operator."""
    h = hermitize(h)
    if h.shape[0] == 0:
        raise InputError("lam_max of an empty matrix")
    return float(np.linalg.eigvalsh(h)[-1])


def lam_min(h) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    h = hermitize(h)
    if h.shape[0] == 0:
        raise InputError("lam_min of an empty matrix")
    return float(np.linalg.eigvalsh(h)[0])
