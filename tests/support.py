"""Shared samplers for the test suite.

All randomness flows through an explicit generator so every test is
reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from fockband import EnElement, MatrixTuple, en_element


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
