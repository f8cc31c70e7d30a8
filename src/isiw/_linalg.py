"""Small shared linear-algebra helpers (Cholesky with pivot reporting,
batched triangular solves)."""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed; ``pivot`` is the 1-based order of the
    first non-positive-definite leading minor."""

    def __init__(self, pivot: int, context: str = ""):
        self.pivot = int(pivot)
        msg = f"matrix not positive definite (failing pivot {self.pivot})"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


def cholesky_lower(a: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, raising
    NotPositiveDefiniteError with the failing pivot index on breakdown."""
    c, info = dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(info, context)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def forward_solve_batched(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L z = b for a stack of lower-triangular factors.

    ``chol`` has shape (B, k, k), ``rhs`` shape (B, k); returns (B, k).
    Plain forward substitution vectorized across the batch; fine for the
    small k used by conditioning blocks.
    """
    b, k = rhs.shape
    z = np.empty_like(rhs)
    for j in range(k):
        acc = rhs[:, j]
        if j:
            acc = acc - np.einsum("bl,bl->b", chol[:, j, :j], z[:, :j])
        z[:, j] = acc / chol[:, j, j]
    return z


def backward_solve_batched(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = b for a stack of lower-triangular factors; shapes as in
    :func:`forward_solve_batched`."""
    b, k = rhs.shape
    x = np.empty_like(rhs)
    for j in range(k - 1, -1, -1):
        acc = rhs[:, j]
        if j < k - 1:
            acc = acc - np.einsum("bl,bl->b", chol[:, j + 1 :, j], x[:, j + 1 :])
        x[:, j] = acc / chol[:, j, j]
    return x
