"""Plug-in kriging: conditional-mean predictions and variances at target
locations given (estimated) model parameters.

The data covariance carries the nugget on its diagonal while cross- and
target-covariances do not, so the predictor targets the smooth surface
mu + S rather than the noisy observations. One Cholesky factorization is
shared across all targets. Predictions need only one solve against the
data; variances need a triangular solve against every target, so they are
computed on first access from the factor and cross-covariance that
``krige`` keeps. Both run on one OpenBLAS thread
(``_linalg.one_blas_thread``; a no-op on a BLAS without a known thread
setter), since the matrices are at most about a thousand rows by a few
thousand targets and processes, not BLAS threads, are the unit of
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from ._linalg import cholesky_lower, one_blas_thread
from .model import Dataset, ModelParams, condensed_cov_matrix, matern_cov, pairwise_distances


@dataclass
class KrigingOutput:
    """Predictions at ``targets``; ``variances`` is computed on first
    access from the lower Cholesky factor ``chol`` of the data covariance,
    the nugget-free cross-covariance ``cross`` (n x targets) and the
    process variance ``sigma2``."""

    targets: np.ndarray
    predictions: np.ndarray
    chol: np.ndarray = field(repr=False)
    cross: np.ndarray = field(repr=False)
    sigma2: float

    def __post_init__(self):
        if not (len(self.targets) == self.predictions.size == self.cross.shape[1]):
            raise ValueError("mismatched kriging output lengths")

    @cached_property
    def variances(self) -> np.ndarray:
        """sigma2 - c0' (Sigma + tau2 I)^-1 c0 per target, clamped at zero
        to absorb roundoff."""
        with one_blas_thread():
            v = solve_triangular(self.chol, self.cross, lower=True, check_finite=False)
        return np.maximum(self.sigma2 - np.einsum("ij,ij->j", v, v), 0.0)


@one_blas_thread()
def krige(psi: ModelParams, data: Dataset, targets: np.ndarray) -> KrigingOutput:
    """Predict mu + S at ``targets``:

        pred = mu + c0' alpha,  alpha = (Sigma + tau2 I)^-1 (y - mu)
        var  = sigma2 - c0' (Sigma + tau2 I)^-1 c0   (on first access)

    with c0 the nugget-free cross-covariance.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.all(np.isfinite(targets)):
        raise ValueError("non-finite target locations")

    cov = condensed_cov_matrix(data.condensed_distances(), psi.theta, psi.tau2)
    chol = cholesky_lower(cov, context="kriging system")
    cross = matern_cov(pairwise_distances(data.locations, targets), psi.theta)

    alpha = cho_solve((chol, True), data.values - psi.mu, check_finite=False)
    predictions = psi.mu + cross.T @ alpha
    return KrigingOutput(targets, predictions, chol, cross, psi.theta.sigma2)
