"""Plug-in kriging: conditional-mean predictions and variances at target
locations given (estimated) model parameters.

The data covariance is ``model.observation_cov``, the one the exact
likelihood factors, with the nugget on its diagonal, while cross- and
target-covariances carry none, so the predictor targets the smooth surface
mu + S rather than the noisy observations. One Cholesky factorization,
computed in the buffer of the data covariance, is shared across all
targets. The n x T cross-covariance is never held whole: it is evaluated
in blocks of ``_linalg.TARGET_BLOCK`` targets, so a call onto a 48 x 48
grid holds a few MB beyond the n x n factor. Predictions need only one
solve against the data; variances need a triangular solve against every
target, so they are computed on first access, block by block, from the
factor, the data locations and the covariance parameters that ``krige``
keeps. Both run on one OpenBLAS thread (``_linalg.one_blas_thread``; a
no-op on a BLAS without a known thread setter), since the matrices are at
most about a thousand rows by a few thousand targets and processes, not
BLAS threads, are the unit of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from ._linalg import cholesky_lower, one_blas_thread, target_blocks
from .model import CovParams, Dataset, ModelParams, matern_cov, observation_cov, read_only


def _cross_blocks(locations: np.ndarray, targets: np.ndarray, theta: CovParams):
    """(slice, n x block nugget-free cross-covariance) for each of
    :func:`~isiw._linalg.target_blocks`, in order; on one BLAS thread every
    prediction equals the unblocked one bit for bit."""
    for block in target_blocks(len(targets)):
        yield block, matern_cov(cdist(locations, targets[block]), theta)


@dataclass(frozen=True, eq=False)
class KrigingOutput:
    """Predictions at ``targets``; ``variances`` is computed on first
    access from the lower Cholesky factor ``chol`` of the data covariance,
    the data ``locations`` and the covariance parameters ``theta``. Only
    :func:`krige` builds one, from its own arrays, each read-only."""

    targets: np.ndarray
    predictions: np.ndarray
    chol: np.ndarray = field(repr=False)
    locations: np.ndarray = field(repr=False)
    theta: CovParams

    @cached_property
    def variances(self) -> np.ndarray:
        """sigma2 - c0' (Sigma + tau2 I)^-1 c0 per target, clamped at zero
        to absorb roundoff."""
        out = np.empty(len(self.targets))
        with one_blas_thread():
            for block, cross in _cross_blocks(self.locations, self.targets, self.theta):
                v = solve_triangular(self.chol, cross, lower=True, check_finite=False)
                out[block] = self.theta.sigma2 - np.einsum("ij,ij->j", v, v)
        return read_only(np.maximum(out, 0.0))


@one_blas_thread()
def krige(psi: ModelParams, data: Dataset, targets: np.ndarray) -> KrigingOutput:
    """Predict mu + S at ``targets``:

        pred = mu + c0' alpha,  alpha = (Sigma + tau2 I)^-1 (y - mu)
        var  = sigma2 - c0' (Sigma + tau2 I)^-1 c0   (on first access)

    with c0 the nugget-free cross-covariance.
    """
    targets = read_only(np.atleast_2d(np.array(targets, dtype=float)))
    if not np.all(np.isfinite(targets)):
        raise ValueError("non-finite target locations")

    cov = observation_cov(matern_cov(data.condensed_distances(), psi.theta), psi)
    chol = read_only(cholesky_lower(cov, context="kriging system", overwrite=True))
    alpha = cho_solve((chol, True), data.values - psi.mu, check_finite=False)
    predictions = np.empty(len(targets))
    for block, cross in _cross_blocks(data.locations, targets, psi.theta):
        predictions[block] = psi.mu + cross.T @ alpha
    return KrigingOutput(targets, read_only(predictions), chol, data.locations, psi.theta)
