"""Plug-in kriging: conditional-mean predictions and variances at target
locations given (estimated) model parameters.

The data covariance carries the nugget on its diagonal while cross- and
target-covariances do not, so the predictor targets the smooth surface
mu + S rather than the noisy observations. One Cholesky factorization,
computed in the buffer of the data covariance, is shared across all
targets. The n x T cross-covariance is never held whole: it is evaluated
in blocks of ``TARGET_BLOCK`` targets, so a call onto a 48 x 48 grid holds
a few MB beyond the n x n factor. Predictions need only one solve against
the data; variances need a triangular solve against every target, so they
are computed on first access, block by block, from the factor, the data
locations and the covariance parameters that ``krige`` keeps. Both run on
one OpenBLAS thread (``_linalg.one_blas_thread``; a no-op on a BLAS without
a known thread setter), since the matrices are at most about a thousand
rows by a few thousand targets and processes, not BLAS threads, are the
unit of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from ._linalg import cholesky_lower, one_blas_thread
from .model import CovParams, Dataset, ModelParams, condensed_cov_matrix, matern_cov, pairwise_distances

# targets per cross-covariance block: 0.8 MB per block at n = 400
TARGET_BLOCK = 256


def _cross_blocks(locations: np.ndarray, targets: np.ndarray, theta: CovParams):
    """(slice, n x block nugget-free cross-covariance) for each block of
    ``TARGET_BLOCK`` targets, in order.

    A last block of fewer than 4 targets joins the block before it:
    OpenBLAS multiplies a matrix of fewer than 4 rows by a vector along
    another path, whose bits differ from those of the same rows inside one
    product over all targets. With that, and on one BLAS thread, every
    prediction equals the unblocked one bit for bit."""
    starts = list(range(0, len(targets), TARGET_BLOCK))
    if len(starts) > 1 and len(targets) - starts[-1] < 4:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [len(targets)]):
        block = slice(start, stop)
        yield block, matern_cov(pairwise_distances(locations, targets[block]), theta)


@dataclass
class KrigingOutput:
    """Predictions at ``targets``; ``variances`` is computed on first
    access from the lower Cholesky factor ``chol`` of the data covariance,
    the data ``locations`` and the covariance parameters ``theta``."""

    targets: np.ndarray
    predictions: np.ndarray
    chol: np.ndarray = field(repr=False)
    locations: np.ndarray = field(repr=False)
    theta: CovParams

    def __post_init__(self):
        if len(self.targets) != self.predictions.size:
            raise ValueError("mismatched kriging output lengths")
        if self.chol.shape != (len(self.locations),) * 2:
            raise ValueError("kriging factor does not match the data locations")

    @cached_property
    def variances(self) -> np.ndarray:
        """sigma2 - c0' (Sigma + tau2 I)^-1 c0 per target, clamped at zero
        to absorb roundoff."""
        out = np.empty(len(self.targets))
        with one_blas_thread():
            for block, cross in _cross_blocks(self.locations, self.targets, self.theta):
                v = solve_triangular(self.chol, cross, lower=True, check_finite=False)
                out[block] = self.theta.sigma2 - np.einsum("ij,ij->j", v, v)
        return np.maximum(out, 0.0)


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
    chol = cholesky_lower(cov, context="kriging system", overwrite=True)
    alpha = cho_solve((chol, True), data.values - psi.mu, check_finite=False)
    predictions = np.empty(len(targets))
    for block, cross in _cross_blocks(data.locations, targets, psi.theta):
        predictions[block] = psi.mu + cross.T @ alpha
    return KrigingOutput(targets, predictions, chol, data.locations, psi.theta)
