"""Reference computations the tests check the package against: a central
finite-difference gradient, the dense observation covariance, a
farthest-point maximin order, the covariance of the joint Gaussian that a
Vecchia plan implies, and the Kullback-Leibler divergence between two
zero-mean Gaussians. None of them runs in the package itself."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import pdist

from isiw import CovParams, ModelParams, VecchiaPlan
from isiw._linalg import NotPositiveDefiniteError, cholesky_lower
from isiw.model import matern_cov, symmetric_from_condensed

FD_REL_STEP = 1e-5


def fd_gradient(func, x: np.ndarray, rel_step: float = FD_REL_STEP, one_sided=()) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate step
    rel_step * max(1, |x_j|). The coordinates listed in ``one_sided``, such
    as one on a lower bound, take the forward difference
    (-3 f(x) + 4 f(x + h) - f(x + 2h)) / 2h instead, whose error is also
    of order h^2."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        step = np.zeros_like(x)
        step[j] = h
        if j in one_sided:
            grad[j] = (4.0 * func(x + step) - func(x + 2.0 * step) - 3.0 * func(x)) / (2.0 * h)
        else:
            grad[j] = (func(x + step) - func(x - step)) / (2.0 * h)
    return grad


def build_cov_matrix(locs: np.ndarray, theta: CovParams, tau2: float = 0.0) -> np.ndarray:
    """n x n observation covariance: Matérn on pairwise distances plus
    ``tau2`` on the diagonal."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    return symmetric_from_condensed(matern_cov(pdist(locs), theta), matern_cov(0.0, theta) + tau2)


def farthest_point_order(locs: np.ndarray) -> list:
    """Maximin order by a plain scan: the point nearest the centroid, then
    again and again the unordered point farthest from its nearest ordered
    point, ties to the lowest index at every step. Distances are
    sqrt(dx * dx + dy * dy), the package's floating-point arithmetic."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    points = [(float(x), float(y)) for x, y in locs]
    centroid = tuple(float(c) for c in locs.mean(axis=0))

    def dist(a, b):
        return math.sqrt((a[0] - b[0]) * (a[0] - b[0]) + (a[1] - b[1]) * (a[1] - b[1]))

    order = [min(range(len(points)), key=lambda i: (dist(points[i], centroid), i))]
    while len(order) < len(points):
        rest = [i for i in range(len(points)) if i not in order]
        order.append(max(rest, key=lambda i: (min(dist(points[i], points[j]) for j in order), -i)))
    return order


def vecchia_implied_cov(psi: ModelParams, plan: VecchiaPlan) -> np.ndarray:
    """Covariance of the valid joint Gaussian the Vecchia factorization
    defines, returned in original point order.

    Built from the per-index regression coefficients and conditional
    variances: (I - B)^-1 D (I - B)^-T in the ordered basis.
    """
    n = plan.n
    sigma = build_cov_matrix(plan.locations, psi.theta, psi.tau2)
    pos = np.argsort(plan.order)
    b_mat = np.zeros((n, n))
    d_vec = np.empty(n)
    for j in range(n):
        i = plan.order[j]
        q = plan.idx[j, : plan.k[j]]
        if q.size == 0:
            d_vec[j] = sigma[i, i]
            continue
        sqq = sigma[np.ix_(q, q)]
        sqi = sigma[q, i]
        coef = np.linalg.solve(sqq, sqi)
        d_vec[j] = sigma[i, i] - sqi @ coef
        if d_vec[j] <= 0:
            raise NotPositiveDefiniteError(j + 1, "vecchia conditional variance")
        b_mat[j, pos[q]] = coef
    a = solve_triangular(
        np.eye(n) - b_mat, np.eye(n), lower=True, unit_diagonal=True, check_finite=False
    )
    implied_ordered = (a * d_vec) @ a.T
    implied = implied_ordered[np.ix_(pos, pos)]
    return 0.5 * (implied + implied.T)


def gaussian_kl(sigma_true: np.ndarray, sigma_approx: np.ndarray) -> float:
    """KL divergence between zero-mean Gaussians N(0, true) || N(0, approx)."""
    sigma_true = np.asarray(sigma_true, dtype=float)
    sigma_approx = np.asarray(sigma_approx, dtype=float)
    if sigma_true.shape != sigma_approx.shape or sigma_true.shape[0] != sigma_true.shape[1]:
        raise ValueError("covariance matrices must be square and the same size")
    n = sigma_true.shape[0]
    lt = cholesky_lower(sigma_true, context="true covariance")
    la = cholesky_lower(sigma_approx, context="approximating covariance")
    w = solve_triangular(la, lt, lower=True, check_finite=False)
    trace = float(np.sum(w * w))
    logdet_t = 2.0 * float(np.sum(np.log(np.diag(lt))))
    logdet_a = 2.0 * float(np.sum(np.log(np.diag(la))))
    return 0.5 * (trace - n + logdet_a - logdet_t)
