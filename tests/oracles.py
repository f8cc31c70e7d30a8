"""Reference computations the tests check the package against: a central
finite-difference gradient, the dense observation covariance, a
farthest-point maximin order, the covariance of the joint Gaussian that a
Vecchia plan implies, a Vecchia plan's packed arrays by whole-array
sorts, the pairwise-marginal value and profile over the
whole pair list, and the Kullback-Leibler divergence between two
zero-mean Gaussians. None of them runs in the package itself."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist, pdist

from isiw import CovParams, ModelParams, Profile, VecchiaPlan
from isiw._linalg import NotPositiveDefiniteError, cholesky_lower
from isiw.likelihood import SUM_BLOCK
from isiw.model import matern_cov, matern_cov_and_dlogphi, symmetric_from_condensed

FD_REL_STEP = 1e-5
LOG_2PI = math.log(2.0 * math.pi)


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


def vecchia_plan_reference(locs: np.ndarray, order: np.ndarray, m: int) -> dict:
    """A :class:`VecchiaPlan`'s ``idx``, ``k``, ``pair_index`` and
    ``pair_dists`` by whole-array sorts: each ordered point's row of the
    ``cdist`` matrix, later points and itself set to inf, in one full
    stable ``argsort``, and the distinct pair keys with their inverse from
    ``np.unique``."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    order = np.asarray(order, dtype=int)
    n = locs.shape[0]
    k = np.minimum(np.arange(n), m)
    cols = np.arange(min(m, n - 1) + 1)
    full = cdist(locs, locs)
    dist = full[order]
    dist[np.argsort(order) >= np.arange(n)[:, None]] = np.inf
    nearest = np.argsort(dist, axis=1, kind="stable")[:, : cols.size]
    idx = np.where(cols < k[:, None], nearest, order[:, None])
    key = np.minimum(idx[:, :, None], idx[:, None, :]) * n + np.maximum(idx[:, :, None], idx[:, None, :])
    pairs, inverse = np.unique(key, return_inverse=True)
    valid = cols <= k[:, None]
    both = valid[:, :, None] & valid[:, None, :]
    pair_index = np.where(both, inverse.reshape(key.shape), pairs.size)
    pair_index[:, cols, cols] += ~valid
    return {"idx": idx, "k": k, "pair_index": pair_index, "pair_dists": full.ravel()[pairs]}


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


def pairwise_reference(psi: ModelParams, data, weights, cutoff) -> tuple:
    """(value, :class:`Profile`, summands) of the weighted pairwise-marginal
    NLL, computed one new array per operation over the whole pair list;
    ``summands`` is the list of its 13 per-pair arrays, in the order of the
    rows of ``likelihood._pair_rows``.

    A pair's residual sum p and difference m are independent normals of
    variances 2e and 2f, e = v + c and f = v - c, so its term is
    log 2pi + 1/2 log(e f) + (p^2 / e + m^2 / f) / 4. Each per-pair summand
    below is summed within blocks of ``SUM_BLOCK`` pairs, and the block
    sums are added, so the sums are those of the package to the bit."""
    iu, ju, d = data.pairs(cutoff)
    omega = np.ones(d.size) if weights is None else weights[iu] * weights[ju]
    c, dc = matern_cov_and_dlogphi(d, psi.theta)
    v = psi.theta.sigma2 + psi.tau2
    e, f = v + c, v - c
    resid = data.values - psi.mu
    p, m = resid[iu] + resid[ju], resid[iu] - resid[ju]
    w_e, w_f = (1.0 / e) * omega, (1.0 / f) * omega
    p_e, m_f = p * (1.0 / e), m * (1.0 / f)
    summands = [
        np.log(e * f) * omega,
        omega,
        (p * p_e + m * m_f) * omega,
        p * w_e,
        w_e,
        w_f,
        (1.0 / e) * w_e,
        p_e * w_e,
        (p_e * p_e + m_f * m_f) * omega,
        (w_e - w_f) * dc,
        (m_f * m_f - p_e * p_e) * (dc * omega),
        dc * (p_e * w_e),
        dc * ((1.0 / e) * w_e),
    ]
    (log_ef, total_w, sq, sum_p_e, inv_e, inv_f, inv_e2, p_e2, sq2, phi_diff, phi_sq2, phi_p_e2, phi_inv_e2) = (
        np.array([x[b : b + SUM_BLOCK].sum() for b in range(0, d.size, SUM_BLOCK)]).sum() for x in summands
    )
    base = LOG_2PI * total_w + 0.5 * log_ef
    # the profile's mu is mu + s; at it, p moves to p - 2s
    shift = 0.5 * sum_p_e / inv_e
    ratio = 0.25 * (sq - 2.0 * shift * sum_p_e) / total_w
    grad = np.array(
        [
            0.5 * phi_diff + 0.25 * (phi_sq2 + 4.0 * shift * (phi_p_e2 - shift * phi_inv_e2)) / ratio,
            psi.theta.sigma2
            * (0.5 * (inv_e + inv_f) - 0.25 * (sq2 - 4.0 * shift * (p_e2 - shift * inv_e2)) / ratio),
        ]
    )
    profile = Profile(psi.mu + shift, psi.theta.sigma2 * ratio, base + total_w * (np.log(ratio) + 1.0), grad)
    return base + 0.25 * sq, profile, summands


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
