"""Gaussian objectives: exact likelihood, weighted pairwise-marginal
composite likelihood, and the weighted Vecchia approximation.

The Vecchia factorization orders points by maximin distance, conditions
each on its m nearest predecessors, and evaluates every conditional from a
small dense block. Nesting of the Cholesky factor gives the joint and the
conditioning-set densities from one factorization, so a per-index weight
w_(p(i)) applied to both (the form that stays numerically stable, unlike
weighting by the product over conditioning members) reduces to weighting
the conditional terms. Blocks are padded to a common width and factored as
one batched Cholesky.

The nugget enters every marginal and conditional covariance as +tau2 on
the diagonal: all objectives model the observations, matching the exact
likelihood's Sigma + tau2 I.

Every objective returns an :class:`NllValue`: the value as a float that
also carries its closed-form gradient over (mu, log sigma2, log phi,
log tau2), computed in the same pass. For a Gaussian block with covariance
A and residual r, d/dt [1/2 log|A| + 1/2 r'A^-1 r] = 1/2 tr((A^-1 - a a') dA/dt)
with a = A^-1 r. A Vecchia conditional term is the difference of that
expression for its full block and for the neighbour-only block; the latter
is the leading principal block, whose inverse the full-block inverse gives
by a Schur complement on the target row, so one Cholesky factor serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from ._linalg import (
    NotPositiveDefiniteError,
    backward_solve_batched,
    cholesky_lower,
    forward_solve_batched,
)
from .model import (
    Dataset,
    ModelParams,
    build_cov_matrix,
    condensed_cov_matrix,
    matern_cov,
    matern_cov_dlogphi,
    symmetric_from_condensed,
)

LOG_2PI = math.log(2.0 * math.pi)
# pairs per slice of the pairwise NLL: 64 KB per float temporary, under
# glibc's default 128 KB mmap threshold
PAIR_CHUNK = 8192


class NllValue(float):
    """A negative log-likelihood: the float it equals, plus ``grad``, its
    gradient over (mu, log sigma2, log phi, log tau2) at the same point."""

    __slots__ = ("grad",)

    def __new__(cls, value, grad):
        self = super().__new__(cls, value)
        self.grad = np.asarray(grad, dtype=float)
        return self


def maxmin_order(locs: np.ndarray) -> np.ndarray:
    """Maximin ordering: start at the point nearest the centroid, then
    repeatedly take the point farthest from everything already ordered.
    Ties break to the lowest original index."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    n = locs.shape[0]
    if n == 1:
        return np.array([0])
    first = int(np.argmin(np.linalg.norm(locs - locs.mean(axis=0), axis=1)))
    order = np.empty(n, dtype=int)
    order[0] = first
    mindist = np.linalg.norm(locs - locs[first], axis=1)
    mindist[first] = -np.inf
    for j in range(1, n):
        nxt = int(np.argmax(mindist))
        order[j] = nxt
        mindist = np.minimum(mindist, np.linalg.norm(locs - locs[nxt], axis=1))
        mindist[nxt] = -np.inf
    return order


@dataclass
class VecchiaPlan:
    """Ordering plus nearest-neighbor conditioning sets of size <= m.

    ``order`` holds original indices in visit order; ``neighbors[j]`` holds
    the original indices conditioning the j-th ordered point, nearest
    first. The constructor also packs the padded block geometry used by the
    batched likelihood evaluation.
    """

    order: np.ndarray
    neighbors: list
    m: int
    locations: np.ndarray
    _packed: dict = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=int)
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        n = self.n
        if sorted(self.order.tolist()) != list(range(n)):
            raise ValueError("order is not a permutation")
        if len(self.neighbors) != n:
            raise ValueError("one conditioning set per point required")
        pos = self.positions()
        for j, q in enumerate(self.neighbors):
            q = np.asarray(q, dtype=int)
            self.neighbors[j] = q
            if q.size != min(self.m, j):
                raise ValueError(f"conditioning set {j} has size {q.size}, want {min(self.m, j)}")
            if q.size and np.any(pos[q] >= j):
                raise ValueError(f"conditioning set {j} references later-ordered points")
        self._pack()

    @property
    def n(self) -> int:
        return self.order.size

    def positions(self) -> np.ndarray:
        pos = np.empty(self.n, dtype=int)
        pos[self.order] = np.arange(self.n)
        return pos

    def _pack(self):
        n = self.n
        width = min(self.m, n - 1) + 1
        idx = np.empty((n, width), dtype=int)
        k = np.empty(n, dtype=int)
        for j, q in enumerate(self.neighbors):
            k[j] = q.size
            idx[j, : q.size] = q
            idx[j, q.size :] = self.order[j]  # target, then padding repeats it
        coords = self.locations[idx]
        diff = coords[:, :, None, :] - coords[:, None, :, :]
        dists = np.sqrt(np.einsum("bijk,bijk->bij", diff, diff))
        # blocks share most point pairs, so covariances are evaluated once
        # per distinct pair and gathered into the blocks
        pair_key = np.minimum(idx[:, :, None], idx[:, None, :]) * n + np.maximum(
            idx[:, :, None], idx[:, None, :]
        )
        _, first, pair_index = np.unique(pair_key, return_index=True, return_inverse=True)
        valid = (np.arange(width)[None, :] <= k[:, None]).astype(float)
        keep = valid[:, :, None] * valid[:, None, :]
        pad_eye = np.zeros((n, width, width))
        rng = np.arange(width)
        pad_eye[:, rng, rng] = 1.0 - valid
        self._packed = {
            "idx": idx,
            "k": k,
            "pair_dists": dists.ravel()[first],
            "pair_index": pair_index.reshape(dists.shape),
            "valid": valid,
            "keep": keep,
            "pad_eye": pad_eye,
            "width": width,
        }

    def check_data(self, data: Dataset):
        if data.n != self.n or not np.array_equal(data.locations, self.locations):
            raise ValueError("plan was built for different locations")


def nn_conditioning_sets(locs: np.ndarray, order: np.ndarray, m: int) -> VecchiaPlan:
    """Condition each ordered point on its (at most) m nearest
    previously-ordered points; distance ties break to the lowest original
    index."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    order = np.asarray(order, dtype=int)
    if m < 1:
        raise ValueError("m must be >= 1")
    neighbors = []
    for j in range(order.size):
        prev = order[:j]
        if j == 0:
            neighbors.append(np.empty(0, dtype=int))
            continue
        d = np.linalg.norm(locs[prev] - locs[order[j]], axis=1)
        pick = np.lexsort((prev, d))[: min(m, j)]
        neighbors.append(prev[pick])
    return VecchiaPlan(order=order, neighbors=neighbors, m=m, locations=locs)


def exact_nll(psi: ModelParams, data: Dataset) -> NllValue:
    """Negative log-likelihood of N(mu 1, Sigma(theta) + tau2 I) via Cholesky,
    with its gradient. The Matérn and its phi-derivative are evaluated on
    the n(n-1)/2 condensed distances and mirrored, with their h = 0 limits
    on the diagonal."""
    theta, dist = psi.theta, data.condensed_distances()
    matern = condensed_cov_matrix(dist, theta)
    cov = matern.copy()
    cov[np.diag_indices_from(cov)] += psi.tau2
    chol = cholesky_lower(cov, context="observation covariance", overwrite=True)
    z = solve_triangular(chol, data.values - psi.mu, lower=True, check_finite=False)
    value = 0.5 * data.n * LOG_2PI + np.sum(np.log(np.diag(chol))) + 0.5 * z @ z

    alpha = solve_triangular(chol, z, lower=True, trans="T", check_finite=False)
    w = cho_solve((chol, True), np.eye(data.n), check_finite=False) - np.outer(alpha, alpha)
    d_matern = symmetric_from_condensed(matern_cov_dlogphi(dist, theta), matern_cov_dlogphi(0.0, theta))
    grad = [
        -alpha.sum(),
        0.5 * np.sum(w * matern),
        0.5 * np.sum(w * d_matern),
        0.5 * psi.tau2 * np.trace(w),
    ]
    return NllValue(value, grad)


def _as_weight_array(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights have shape {w.shape}, want ({n},)")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return w


def vecchia_nll(
    psi: ModelParams,
    data: Dataset,
    plan: VecchiaPlan,
    weights=None,
) -> NllValue:
    """Negative log Vecchia approximation, optionally weighted, with its
    gradient.

    Unweighted this is -sum_i log f(y_p(i) | y_q(i)). The weighted form
    applies w_p(i) to both the joint and conditioning-set log densities,
    which telescopes to w_p(i) times the conditional terms; with all
    weights equal to 1 the two coincide bit-for-bit, gradient included.

    Per block with factor L, target row k, z = L^-1 r, alpha = L^-T z and
    u = L^-T e_k, the conditional term's derivative along dA is
    1/2 (1 + z_k^2) u'dA u - z_k alpha'dA u, and along mu it is -z_k sum(u).
    Padding rows of u and a are exactly zero, so they drop out.
    """
    plan.check_data(data)
    packed = plan._packed
    idx, k, width, valid = packed["idx"], packed["k"], packed["width"], packed["valid"]
    n = plan.n

    pair_index = packed["pair_index"]
    matern = matern_cov(packed["pair_dists"], psi.theta)[pair_index] * packed["keep"]
    block = matern + packed["pad_eye"]
    diag = np.arange(width)
    block[:, diag, diag] += psi.tau2 * valid

    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        for j in range(n):
            cholesky_lower(block[j], context=f"vecchia conditioning block {j} (point {plan.order[j]})")
        raise

    rows = np.arange(n)
    z = forward_solve_batched(chol, (data.values[idx] - psi.mu) * valid)
    zk = z[rows, k]
    alpha = backward_solve_batched(chol, z)
    target = np.zeros((n, width))
    target[rows, k] = 1.0
    u = backward_solve_batched(chol, target)

    def derivative(u_da_u, alpha_da_u):
        return 0.5 * (1.0 + zk * zk) * u_da_u - zk * alpha_da_u

    def derivative_along(d_block):
        da_u = np.einsum("bij,bj->bi", d_block, u)
        return derivative(np.einsum("bi,bi->b", u, da_u), np.einsum("bi,bi->b", alpha, da_u))

    terms = np.stack(
        [
            0.5 * LOG_2PI + np.log(chol[rows, k, k]) + 0.5 * zk * zk,
            -zk * u.sum(axis=1),
            derivative_along(matern),
            derivative_along(matern_cov_dlogphi(packed["pair_dists"], psi.theta)[pair_index]),
            psi.tau2 * derivative(np.einsum("bi,bi->b", u, u), np.einsum("bi,bi->b", alpha, u)),
        ]
    )
    if weights is not None:
        terms *= _as_weight_array(weights, n)[plan.order]
    total = terms.sum(axis=1)
    return NllValue(total[0], total[1:])


def pairwise_marginal_nll(
    psi: ModelParams,
    data: Dataset,
    weights=None,
    cutoff: float | None = None,
) -> NllValue:
    """Negative weighted pairwise-marginal composite log-likelihood, with
    its gradient.

    Sums -omega_ij log f(y_i, y_j) over pairs within ``cutoff`` (all pairs
    when None), with omega_ij = w_i w_j when weights are supplied.

    The pairs are walked in slices of ``PAIR_CHUNK``, so every per-pair
    temporary stays small enough for the allocator to reuse rather than
    map and fault in afresh on each call. Each slice writes its five
    per-pair rows into one full-length ``terms`` array, which is summed
    once at the end: the per-pair expressions are elementwise and the sums
    run over the same array as an unsliced evaluation, so values and
    gradients do not depend on the slice size, bit for bit.
    """
    n = data.n
    if n < 2:
        raise ValueError("pairwise likelihood needs at least two observations")
    iu_all, ju_all, d_all = data.pairs(cutoff)
    if d_all.size == 0:
        raise ValueError(f"no pairs within cutoff {cutoff}")
    w = None if weights is None else _as_weight_array(weights, n)

    v = psi.theta.sigma2 + psi.tau2
    terms = np.empty((5, d_all.size))
    for start in range(0, d_all.size, PAIR_CHUNK):
        part = slice(start, start + PAIR_CHUNK)
        iu, ju, d, out = iu_all[part], ju_all[part], d_all[part], terms[:, part]
        c = matern_cov(d, psi.theta)
        det = v * v - c * c
        a = data.values[iu] - psi.mu
        b = data.values[ju] - psi.mu
        squares, cross = a * a + b * b, a * b
        quad = (v * squares - 2.0 * c * cross) / det
        # partial derivatives of each pair's term in the marginal variance v
        # and the covariance c; sigma2 moves both, phi only c, tau2 only v
        d_v = (v + 0.5 * squares - quad * v) / det
        d_c = (quad * c - c - cross) / det
        out[0] = LOG_2PI + 0.5 * np.log(det) + 0.5 * quad
        out[1] = -(a + b) * (v - c) / det
        out[2] = psi.theta.sigma2 * d_v + c * d_c
        out[3] = matern_cov_dlogphi(d, psi.theta) * d_c
        out[4] = psi.tau2 * d_v
        if w is not None:
            out *= w[iu] * w[ju]
    total = terms.sum(axis=1)
    return NllValue(total[0], total[1:])


def vecchia_implied_cov(psi: ModelParams, plan: VecchiaPlan) -> np.ndarray:
    """Covariance of the valid joint Gaussian the Vecchia factorization
    defines, returned in original point order.

    Built from the per-index regression coefficients and conditional
    variances: (I - B)^-1 D (I - B)^-T in the ordered basis.
    """
    n = plan.n
    sigma = build_cov_matrix(plan.locations, psi.theta, psi.tau2)
    pos = plan.positions()
    b_mat = np.zeros((n, n))
    d_vec = np.empty(n)
    for j in range(n):
        i = plan.order[j]
        q = plan.neighbors[j]
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


EXACT = "exact"
PAIRWISE_MARGINAL = "pairwise-marginal"
VECCHIA = "vecchia"


@dataclass
class Objective:
    """One fittable objective: which likelihood, with what weights/plan."""

    kind: str
    weights: np.ndarray | None = None
    plan: VecchiaPlan | None = None
    pair_cutoff: float | None = None

    def __post_init__(self):
        if self.kind not in (EXACT, PAIRWISE_MARGINAL, VECCHIA):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if (self.plan is not None) != (self.kind == VECCHIA):
            raise ValueError("a conditioning plan is required exactly when kind is 'vecchia'")
        if self.kind == EXACT and self.weights is not None:
            raise ValueError(f"kind {EXACT!r} takes no weights")
        if self.kind != PAIRWISE_MARGINAL and self.pair_cutoff is not None:
            raise ValueError(f"kind {self.kind!r} takes no pair_cutoff")

    def nll(self, psi: ModelParams, data: Dataset) -> NllValue:
        """The objective's value at ``psi``, carrying its gradient."""
        if self.kind == EXACT:
            return exact_nll(psi, data)
        if self.kind == VECCHIA:
            return vecchia_nll(psi, data, self.plan, self.weights)
        return pairwise_marginal_nll(psi, data, self.weights, self.pair_cutoff)
