"""Gaussian objectives: exact likelihood, weighted pairwise-marginal
composite likelihood, and the weighted Vecchia approximation.

The Vecchia factorization orders points by maximin distance, conditions
each on its m nearest predecessors, and evaluates every conditional from a
small dense block. Nesting of the Cholesky factor gives the joint and the
conditioning-set densities from one factorization, so a per-index weight
w_(p(i)) applied to both (the form that stays numerically stable, unlike
weighting by the product over conditioning members) reduces to weighting
the conditional terms. A block row holds a point's nearest earlier
neighbours, the point, then padding to a common width (:class:`VecchiaPlan`).
Blocks are gathered from one covariance per distinct pair plus two slots,
0 for padding off the diagonal and 1 on it, so a padded block is the real
block beside an identity; all are factored as one batched Cholesky.

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

from ._linalg import backward_solve_batched, cholesky_lower, forward_solve_batched
from .model import (
    Dataset,
    ModelParams,
    condensed_cov_matrix,
    matern_cov,
    matern_cov_dlogphi,
    read_only,
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


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the broadcast points ``a`` and ``b``, summed as
    sqrt(dx*dx + dy*dy) like ``np.linalg.norm``, so equal to it bit for bit."""
    d = np.square(a[..., 0] - b[..., 0])
    d += np.square(a[..., 1] - b[..., 1])
    return np.sqrt(d, out=d)


@dataclass(frozen=True, eq=False)
class VecchiaPlan:
    """An ordering with its nearest-earlier-neighbour conditioning blocks,
    derived once from ``locations``, ``order`` and ``m`` into private,
    read-only arrays.

    Row j of ``idx`` (width min(m, n - 1) + 1) is the block of the j-th
    ordered point ``order[j]``: its ``k[j] = min(m, j)`` nearest earlier
    points, ties to the lowest index, then the point itself in column
    ``k[j]``, then copies of it as padding. ``neighbors[j]`` is the row's
    first ``k[j]`` entries. ``pair_index`` maps each entry to its distinct
    pair in ``pair_dists``, and an entry in a padding row or column past
    the end: to slot ``len(pair_dists)`` off the diagonal, the next on it.
    """

    locations: np.ndarray
    order: np.ndarray
    m: int
    idx: np.ndarray = field(init=False, repr=False)
    k: np.ndarray = field(init=False, repr=False)
    pair_index: np.ndarray = field(init=False, repr=False)
    pair_dists: np.ndarray = field(init=False, repr=False)
    neighbors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        locs = read_only(np.atleast_2d(np.array(self.locations, dtype=float)))
        order = read_only(np.array(self.order, dtype=int))
        n = locs.shape[0]
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order is not a permutation of the {n} locations")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        k = np.minimum(np.arange(n), self.m)
        cols = np.arange(min(self.m, n - 1) + 1)

        # row j: the j-th ordered point's distance to each point, columns in
        # index order; later points and itself sort last, ties to the lowest index
        dist = _distances(locs[order][:, None, :], locs[None, :, :])
        dist[np.argsort(order) >= np.arange(n)[:, None]] = np.inf
        nearest = np.argsort(dist, axis=1, kind="stable")[:, : cols.size]
        del dist
        idx = np.where(cols < k[:, None], nearest, order[:, None])

        # blocks share most point pairs, so each distinct pair is kept once
        key = np.minimum(idx[:, :, None], idx[:, None, :])
        key *= n
        key += np.maximum(idx[:, :, None], idx[:, None, :])
        pairs, pair_index = np.unique(key, return_inverse=True)
        valid = cols <= k[:, None]
        both = valid[:, :, None] & valid[:, None, :]
        pair_index = np.where(both, pair_index.reshape(key.shape), pairs.size)
        pair_index[:, cols, cols] += ~valid  # the padded diagonal takes the next slot

        for name, value in dict(
            locations=locs, order=order, idx=read_only(idx), k=read_only(k), pair_index=read_only(pair_index),
            pair_dists=read_only(_distances(locs[pairs // n], locs[pairs % n])),
            neighbors=tuple(np.split(read_only(idx[cols < k[:, None]]), np.cumsum(k)[:-1])),
        ).items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.order.size

    def check_data(self, data: Dataset):
        if data.n != self.n or not np.array_equal(data.locations, self.locations):
            raise ValueError("plan was built for different locations")


def nn_conditioning_sets(locs: np.ndarray, order: np.ndarray, m: int) -> VecchiaPlan:
    """The plan conditioning each ordered point on its (at most) m nearest
    previously-ordered points; distance ties break to the lowest index."""
    return VecchiaPlan(locs, order, m)


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
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be positive and finite")
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
    idx, k, n = plan.idx, plan.k, plan.n
    diag = np.arange(idx.shape[1])
    valid = diag <= k[:, None]
    # one allocation for the three block-sized arrays: glibc's malloc raises
    # its mmap threshold to the largest chunk it frees, so later calls reuse
    # these heap pages rather than fault in new ones
    matern, block, d_matern = np.empty((3, *plan.pair_index.shape))

    def gather(values, slots, out):  # mode="clip" writes in place; "raise" buffers
        np.take(np.append(values, slots), plan.pair_index, out=out, mode="clip")

    gather(matern_cov(plan.pair_dists, psi.theta), (0.0, 1.0), matern)
    np.copyto(block, matern)
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
    target = np.zeros(idx.shape)
    target[rows, k] = 1.0
    u = backward_solve_batched(chol, target)
    gather(matern_cov_dlogphi(plan.pair_dists, psi.theta), (0.0, 0.0), d_matern)

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
            derivative_along(d_matern),
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


EXACT = "exact"
PAIRWISE_MARGINAL = "pairwise-marginal"
VECCHIA = "vecchia"


@dataclass(frozen=True, eq=False)
class Objective:
    """One fittable objective: which likelihood, with what weights/plan.
    Frozen, with the weights as a private read-only copy, so the checks
    below hold for its whole life."""

    kind: str
    weights: np.ndarray | None = None
    plan: VecchiaPlan | None = None
    pair_cutoff: float | None = None

    def __post_init__(self):
        if self.weights is not None:
            object.__setattr__(self, "weights", read_only(np.array(self.weights, dtype=float)))
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
