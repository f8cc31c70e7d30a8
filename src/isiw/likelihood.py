"""Gaussian objectives: exact likelihood, weighted pairwise-marginal
composite likelihood, and the weighted Vecchia approximation.

The Vecchia factorization orders points by maximin distance, conditions
each on its m nearest predecessors, and evaluates every conditional from a
small dense block. The ordering and the plan each read their distances off
one ``scipy.spatial.distance.cdist`` matrix, n x n doubles. The plan finds
each point's nearest earlier neighbours by a partial partition of blocks of
rows, numbers the distinct pairs of its blocks through an n x n boolean
table, and frees the matrix before it gives each block entry its pair's
slot. Nesting of the Cholesky factor gives the joint and the
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
carries a :class:`Profile`, computed in the same pass. The profile's
gradient rests on the derivative of a Gaussian block's term: with
covariance A and residual r,
d/dt [1/2 log|A| + 1/2 r'A^-1 r] = 1/2 tr((A^-1 - a a') dA/dt) with
a = A^-1 r. A Vecchia conditional term is the difference of that
expression for its full block and for the neighbour-only block; the latter
is the leading principal block, whose inverse the full-block inverse gives
by a Schur complement on the target row, so one Cholesky factor serves both.

The profile concentrates mu and sigma2 out in closed form (Diggle and
Ribeiro 2007, Model-based Geostatistics). With the nugget written as the
ratio eta = tau2 / sigma2, every covariance here is sigma2 times a matrix
of phi and eta alone, and each objective is a weighted sum of Gaussian
terms, -log f = 1/2 log|sigma2 B| + q(mu) / (2 sigma2) up to a constant,
with q quadratic in mu. So the minimiser mu_hat solves a linear equation,
sigma2_hat is the weighted mean of q(mu_hat) per unit of dimension, and
the profile's value follows from both. The factorisation at psi is that of
B scaled by psi's sigma2, so it serves the profile unchanged. By the
envelope theorem the profile's gradient over (log phi, eta) is the
objective's own derivative along log phi, and its derivative along tau2
times sigma2, at (mu_hat, sigma2_hat, phi, eta sigma2_hat). The
derivative along tau2 is taken as such, not along log tau2, so the
gradient is exact at eta = 0, where the nugget vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from ._linalg import backward_solve_batched, cholesky_lower, forward_solve_batched
from .model import (
    Dataset,
    ModelParams,
    matern_cov_and_dlogphi,
    observation_cov,
    read_only,
    require_at_least,
    symmetric_from_condensed,
)

LOG_2PI = math.log(2.0 * math.pi)
# pairs per slice of the pairwise NLL, and at most the index entries per
# slice of a Vecchia gather: 64 KB per 8-byte temporary, under glibc's
# default 128 KB mmap threshold
PAIR_CHUNK = 8192
# pairs per partial sum of the pairwise NLL's per-pair rows, in blocks that
# start at its multiples in the pair list; PAIR_CHUNK is a multiple of it
SUM_BLOCK = 8192
# distances per block of rows in the Vecchia plan's neighbour search: 256 KB
# per 8-byte temporary
PLAN_BLOCK = 32768
# entries per n x w x w index array of a Vecchia plan, w = min(m, n - 1) + 1: 256 MiB of int64
PLAN_MAX_ENTRIES = 2**25


class Profile(NamedTuple):
    """An objective minimised over mu and sigma2 at fixed phi and
    eta = tau2 / sigma2: the minimisers ``mu`` and ``sigma2``, the value
    ``nll`` there, and ``grad``, its gradient over (log phi, eta), which
    holds at eta = 0 too."""

    mu: float
    sigma2: float
    nll: float
    grad: np.ndarray


class NllValue(float):
    """A negative log-likelihood: the float it equals, plus ``profile``, the
    :class:`Profile` at that point's phi and eta."""

    __slots__ = ("profile",)

    def __new__(cls, value, profile: Profile):
        self = super().__new__(cls, value)
        self.profile = profile
        return self


def maxmin_order(locs: np.ndarray) -> np.ndarray:
    """Maximin ordering: start at the point nearest the centroid, then
    repeatedly take the point farthest from everything already ordered.
    Ties break to the lowest original index. The distances between points
    are rows of one ``cdist`` matrix, so this holds n x n doubles."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    n = locs.shape[0]
    nxt = int(np.argmin(np.linalg.norm(locs - locs.mean(axis=0), axis=1)))
    dist = cdist(locs, locs)
    order, mindist = np.empty(n, dtype=int), np.full(n, np.inf)
    for j in range(n):
        order[j] = nxt
        np.minimum(mindist, dist[nxt], out=mindist)
        mindist[nxt] = -np.inf
        nxt = int(np.argmax(mindist))
    return order


def check_plan_size(n: int, m: int) -> None:
    """Refuse a Vecchia plan of n points at ``m`` above ``PLAN_MAX_ENTRIES``."""
    size = n * (min(m, n - 1) + 1) ** 2
    if size > PLAN_MAX_ENTRIES:
        raise ValueError(f"Vecchia plan at n={n}, m={m}: {size} > {PLAN_MAX_ENTRIES} entries per index array")


@dataclass(frozen=True, eq=False)
class VecchiaPlan:
    """An ordering with its nearest-earlier-neighbour conditioning blocks,
    derived once from ``locations``, ``order`` and ``m`` into private,
    read-only arrays.

    Row j of ``idx`` (width min(m, n - 1) + 1) is the block of the j-th
    ordered point ``order[j]``: its ``k[j] = min(m, j)`` nearest earlier
    points, ties to the lowest index, then the point itself in column
    ``k[j]``, then copies of it as padding, so its conditioning set is
    ``idx[j, :k[j]]``. ``pair_index`` maps each entry to its distinct
    pair in ``pair_dists``, and an entry in a padding row or column past
    the end: to slot ``len(pair_dists)`` off the diagonal, the next on it.
    The neighbour search reads one n x n ``cdist`` matrix of the
    locations, a block of rows at a time, and sorts only the entries of a
    row at or below its w-th smallest earlier distance, w the width of
    ``idx`` (:func:`_nearest_earlier`). The distinct pairs are marked in an
    n x n boolean table at their keys; its nonzeros, in key order, pick
    ``pair_dists`` out of the matrix, which is then freed, and its running
    count gives each entry's slot.
    """

    locations: np.ndarray
    order: np.ndarray
    m: int
    idx: np.ndarray = field(init=False, repr=False)
    k: np.ndarray = field(init=False, repr=False)
    pair_index: np.ndarray = field(init=False, repr=False)
    pair_dists: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        locs = read_only(np.atleast_2d(np.array(self.locations, dtype=float)))
        order = read_only(np.array(self.order, dtype=int))
        n = locs.shape[0]
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order is not a permutation of the {n} locations")
        if not np.all(np.isfinite(locs)):
            raise ValueError("non-finite coordinates")
        require_at_least("m", self.m, 1)
        check_plan_size(n, self.m)
        k = np.minimum(np.arange(n), self.m)
        cols = np.arange(min(self.m, n - 1) + 1)

        full = cdist(locs, locs)
        idx = np.where(cols < k[:, None], _nearest_earlier(full, order, cols.size), order[:, None])

        # blocks share most point pairs, so each distinct pair is kept once;
        # a pair's key min * n + max is its flat index in the distance
        # matrix, and its rank among the marked keys its slot
        key = np.minimum(idx[:, :, None], idx[:, None, :])
        key *= n
        key += np.maximum(idx[:, :, None], idx[:, None, :])
        table = np.zeros(n * n, dtype=bool)
        table[key] = True
        pair_dists = full.ravel()[np.flatnonzero(table)]
        del full
        rank = table.astype(np.intp)
        del table
        np.cumsum(rank, out=rank)
        rank -= 1
        pair_index = rank[key]
        del rank, key
        valid = cols <= k[:, None]
        pair_index[~(valid[:, :, None] & valid[:, None, :])] = pair_dists.size
        pair_index[:, cols, cols] += ~valid  # the padded diagonal takes the next slot

        for name, value in dict(
            locations=locs, order=order, idx=read_only(idx), k=read_only(k), pair_index=read_only(pair_index),
            pair_dists=read_only(pair_dists),
        ).items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.order.size

    def check_data(self, data: Dataset):
        if data.n != self.n or not np.array_equal(data.locations, self.locations):
            raise ValueError("plan was built for different locations")


def _nearest_earlier(dist: np.ndarray, order: np.ndarray, w: int) -> np.ndarray:
    """Row j: the w points nearest ``order[j]`` by ``dist`` among those
    ordered before it, nearest first with ties to the lowest index; a row
    with fewer than w such points ends in later ones. Rows are taken in
    blocks of about ``PLAN_BLOCK`` distances, and each keeps only its
    entries at or below its w-th smallest value before it is sorted."""
    n = order.size
    position = np.argsort(order)
    nearest = np.empty((n, w), dtype=np.intp)
    step = max(1, PLAN_BLOCK // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        d = np.where(position < rows[:, None], dist[order[rows]], np.inf)
        kth = np.partition(d, w - 1, axis=1)[:, w - 1 : w]
        r, c = np.nonzero(d <= kth)
        # by row, then distance, then index (lexsort is stable and c ascends
        # within a row); each row holds at least w entries, so its first w
        # are the w nearest
        by_dist = c[np.lexsort((d[r, c], r))]
        nearest[rows] = by_dist[np.searchsorted(r, rows - lo)[:, None] + np.arange(w)]
    return nearest


def nn_conditioning_sets(locs: np.ndarray, order: np.ndarray, m: int) -> VecchiaPlan:
    """The plan conditioning each ordered point on its (at most) m nearest
    previously-ordered points; distance ties break to the lowest index."""
    return VecchiaPlan(locs, order, m)


def exact_nll(psi: ModelParams, data: Dataset) -> NllValue:
    """Negative log-likelihood of N(mu 1, Sigma(theta) + tau2 I) via Cholesky,
    with its profile. The Matérn and its phi-derivative are evaluated
    together on the n(n-1)/2 condensed distances and mirrored, with their
    h = 0 limits, sigma2 + tau2 and 0, on the diagonal. The factor is
    dropped before the derivative matrix is built, so at most about four
    n x n arrays are alive at once.

    The profile's mu is the generalised-least-squares mean and its sigma2
    is r'B^-1 r / n for the GLS residual r, with B the covariance over
    sigma2. Its gradient takes 1/2 tr((C - c a a') dA) over log phi and
    eta, with C the inverse covariance at psi, a = C r, c the ratio of
    psi's sigma2 to the profile's, and dA = sigma2 I along eta."""
    theta, n = psi.theta, data.n
    pair_cov, pair_dcov = matern_cov_and_dlogphi(data.condensed_distances(), theta)
    cov = observation_cov(pair_cov, psi)
    del pair_cov
    chol = cholesky_lower(cov, context="observation covariance", overwrite=True)
    log_det = np.sum(np.log(np.diag(chol)))
    z = solve_triangular(chol, data.values - psi.mu, lower=True, check_finite=False)
    value = 0.5 * n * LOG_2PI + log_det + 0.5 * z @ z

    ones = solve_triangular(chol, np.ones(n), lower=True, check_finite=False)
    shift = (ones @ z) / (ones @ ones)
    resid = z - shift * ones
    ratio = (resid @ resid) / n
    alpha_hat = solve_triangular(chol, resid, lower=True, trans="T", check_finite=False)
    inverse = cho_solve((chol, True), np.eye(n, order="F"), overwrite_b=True, check_finite=False)
    del chol
    with _degenerate_profile_ok():
        # w = inverse - a a' / ratio, in the outer product's own C-ordered
        # buffer: summed in that order, the gradient keeps its last bits
        w = np.multiply.outer(alpha_hat, alpha_hat)
        w /= ratio
        np.subtract(inverse, w, out=w)
        del inverse
        trace_w = np.trace(w)
        w *= symmetric_from_condensed(pair_dcov, 0.0)  # dC/dlog phi is +0.0 at h = 0
        profile = Profile(
            psi.mu + shift,
            theta.sigma2 * ratio,
            log_det + 0.5 * n * (LOG_2PI + 1.0 + np.log(ratio)),
            np.array([0.5 * np.sum(w), 0.5 * theta.sigma2 * trace_w]),
        )
    return NllValue(value, profile)


def _degenerate_profile_ok():
    """Where every residual is zero, as with one observation or constant
    values, a profile's sigma2 is 0, its value -inf and its gradient NaN;
    inside this scope they are computed without floating-point warnings."""
    return np.errstate(divide="ignore", invalid="ignore")


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
    profile.

    Unweighted this is -sum_i log f(y_p(i) | y_q(i)). The weighted form
    applies w_p(i) to both the joint and conditioning-set log densities,
    which telescopes to w_p(i) times the conditional terms; with all
    weights equal to 1 the two coincide bit-for-bit, profile included.

    Per block with factor L, target row k, z = L^-1 r, alpha = L^-T z and
    u = L^-T e_k, the conditional term's derivative along dA is
    1/2 (1 + z_k^2) u'dA u - z_k alpha'dA u. Padding rows of u and alpha
    are exactly zero, so they drop out.

    With b = L^-1 1 as well, a block's residual at mu + s is z - s b, so
    with weights w the profile shifts mu by s = sum(w z_k b_k) / sum(w b_k^2)
    and scales sigma2 by c = sum(w (z_k - s b_k)^2) / sum(w). Its gradient
    is the derivative above at that residual, with z_k^2 and z_k over c.
    """
    plan.check_data(data)
    idx, k, n = plan.idx, plan.k, plan.n
    w = np.ones(n) if weights is None else _as_weight_array(weights, n)
    w = w[plan.order]
    diag = np.arange(idx.shape[1])
    valid = diag <= k[:, None]
    # one allocation for the two block-sized arrays: glibc's malloc raises
    # its mmap threshold to the largest chunk it frees and trims the heap
    # when its free top reaches twice that, so later calls reuse these heap
    # pages, rather than fault in new ones, while a call's heap peak (this
    # pair, the Cholesky factor and small arrays) stays under twice their size
    block, d_matern = np.empty((2, *plan.pair_index.shape))
    # np.take copies a read-only index array, as the plan's are, so each
    # gather takes at most PAIR_CHUNK entries' worth of rows at a time: a
    # whole block-sized copy would lift the heap peak past that bound
    step = max(1, PAIR_CHUNK // plan.pair_index[0].size)

    def gather(values, slots, out):  # mode="clip" writes in place; "raise" buffers
        values = np.append(values, slots)
        for start in range(0, n, step):
            part = slice(start, start + step)
            np.take(values, plan.pair_index[part], out=out[part], mode="clip")

    pair_cov, pair_dcov = matern_cov_and_dlogphi(plan.pair_dists, psi.theta)
    gather(pair_cov, (0.0, 1.0), block)
    block[:, diag, diag] += psi.tau2 * valid

    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        for j in range(n):
            cholesky_lower(block[j], context=f"vecchia conditioning block {j} (point {plan.order[j]})")
        raise

    rows = np.arange(n)
    # forward: the residuals (z) and the valid entries (b); backward: e_k
    # (u) and the residuals at the profile's mu
    rhs = np.empty((2, *idx.shape))
    np.multiply(data.values[idx] - psi.mu, valid, out=rhs[0])
    rhs[1] = valid
    z, ones = forward_solve_batched(chol, rhs)
    zk, bk = z[rows, k], ones[rows, k]
    shift = np.sum(w * zk * bk) / np.sum(w * bk * bk)
    rhs[0] = 0.0
    rhs[0, rows, k] = 1.0
    np.multiply(ones, -shift, out=rhs[1])
    rhs[1] += z
    u, alpha_hat = backward_solve_batched(chol, rhs)
    gather(pair_dcov, (0.0, 0.0), d_matern)
    d_u = np.einsum("bij,bj->bi", d_matern, u)

    def derivative(resid, scale, u_da_u, alpha_da_u):
        return 0.5 * (1.0 + resid * resid / scale) * u_da_u - resid / scale * alpha_da_u

    log_kk = np.log(chol[rows, k, k])
    resid = zk - shift * bk
    ratio = np.sum(w * resid * resid) / np.sum(w)
    with _degenerate_profile_ok():
        terms = np.stack(
            [
                0.5 * LOG_2PI + log_kk + 0.5 * zk * zk,
                0.5 * (LOG_2PI + 1.0 + np.log(ratio)) + log_kk,
                derivative(resid, ratio, _dot(u, d_u), _dot(alpha_hat, d_u)),
                psi.theta.sigma2 * derivative(resid, ratio, _dot(u, u), _dot(alpha_hat, u)),
            ]
        )
        terms *= w
        total = terms.sum(axis=1)
    profile = Profile(psi.mu + shift, psi.theta.sigma2 * ratio, total[1], total[2:])
    return NllValue(total[0], profile)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two stacks of vectors."""
    return np.einsum("bi,bi->b", x, y)


def _pair_rows(out, psi, resid, w, iu, ju, d):
    """Write the per-pair rows of :func:`pairwise_marginal_nll` for the
    pairs (iu, ju) at distances d into ``out``, each row's last product
    straight into its slot. A function of its own so that one slice's
    temporaries are freed before the next slice's are made, which keeps
    the call's heap peak low."""
    omega, w_e, w_f = out[1], out[4], out[5]  # rows that later rows reuse
    omega[:] = 1.0 if w is None else w[iu] * w[ju]
    c, dc = matern_cov_and_dlogphi(d, psi.theta)
    v = psi.theta.sigma2 + psi.tau2
    e, f = v + c, v - c
    p, m = resid[iu], resid[ju]
    p, m = p + m, p - m  # each pair's residual sum and difference
    inv_e, inv_f = 1.0 / e, 1.0 / f
    np.multiply(inv_e, omega, out=w_e)
    np.multiply(inv_f, omega, out=w_f)
    p_e, m_f = p * inv_e, m * inv_f
    np.multiply(np.log(e * f), omega, out=out[0])
    np.multiply(p * p_e + m * m_f, omega, out=out[2])
    np.multiply(p, w_e, out=out[3])
    np.multiply(inv_e, w_e, out=out[6])
    np.multiply(p_e, w_e, out=out[7])
    np.multiply(p_e * p_e + m_f * m_f, omega, out=out[8])
    np.multiply(w_e - w_f, dc, out=out[9])
    np.multiply(m_f * m_f - p_e * p_e, dc * omega, out=out[10])
    np.multiply(dc, out[7], out=out[11])
    np.multiply(dc, out[6], out=out[12])


def pairwise_marginal_nll(
    psi: ModelParams,
    data: Dataset,
    weights=None,
    cutoff: float | None = None,
) -> NllValue:
    """Negative weighted pairwise-marginal composite log-likelihood, with
    its profile.

    Sums -omega_ij log f(y_i, y_j) over pairs within ``cutoff`` (all pairs
    when None), with omega_ij = w_i w_j when weights are supplied.

    A pair with marginal variance v and covariance c is two independent
    normals: the sum p = a + b of its residuals, of variance 2e with
    e = v + c, and the difference m = a - b, of variance 2f with f = v - c.
    Its term is log 2pi + 1/2 log(e f) + (p^2 / e + m^2 / f) / 4. Only p
    moves with mu, so the profile shifts mu by
    s = sum(omega p / e) / (2 sum(omega / e)), and the profile's gradient
    is a sum of omega times a few powers of p, m, 1/e and 1/f, quadratic
    in s. The per-pair rows below are those sums' summands.

    The pairs are walked in slices of ``PAIR_CHUNK``, so every per-pair
    temporary stays small enough for the allocator to reuse rather than
    map and fault in afresh on each call. Each slice writes its per-pair
    rows into one slice-sized buffer and sums them over each block of
    ``SUM_BLOCK`` pairs; the block sums are added up at the end. The
    per-pair expressions are elementwise and the blocks are fixed by the
    pair list alone, so values and profiles do not depend on the slice
    size, bit for bit.
    """
    n = data.n
    require_at_least("observation count of the pairwise likelihood", n, 2)
    iu_all, ju_all, d_all = data.pairs(cutoff)
    if d_all.size == 0:
        raise ValueError(f"no pairs within cutoff {cutoff}")
    w = None if weights is None else _as_weight_array(weights, n)

    resid = data.values - psi.mu
    rows = np.empty((13, min(PAIR_CHUNK, d_all.size)))
    block_sums = np.empty((13, -(-d_all.size // SUM_BLOCK)))
    for start in range(0, d_all.size, PAIR_CHUNK):
        part = slice(start, start + PAIR_CHUNK)
        out = rows[:, : d_all[part].size]
        _pair_rows(out, psi, resid, w, iu_all[part], ju_all[part], d_all[part])
        for block in range(0, out.shape[1], SUM_BLOCK):
            block_sums[:, (start + block) // SUM_BLOCK] = out[:, block : block + SUM_BLOCK].sum(axis=1)
    (log_ef, total_w, sq, p_e, inv_e, inv_f, inv_e2, p_e2, sq2, phi_diff, phi_sq2, phi_p_e2, phi_inv_e2) = (
        block_sums.sum(axis=1)
    )
    base = LOG_2PI * total_w + 0.5 * log_ef

    # at mu + s, p moves to p - 2s: sq drops by 2 s p_e, and p^2/e^2 in
    # sq2 and phi_sq2 by 4 s (p_e2 - s inv_e2)
    shift = 0.5 * p_e / inv_e
    ratio = 0.25 * (sq - 2.0 * shift * p_e) / total_w
    with _degenerate_profile_ok():
        profile = Profile(
            psi.mu + shift,
            psi.theta.sigma2 * ratio,
            base + total_w * (np.log(ratio) + 1.0),
            np.array(
                [
                    0.5 * phi_diff + 0.25 * (phi_sq2 + 4.0 * shift * (phi_p_e2 - shift * phi_inv_e2)) / ratio,
                    psi.theta.sigma2
                    * (0.5 * (inv_e + inv_f) - 0.25 * (sq2 - 4.0 * shift * (p_e2 - shift * inv_e2)) / ratio),
                ]
            ),
        )
    return NllValue(base + 0.25 * sq, profile)


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
        """The objective's value at ``psi``, carrying its profile."""
        if self.kind == EXACT:
            return exact_nll(psi, data)
        if self.kind == VECCHIA:
            return vecchia_nll(psi, data, self.plan, self.weights)
        return pairwise_marginal_nll(psi, data, self.weights, self.pair_cutoff)
