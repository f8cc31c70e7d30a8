"""Nonparametric sampling-intensity estimation and inverse-intensity weights.

The estimator is the edge-corrected Gaussian kernel smoother

    lambda_hat(x) = sum_s exp(-|x - s|^2 / (2 h^2)) / (2 pi h^2) / e_h(s)

where e_h(s) is the mass of the kernel centered at s that falls inside the
rectangular domain (product of per-axis normal CDF differences, exact for
rectangles). :func:`estimate_intensity` returns it as a plain array, at the
data points or at any other rows, floored at 1e-12 times its maximum so
the inversion never divides by zero. Five bandwidth selectors are provided;
the grid-searched ones scan ``SEARCH_GRID_SIZE`` log-spaced candidates, and
"CvL.adaptive" attaches a per-point bandwidth inversely proportional to the
square root of a pilot density; the LSCV ("diggle") and Poisson-likelihood
("ppl") criteria have exact integral terms. The criteria are stateless
functions of (points, domain, candidates). The kernel above is evaluated in
:func:`_kernel_sum` alone, and at the data points, for the pilot and every
criterion, by :func:`_kernel_fits`. :func:`weights_from_intensity`
turns intensities into an array of inverse-intensity weights, winsorized
from below on the n-normalized scale and renormalized to sum to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from ._linalg import target_blocks
from .model import Domain, read_only, require_at_least, require_nonnegative, require_positive

SCOTT = "scott"
DIGGLE = "diggle"
PPL = "ppl"
CVL = "CvL"
CVL_ADAPTIVE = "CvL.adaptive"

GRID_METHODS = (DIGGLE, PPL, CVL, CVL_ADAPTIVE)
SEARCH_GRID_SIZE = 64
_INTENSITY_FLOOR_REL = 1e-12


@dataclass(frozen=True, eq=False)
class BandwidthSpec:
    """A bandwidth: a global ``h`` and, for the adaptive method, one
    bandwidth per data point, held as a private read-only copy.
    ``boundary`` flags a selector whose optimum landed on an end of the
    search grid."""

    h: float
    per_point_h: np.ndarray | None = None
    boundary: bool = False

    def __post_init__(self):
        require_positive("bandwidth", self.h)
        if self.per_point_h is not None:
            h = read_only(np.array(self.per_point_h, dtype=float))
            object.__setattr__(self, "per_point_h", h)
            bad = np.flatnonzero(~(np.isfinite(h) & (h > 0)))
            if bad.size:
                raise ValueError(f"per-point bandwidth {bad[0]} is {h[bad[0]]}, not positive and finite")


def _floor_positive(values: np.ndarray) -> np.ndarray:
    top = float(np.max(values)) if values.size else 0.0
    if top <= 0:
        raise ValueError("intensity values must contain a positive entry")
    return np.maximum(values, _INTENSITY_FLOOR_REL * top)


def _edge_mass(points: np.ndarray, h, domain: Domain) -> np.ndarray:
    """Kernel mass inside the rectangular domain for a kernel at each point."""
    ex = ndtr((domain.x1 - points[:, 0]) / h) - ndtr((domain.x0 - points[:, 0]) / h)
    ey = ndtr((domain.y1 - points[:, 1]) / h) - ndtr((domain.y0 - points[:, 1]) / h)
    return ex * ey


def _exp_in_place(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` bit for bit, written into ``x``. Below -746 it writes
    0.0 without calling exp on the entry: numpy's exp rounds to exactly 0.0
    there (below -745.1332), but leaves its fast path to get it. Those
    entries are zeroed before an unmasked exp, which is faster than a
    masked one, and zeroed again after it."""
    zero = x < -746.0
    np.copyto(x, 0.0, where=zero)
    np.exp(x, out=x)
    np.copyto(x, 0.0, where=zero)
    return x


def _kernel_sum(d2: np.ndarray, points: np.ndarray, h, domain: Domain, out=None) -> np.ndarray:
    """Edge-corrected kernel intensity given squared distances eval x source.

    The kernel matrix is built in ``out`` when given (an array of ``d2``'s
    shape, which a search over bandwidths reuses for every candidate), and
    in a fresh array otherwise. Dividing by -2 h^2 equals negating the
    quotient by 2 h^2 bit for bit, since IEEE division is sign-symmetric."""
    h2 = np.broadcast_to(np.asarray(h, dtype=float) ** 2, (points.shape[0],))
    contrib = np.divide(d2, -2.0 * h2, out=out)
    _exp_in_place(contrib)
    contrib /= 2.0 * math.pi * h2
    return contrib @ (1.0 / _edge_mass(points, np.sqrt(h2), domain))


def estimate_intensity(
    points: np.ndarray, domain: Domain, bw: BandwidthSpec, at: np.ndarray | None = None
) -> np.ndarray:
    """Kernel intensity estimate from ``points`` at the rows of ``at``, or
    at the points themselves when ``at`` is None, floored at 1e-12 times
    its maximum. The rows are evaluated in :func:`~isiw._linalg.target_blocks`,
    so no len(at) x n array is held."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    require_at_least("point count", n, 1)
    if not np.all(domain.contains(points)):
        raise ValueError("points outside the domain")
    h = bw.per_point_h
    if h is None:
        h = bw.h
    elif h.size != n:
        raise ValueError("per-point bandwidths do not match the point count")
    at = points if at is None else np.atleast_2d(np.asarray(at, dtype=float))
    out = np.empty(len(at))
    for block in target_blocks(len(at)):
        out[block] = _kernel_sum(cdist(at[block], points, "sqeuclidean"), points, h, domain)
    return _floor_positive(out)


def bandwidth_search_grid(domain: Domain, n: int) -> np.ndarray:
    """Log-spaced candidate bandwidths from sub-point-spacing to domain scale."""
    return np.geomspace(domain.diameter / (2.0 * n), domain.diameter / 2.0, SEARCH_GRID_SIZE)


def scott_bandwidth(points: np.ndarray) -> float:
    """Normal-reference rule: per-axis sd times n^(-1/6), axes combined by
    geometric mean into one isotropic bandwidth."""
    points = np.atleast_2d(points)
    n = points.shape[0]
    sx = float(np.std(points[:, 0], ddof=1))
    sy = float(np.std(points[:, 1], ddof=1))
    return math.sqrt(sx * sy) * n ** (-1.0 / 6.0)


def integral_sq(points: np.ndarray, domain: Domain, hs: np.ndarray) -> np.ndarray:
    """Exact integral of lambda^2 over the domain per bandwidth (Diggle
    1985): per axis, phi_h(x - u) phi_h(x - v) is phi_{sqrt2 h}(u - v)
    times a normal density of scale h/sqrt2 about (u + v)/2, whose mass
    in the rectangle is an edge mass. Summed over pairs i <= j."""
    i, j = np.triu_indices(points.shape[0])
    mult = np.where(i == j, 1.0, 2.0)
    d2, mid = cdist(points, points, "sqeuclidean")[i, j], 0.5 * (points[i] + points[j])
    out = np.empty(hs.size)
    for k, h in enumerate(hs):
        inv_e = 1.0 / _edge_mass(points, h, domain)
        inner = _edge_mass(mid, h / math.sqrt(2.0), domain)
        terms = mult * inv_e[i] * inv_e[j] * _exp_in_place(-d2 / (4.0 * h * h)) * inner
        out[k] = terms.sum() / (4.0 * math.pi * h * h)
    return out


def _kernel_fits(points: np.ndarray, domain: Domain, bandwidths, leave_one_out: bool = False) -> np.ndarray:
    """Unfloored kernel fit at each point (columns) per candidate (rows), a
    global h or a per-point array, with one kernel buffer. Left out, a
    point's own kernel is exp(-inf) = 0: the direct sum over the others, as
    subtracting a self term cancels catastrophically at small h."""
    d2 = cdist(points, points, "sqeuclidean")
    if leave_one_out:
        np.fill_diagonal(d2, np.inf)
    buf = np.empty_like(d2)
    return np.array([_kernel_sum(d2, points, h, domain, out=buf) for h in bandwidths])


def lscv_criterion(points: np.ndarray, domain: Domain, hs: np.ndarray) -> np.ndarray:
    """Least-squares cross-validation risk per candidate bandwidth: the
    exact integral of lambda^2 minus twice the sum of leave-one-out fits."""
    return integral_sq(points, domain, hs) - 2.0 * _kernel_fits(points, domain, hs, True).sum(axis=1)


def ppl_criterion(points: np.ndarray, domain: Domain, hs: np.ndarray) -> np.ndarray:
    """Leave-one-out Poisson log-likelihood per candidate bandwidth. Its
    integral term, the integral of lambda, is exactly n for every h."""
    loo = _kernel_fits(points, domain, hs, leave_one_out=True)
    return np.log(np.maximum(loo, 1e-300)).sum(axis=1) - points.shape[0]


def cvl_criterion(points: np.ndarray, domain: Domain, bandwidths) -> np.ndarray:
    """Squared gap between the summed inverse intensities and the domain
    area (the Campbell-formula identity the estimate should satisfy; Cronie
    & van Lieshout 2018), per candidate: a global h or a per-point array."""
    return (np.sum(1.0 / _kernel_fits(points, domain, bandwidths), axis=1) - domain.area) ** 2


def _adaptive_bandwidths(pilot_at_points: np.ndarray, h0s) -> np.ndarray:
    """h0 sqrt(g / pilot), g the pilot's geometric mean, per entry of ``h0s``."""
    pilot = np.maximum(pilot_at_points, 1e-300)
    g = math.exp(float(np.mean(np.log(pilot))))
    return np.multiply.outer(h0s, np.sqrt(g / pilot))


def select_bandwidth(method: str, points: np.ndarray, domain: Domain) -> BandwidthSpec:
    """Pick a bandwidth by the named rule.

    Grid-searched selectors whose optimum sits on an end of the candidate
    grid return that boundary value with ``boundary=True``. The CvL-family
    search is capped at a quarter of the domain's shorter side: past that
    scale the edge-corrected estimator flattens toward n/|D|, the Campbell
    gap vanishes identically, and the criterion degenerates to ever-larger
    bandwidths that carry no information.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    require_at_least("point count for bandwidth selection", n, 5)

    if method == SCOTT:
        return BandwidthSpec(h=scott_bandwidth(points))
    if method not in GRID_METHODS:
        raise ValueError(f"unknown bandwidth method {method!r}")

    hs = bandwidth_search_grid(domain, n)
    if method in (CVL, CVL_ADAPTIVE):
        cap = min(domain.x1 - domain.x0, domain.y1 - domain.y0) / 4.0
        capped = hs[hs <= cap]
        hs = capped if capped.size >= 2 else hs[:2]

    per_point_h = None
    if method == DIGGLE:
        best = int(np.argmin(lscv_criterion(points, domain, hs)))
    elif method == PPL:
        best = int(np.argmax(ppl_criterion(points, domain, hs)))
    elif method == CVL:
        best = int(np.argmin(cvl_criterion(points, domain, hs)))
    else:  # CvL.adaptive, about a pilot fit at Scott's h
        candidates = _adaptive_bandwidths(_kernel_fits(points, domain, [scott_bandwidth(points)])[0], hs)
        best = int(np.argmin(cvl_criterion(points, domain, candidates)))
        per_point_h = candidates[best]
    return BandwidthSpec(h=float(hs[best]), per_point_h=per_point_h, boundary=best in (0, hs.size - 1))


def weights_from_intensity(intensity: np.ndarray, threshold: float) -> np.ndarray:
    """Inverse-intensity weights: normalize the positive, finite
    ``intensity`` array to sum to n, clamp values below ``threshold`` up to
    it, invert, and renormalize the weights to sum to n.

    The normalizations use compensated summation so a constant intensity
    maps to weights of exactly 1.0 (weighted objectives then collapse to
    their unweighted forms bit-for-bit).
    """
    require_nonnegative("threshold", threshold)
    lam = np.asarray(intensity, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise ValueError("intensities must be positive and finite")
    n = lam.size
    normalized = lam * n / math.fsum(lam)
    clamped = np.maximum(normalized, threshold)
    inv = 1.0 / clamped
    return inv * n / math.fsum(inv)
