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
("ppl") criteria have exact integral terms. :func:`weights_from_intensity`
turns intensities into an array of inverse-intensity weights, winsorized
from below on the n-normalized scale and renormalized to sum to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .model import Domain

SCOTT = "scott"
DIGGLE = "diggle"
PPL = "ppl"
CVL = "CvL"
CVL_ADAPTIVE = "CvL.adaptive"
FIXED = "fixed"
BANDWIDTH_METHODS = (SCOTT, DIGGLE, PPL, CVL, CVL_ADAPTIVE, FIXED)

GRID_METHODS = (DIGGLE, PPL, CVL, CVL_ADAPTIVE)
SEARCH_GRID_SIZE = 64
_INTENSITY_FLOOR_REL = 1e-12


@dataclass
class BandwidthSpec:
    """Resolved bandwidth: a global ``h`` and, for the adaptive method, one
    bandwidth per data point. ``boundary`` flags a selector whose optimum
    landed on an end of the search grid."""

    method: str
    h: float | None = None
    per_point_h: np.ndarray | None = None
    boundary: bool = False

    def __post_init__(self):
        if self.method not in BANDWIDTH_METHODS:
            raise ValueError(f"unknown bandwidth method {self.method!r}")
        if self.h is not None and not self.h > 0:
            raise ValueError(f"bandwidth must be positive, got {self.h}")
        if self.per_point_h is not None:
            self.per_point_h = np.asarray(self.per_point_h, dtype=float)
            if np.any(self.per_point_h <= 0):
                raise ValueError("per-point bandwidths must be positive")

    def resolve(self, n: int) -> np.ndarray | float:
        if self.per_point_h is not None:
            if self.per_point_h.size != n:
                raise ValueError("per-point bandwidths do not match the point count")
            return self.per_point_h
        if self.h is None:
            raise ValueError("bandwidth not resolved; run select_bandwidth first")
        return self.h


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


def _kernel_sum(d2: np.ndarray, points: np.ndarray, h, domain: Domain) -> np.ndarray:
    """Edge-corrected kernel intensity given squared distances eval x source."""
    h2 = np.broadcast_to(np.asarray(h, dtype=float) ** 2, (points.shape[0],))
    contrib = np.exp(-d2 / (2.0 * h2)) / (2.0 * math.pi * h2)
    return contrib @ (1.0 / _edge_mass(points, np.sqrt(h2), domain))


def estimate_intensity(
    points: np.ndarray,
    domain: Domain,
    bw: BandwidthSpec,
    at: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel intensity estimate from ``points`` at the rows of ``at``, or
    at the points themselves when ``at`` is None, floored at 1e-12 times
    its maximum."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    if not np.all(domain.contains(points)):
        raise ValueError("points outside the domain")
    h = bw.resolve(n)
    at = points if at is None else np.atleast_2d(np.asarray(at, dtype=float))
    return _floor_positive(_kernel_sum(cdist(at, points, "sqeuclidean"), points, h, domain))


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


class _SelectorWorkspace:
    """Shared precomputation for the grid-searched selectors.

    Distances are computed once; each candidate bandwidth only pays for
    kernel evaluations. Every edge-corrected kernel integrates to 1 over
    the domain, so the integral of lambda is n; that of lambda^2 is
    :meth:`integral_sq`.
    """

    def __init__(self, points, domain):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.domain = domain
        self.n = self.points.shape[0]
        self.d2_pts = cdist(self.points, self.points, "sqeuclidean")

    def at_points(self, h) -> np.ndarray:
        return _kernel_sum(self.d2_pts, self.points, h, self.domain)

    def at_points_loo(self, h) -> np.ndarray:
        # direct sum over the other points; subtracting a self term instead
        # cancels catastrophically for isolated points at small h
        h2 = np.broadcast_to(np.asarray(h, dtype=float) ** 2, (self.n,))
        contrib = np.exp(-self.d2_pts / (2.0 * h2)) / (2.0 * math.pi * h2)
        np.fill_diagonal(contrib, 0.0)
        return contrib @ (1.0 / _edge_mass(self.points, np.sqrt(h2), self.domain))

    def integral_sq(self, hs: np.ndarray) -> np.ndarray:
        """Exact integral of lambda^2 over the domain per bandwidth (Diggle
        1985): per axis, phi_h(x - u) phi_h(x - v) is phi_{sqrt2 h}(u - v)
        times a normal density of scale h/sqrt2 about (u + v)/2, whose mass
        in the rectangle is an edge mass. Summed over pairs i <= j."""
        i, j = np.triu_indices(self.n)
        mult = np.where(i == j, 1.0, 2.0)
        d2, mid = self.d2_pts[i, j], 0.5 * (self.points[i] + self.points[j])
        out = np.empty(hs.size)
        for k, h in enumerate(hs):
            inv_e = 1.0 / _edge_mass(self.points, h, self.domain)
            inner = _edge_mass(mid, h / math.sqrt(2.0), self.domain)
            terms = mult * inv_e[i] * inv_e[j] * np.exp(-d2 / (4.0 * h * h)) * inner
            out[k] = terms.sum() / (4.0 * math.pi * h * h)
        return out


def lscv_criterion(ws: _SelectorWorkspace, hs: np.ndarray) -> np.ndarray:
    """Least-squares cross-validation risk per candidate bandwidth: the
    exact integral of lambda^2 minus twice the sum of leave-one-out fits."""
    loo = np.array([ws.at_points_loo(h).sum() for h in hs])
    return ws.integral_sq(hs) - 2.0 * loo


def ppl_criterion(ws: _SelectorWorkspace, hs: np.ndarray) -> np.ndarray:
    """Leave-one-out Poisson log-likelihood per candidate bandwidth. Its
    integral term, the integral of lambda, is exactly n for every h."""
    loglik = np.array(
        [np.log(np.maximum(ws.at_points_loo(h), 1e-300)).sum() for h in hs]
    )
    return loglik - ws.n


def cvl_criterion(ws: _SelectorWorkspace, hs: np.ndarray) -> np.ndarray:
    """Squared gap between the summed inverse intensities and the domain
    area (the Campbell-formula identity the estimate should satisfy)."""
    area = ws.domain.area
    out = np.empty(hs.size)
    for j, h in enumerate(hs):
        out[j] = (np.sum(1.0 / ws.at_points(h)) - area) ** 2
    return out


def _adaptive_bandwidths(pilot_at_points: np.ndarray, h0: float) -> np.ndarray:
    pilot = np.maximum(pilot_at_points, 1e-300)
    g = math.exp(float(np.mean(np.log(pilot))))
    return h0 * np.sqrt(g / pilot)


def cvl_adaptive_criterion(
    ws: _SelectorWorkspace, hs: np.ndarray, pilot_at_points: np.ndarray
) -> np.ndarray:
    area = ws.domain.area
    out = np.empty(hs.size)
    for j, h0 in enumerate(hs):
        per_h = _adaptive_bandwidths(pilot_at_points, h0)
        out[j] = (np.sum(1.0 / ws.at_points(per_h)) - area) ** 2
    return out


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
    if n < 5:
        raise ValueError(f"bandwidth selection needs at least 5 points, got {n}")

    if method == SCOTT:
        return BandwidthSpec(method=SCOTT, h=scott_bandwidth(points))
    if method == FIXED:
        raise ValueError("fixed bandwidths are constructed directly, not selected")
    if method not in GRID_METHODS:
        raise ValueError(f"unknown bandwidth method {method!r}")

    hs = bandwidth_search_grid(domain, n)
    if method in (CVL, CVL_ADAPTIVE):
        cap = min(domain.x1 - domain.x0, domain.y1 - domain.y0) / 4.0
        capped = hs[hs <= cap]
        hs = capped if capped.size >= 2 else hs[:2]
    ws = _SelectorWorkspace(points, domain)

    if method == DIGGLE:
        best = int(np.argmin(lscv_criterion(ws, hs)))
    elif method == PPL:
        best = int(np.argmax(ppl_criterion(ws, hs)))
    elif method == CVL:
        best = int(np.argmin(cvl_criterion(ws, hs)))
    else:  # CvL.adaptive
        pilot = ws.at_points(scott_bandwidth(points))
        best = int(np.argmin(cvl_adaptive_criterion(ws, hs, pilot)))
        h0 = float(hs[best])
        return BandwidthSpec(
            method=CVL_ADAPTIVE,
            h=h0,
            per_point_h=_adaptive_bandwidths(pilot, h0),
            boundary=best in (0, hs.size - 1),
        )

    return BandwidthSpec(method=method, h=float(hs[best]), boundary=best in (0, hs.size - 1))


def weights_from_intensity(intensity: np.ndarray, threshold: float) -> np.ndarray:
    """Inverse-intensity weights: normalize the positive ``intensity`` array
    to sum to n, clamp values below ``threshold`` up to it, invert, and
    renormalize the weights to sum to n.

    The normalizations use compensated summation so a constant intensity
    maps to weights of exactly 1.0 (weighted objectives then collapse to
    their unweighted forms bit-for-bit).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    lam = np.asarray(intensity, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("intensities must be positive")
    n = lam.size
    normalized = lam * n / math.fsum(lam)
    clamped = np.maximum(normalized, threshold)
    inv = 1.0 / clamped
    return inv * n / math.fsum(inv)
