"""Domain geometry, Matérn covariance, and parameter containers.

Everything downstream (simulation, likelihoods, kriging) builds covariance
matrices through this module, so the conventions live here: distances are
Euclidean in raw coordinate units, the smoothness ``nu`` is treated as a
known constant, and the nugget ``tau2`` sits on the diagonal of the
observation covariance only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.special import gamma as _gamma
from scipy.special import k0 as _bessel_k0
from scipy.special import k1 as _bessel_k1
from scipy.special import kv as _bessel_kv


@dataclass(frozen=True)
class Domain:
    """Rectangular study region [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"degenerate domain: {self}")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def diameter(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, locs: np.ndarray) -> np.ndarray:
        locs = np.atleast_2d(np.asarray(locs, dtype=float))
        return (
            (locs[:, 0] >= self.x0)
            & (locs[:, 0] <= self.x1)
            & (locs[:, 1] >= self.y0)
            & (locs[:, 1] <= self.y1)
        )


@dataclass(frozen=True)
class CovParams:
    """Matérn covariance parameters (variance, range, smoothness)."""

    sigma2: float
    phi: float
    nu: float

    def __post_init__(self):
        if not (self.sigma2 > 0 and self.phi > 0 and self.nu > 0):
            raise ValueError(f"covariance parameters must be positive: {self}")


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector (mu, sigma2, phi, tau2) with fixed nu."""

    mu: float
    theta: CovParams
    tau2: float

    def __post_init__(self):
        if self.tau2 < 0:
            raise ValueError(f"nugget must be nonnegative, got {self.tau2}")

    @classmethod
    def from_values(cls, mu, sigma2, phi, tau2, nu=1.0) -> "ModelParams":
        return cls(mu=float(mu), theta=CovParams(float(sigma2), float(phi), float(nu)), tau2=float(tau2))

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "sigma2": self.theta.sigma2,
            "phi": self.theta.phi,
            "tau2": self.tau2,
            "nu": self.theta.nu,
        }


@dataclass
class Dataset:
    """Observation locations (n, 2) paired with values (n,).

    Locations must be pairwise distinct; coincident points (closer than
    1e-12) make the noiseless covariance exactly singular. The condensed
    pairwise distances (``pdist`` order, which is ``np.triu_indices(n, 1)``
    order) are computed once, by the duplicate check, and serve every
    covariance built on the data.
    """

    locations: np.ndarray
    values: np.ndarray
    _condensed: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.locations.shape != (self.values.size, 2):
            raise ValueError(
                f"locations {self.locations.shape} do not pair with {self.values.size} values"
            )
        if self.values.size < 1:
            raise ValueError("dataset needs at least one observation")
        if not np.all(np.isfinite(self.locations)) or not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite coordinates or values")
        self._condensed = pdist(self.locations)
        if self._condensed.size and np.min(self._condensed) < 1e-12:
            raise ValueError("duplicate locations (within 1e-12)")

    @property
    def n(self) -> int:
        return self.values.size

    def condensed_distances(self) -> np.ndarray:
        """The n(n-1)/2 distances d(i, j), i < j, in ``np.triu_indices(n, 1)``
        order; equal bit for bit to the matching entries of ``cdist``."""
        return self._condensed

    def pairwise_distances(self) -> np.ndarray:
        """Full n x n Euclidean distance matrix, mirrored from the condensed
        distances once and cached."""
        if "full" not in self._cache:
            self._cache["full"] = squareform(self._condensed, checks=False)
        return self._cache["full"]

    def pairs(self, cutoff: float | None = None) -> tuple:
        """Indices i < j and distances of the pairs within ``cutoff`` (all
        pairs when None), in condensed order; computed once per cutoff."""
        key = ("pairs", cutoff)
        if key not in self._cache:
            iu, ju = np.triu_indices(self.n, k=1)
            d = self._condensed
            if cutoff is not None:
                mask = d <= cutoff
                iu, ju, d = iu[mask], ju[mask], d[mask]
            self._cache[key] = (iu, ju, d)
        return self._cache[key]


def pairwise_distances(locs: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    if other is None:
        other = locs
    else:
        other = np.atleast_2d(np.asarray(other, dtype=float))
    return cdist(locs, other)


def _scaled_distances(h, theta: CovParams):
    """Whether the validated distances ``h`` were a scalar, and the Matérn
    argument s = sqrt(2 nu) h / phi as an array."""
    h_arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h_arr)):
        raise ValueError("distances must be finite")
    if np.any(h_arr < 0):
        raise ValueError("distances must be nonnegative")
    scalar = h_arr.ndim == 0
    return scalar, math.sqrt(2.0 * theta.nu) / theta.phi * np.atleast_1d(h_arr)


def _bessel_k(order: float, s: np.ndarray):
    """K_order(s), with 1 where it is not finite, and the mask of those
    entries. K is infinite at s = 0 and overflows (or turns NaN) only for
    subnormal or similarly tiny s, where the Matérn covariance and its
    derivative equal their h = 0 limits to double precision (for nu >= 0.03);
    callers substitute those limits there."""
    if order == 0.0:
        bessel = _bessel_k0(s)
    elif abs(order) == 1.0:
        bessel = _bessel_k1(s)
    else:
        bessel = _bessel_kv(order, s)
    limit = ~np.isfinite(bessel)
    return np.where(limit, 1.0, bessel), limit


def matern_cov(h, theta: CovParams):
    """Matérn covariance at distance(s) ``h``.

    C(h) = sigma2 * 2^(1-nu)/Gamma(nu) * (sqrt(2 nu) h / phi)^nu
           * K_nu(sqrt(2 nu) h / phi)

    with the h = 0 limit sigma2 taken explicitly, also where K_nu overflows
    at tiny s (see ``_bessel_k``). nu = 1/2, 1, 3/2 and
    5/2 use their closed forms (exponential decay times a polynomial, or
    K_1 directly); other orders go through the general Bessel-K branch.
    Accepts scalars or arrays; returns the same shape.
    """
    scalar, s = _scaled_distances(h, theta)
    sigma2, nu = theta.sigma2, theta.nu

    if nu == 0.5:
        out = sigma2 * np.exp(-s)
    elif nu == 1.5:
        out = sigma2 * (1.0 + s) * np.exp(-s)
    elif nu == 2.5:
        out = sigma2 * (1.0 + s + s * s / 3.0) * np.exp(-s)
    else:
        bessel, limit = _bessel_k(nu, s)
        s = np.where(limit, 1.0, s)
        if nu == 1.0:
            out = sigma2 * s * bessel
        else:
            const = sigma2 * 2.0 ** (1.0 - nu) / _gamma(nu)
            out = const * s**nu * bessel
        out = np.where(limit, sigma2, out)

    if scalar:
        return float(out[0])
    return out


def matern_cov_dlogphi(h, theta: CovParams):
    """Derivative of :func:`matern_cov` with respect to log phi.

    With s = sqrt(2 nu) h / phi, ds/dlog phi = -s and
    d/ds [s^nu K_nu(s)] = -s^nu K_(nu-1)(s), so

        dC/dlog phi = sigma2 * 2^(1-nu)/Gamma(nu) * s^(nu+1) * K_(nu-1)(s),

    which is sigma2 s^2 K_0(s) at nu = 1 and vanishes at h = 0. nu = 1/2,
    3/2 and 5/2 use the derivatives of their exponential closed forms.
    Accepts scalars or arrays; returns the same shape.
    """
    scalar, s = _scaled_distances(h, theta)
    sigma2, nu = theta.sigma2, theta.nu

    if nu == 0.5:
        out = sigma2 * s * np.exp(-s)
    elif nu == 1.5:
        out = sigma2 * s * s * np.exp(-s)
    elif nu == 2.5:
        out = sigma2 * s * s * (1.0 + s) / 3.0 * np.exp(-s)
    else:
        bessel, limit = _bessel_k(nu - 1.0, s)
        s = np.where(limit, 1.0, s)
        if nu == 1.0:
            out = sigma2 * s * s * bessel
        else:
            const = sigma2 * 2.0 ** (1.0 - nu) / _gamma(nu)
            out = const * s ** (nu + 1.0) * bessel
        out = np.where(limit, 0.0, out)

    if scalar:
        return float(out[0])
    return out


def symmetric_from_condensed(condensed: np.ndarray, diagonal: float) -> np.ndarray:
    """n x n symmetric matrix with the condensed values (``pdist`` order)
    mirrored off the diagonal and ``diagonal`` on it."""
    out = squareform(condensed, checks=False)
    np.fill_diagonal(out, diagonal)
    return out


def condensed_cov_matrix(condensed: np.ndarray, theta: CovParams, tau2: float = 0.0) -> np.ndarray:
    """n x n observation covariance from condensed pairwise distances: the
    Matérn evaluated once per pair i < j and mirrored, with its h = 0 limit
    plus ``tau2`` on the diagonal. Bit for bit the Matérn of the full
    ``cdist`` matrix, since the Matérn is elementwise and ``pdist`` equals
    ``cdist`` entry for entry."""
    if tau2 < 0:
        raise ValueError(f"nugget must be nonnegative, got {tau2}")
    return symmetric_from_condensed(matern_cov(condensed, theta), matern_cov(0.0, theta) + tau2)


def build_cov_matrix(locs: np.ndarray, theta: CovParams, tau2: float = 0.0) -> np.ndarray:
    """n x n observation covariance: Matérn on pairwise distances plus
    ``tau2`` on the diagonal (see :func:`condensed_cov_matrix`)."""
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    return condensed_cov_matrix(pdist(locs), theta, tau2)


def microergodic(theta: CovParams) -> float:
    """The consistently estimable covariance functional sigma2 / phi^(2 nu)."""
    return theta.sigma2 / theta.phi ** (2.0 * theta.nu)
