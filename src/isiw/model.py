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


def _bessel_k(order: float, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K_order(s) into ``out``, through the K_0 and K_1 routines where the
    order allows."""
    if order == 0.0:
        return _bessel_k0(s, out=out)
    if abs(order) == 1.0:
        return _bessel_k1(s, out=out)
    return _bessel_kv(order, s, out=out)


def _exp_prefactor(s: np.ndarray, sigma2: float, nu: float, dlogphi: bool):
    """The factor before exp(-s) in the closed forms of nu = 1/2, 3/2 and
    5/2 (see :func:`_matern`), computed in its written operation order."""
    if not dlogphi:
        if nu == 0.5:
            return sigma2
        p = s + 1.0
        if nu == 2.5:
            p += s * s / 3.0
        p *= sigma2
        return p
    p = s * sigma2
    if nu == 0.5:
        return p
    p *= s
    if nu == 2.5:
        p *= s + 1.0
        p /= 3.0
    return p


def _matern(h, theta: CovParams, dlogphi: bool):
    """The kernel of :func:`matern_cov` and, with ``dlogphi``,
    :func:`matern_cov_dlogphi`.

    ``h`` is validated once. The result is computed in the buffer of the
    scaled distances s = sqrt(2 nu) h / phi, next to a prefactor array of
    the same size, and every product is taken in the order the formulas are
    written, so the values are bit for bit those of the plain expressions.
    K is infinite at s = 0 and overflows (or turns NaN) only for subnormal
    or similarly tiny s, where the Matérn covariance and its derivative
    equal their h = 0 limits to double precision (for nu >= 0.03); those
    entries are set to the limits in place.
    """
    h_arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h_arr)):
        raise ValueError("distances must be finite")
    if np.any(h_arr < 0):
        raise ValueError("distances must be nonnegative")
    sigma2, nu = theta.sigma2, theta.nu
    s = math.sqrt(2.0 * nu) / theta.phi * np.atleast_1d(h_arr)

    if nu in (0.5, 1.5, 2.5):
        prefactor = _exp_prefactor(s, sigma2, nu, dlogphi)
        np.negative(s, out=s)
        np.exp(s, out=s)
        s *= prefactor
    else:
        if nu == 1.0:
            prefactor = s * sigma2
            if dlogphi:
                prefactor *= s
        else:
            prefactor = s ** (nu + 1.0 if dlogphi else nu)
            prefactor *= sigma2 * 2.0 ** (1.0 - nu) / _gamma(nu)
        _bessel_k(nu - 1.0 if dlogphi else nu, s, out=s)
        limit = ~np.isfinite(s)
        with np.errstate(invalid="ignore"):  # 0 * inf at s = 0, patched below
            s *= prefactor
        s[limit] = 0.0 if dlogphi else sigma2

    if h_arr.ndim == 0:
        return float(s[0])
    return s


def matern_cov(h, theta: CovParams):
    """Matérn covariance at distance(s) ``h``.

    C(h) = sigma2 * 2^(1-nu)/Gamma(nu) * (sqrt(2 nu) h / phi)^nu
           * K_nu(sqrt(2 nu) h / phi)

    with the h = 0 limit sigma2 taken explicitly, also where K_nu overflows
    at tiny s (see ``_matern``). nu = 1/2, 1, 3/2 and 5/2 use their closed
    forms (exponential decay times a polynomial, or K_1 directly); other
    orders go through the general Bessel-K branch.
    Accepts scalars or arrays; returns the same shape.
    """
    return _matern(h, theta, dlogphi=False)


def matern_cov_dlogphi(h, theta: CovParams):
    """Derivative of :func:`matern_cov` with respect to log phi.

    With s = sqrt(2 nu) h / phi, ds/dlog phi = -s and
    d/ds [s^nu K_nu(s)] = -s^nu K_(nu-1)(s), so

        dC/dlog phi = sigma2 * 2^(1-nu)/Gamma(nu) * s^(nu+1) * K_(nu-1)(s),

    which is sigma2 s^2 K_0(s) at nu = 1 and vanishes at h = 0. nu = 1/2,
    3/2 and 5/2 use the derivatives of their exponential closed forms.
    Accepts scalars or arrays; returns the same shape.
    """
    return _matern(h, theta, dlogphi=True)


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
