"""Domain geometry, Matérn covariance, and parameter containers.

Each value type checks its own fields when it is built, with an error that
names the field and the value, so every caller that builds it meets the
same rule.

Everything downstream (simulation, likelihoods, kriging) builds covariance
matrices through this module, so the conventions live here: distances are
Euclidean in raw coordinate units, the smoothness ``nu`` is treated as a
known constant, and the nugget ``tau2`` sits on the diagonal of the
observation covariance only. That covariance is built one way, by the
exact likelihood and by kriging alike, by ``observation_cov``: the Matérn
of the condensed distances d, mirrored by ``symmetric_from_condensed``
with ``matern_cov(0) + tau2`` on the diagonal. ``matern_cov_and_dlogphi``
gives the covariance with its derivative in log phi from one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform
from scipy.special import gamma as _gamma
from scipy.special import k0 as _bessel_k0
from scipy.special import k1 as _bessel_k1
from scipy.special import kv as _bessel_kv


def require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def require_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def require_at_least(name: str, value: float, least: float) -> None:
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class Domain:
    """Rectangular study region [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            require_finite(f"domain {name}", getattr(self, name))
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
        for name in ("sigma2", "phi", "nu"):
            require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector (mu, sigma2, phi, tau2) with fixed nu."""

    mu: float
    theta: CovParams
    tau2: float

    def __post_init__(self):
        require_finite("mu", self.mu)
        require_nonnegative("tau2", self.tau2)

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


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, flagged read-only. Pass only an array no caller holds, such as
    a private copy of an input: a read-only view does not stop writes
    through its base."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observation locations (n, 2) paired with values (n,), held as
    private read-only copies.

    Locations must be pairwise distinct; coincident points (closer than
    1e-12) make the noiseless covariance exactly singular. The condensed
    pairwise distances (``pdist`` order, which is ``np.triu_indices(n, 1)``
    order) are computed once, by the duplicate check, and serve every
    covariance built on the data. Every array it caches and returns is
    read-only.
    """

    locations: np.ndarray
    values: np.ndarray
    _condensed: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        locations = read_only(np.atleast_2d(np.array(self.locations, dtype=float)))
        values = read_only(np.array(self.values, dtype=float).ravel())
        if locations.shape != (values.size, 2):
            raise ValueError(f"locations {locations.shape} do not pair with {values.size} values")
        require_at_least("observation count", values.size, 1)
        if not np.all(np.isfinite(locations)) or not np.all(np.isfinite(values)):
            raise ValueError("non-finite coordinates or values")
        condensed = read_only(pdist(locations))
        if condensed.size and np.min(condensed) < 1e-12:
            raise ValueError("duplicate locations (within 1e-12)")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_condensed", condensed)

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
            self._cache["full"] = read_only(squareform(self._condensed, checks=False))
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
            self._cache[key] = (read_only(iu), read_only(ju), read_only(d))
        return self._cache[key]


def _bessel_k(order: float, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K_order(s) into ``out``, through the K_0 and K_1 routines where the
    order allows."""
    if order == 0.0:
        return _bessel_k0(s, out=out)
    if abs(order) == 1.0:
        return _bessel_k1(s, out=out)
    return _bessel_kv(order, s, out=out)


def _matern(h, theta: CovParams, dlogphi: bool) -> tuple:
    """The kernel of :func:`matern_cov` and :func:`matern_cov_and_dlogphi`:
    the covariance at ``h``, and with ``dlogphi`` also its derivative in
    log phi.

    ``h`` is validated once and scaled to s = sqrt(2 nu) h / phi. The
    closed forms of nu = 1/2, 3/2 and 5/2 are plain expressions of s. The
    Bessel branch computes in a buffer of s, next to a prefactor array of
    the same size, and takes every product in the order the formulas are
    written, so its values are bit for bit those of the plain expressions.
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
    scaled = math.sqrt(2.0 * theta.nu) / theta.phi * np.atleast_1d(h_arr)
    out = (_matern_scaled(scaled.copy() if dlogphi else scaled, theta, False),)
    if dlogphi:
        out += (_matern_scaled(scaled, theta, True),)
    if h_arr.ndim == 0:
        return tuple(float(v[0]) for v in out)
    return out


def _matern_scaled(s: np.ndarray, theta: CovParams, dlogphi: bool) -> np.ndarray:
    """The covariance, or with ``dlogphi`` its derivative in log phi, at
    the scaled distances ``s``; the Bessel branch computes in the buffer
    of ``s``."""
    sigma2, nu = theta.sigma2, theta.nu
    if nu == 0.5:
        return sigma2 * s * np.exp(-s) if dlogphi else sigma2 * np.exp(-s)
    if nu == 1.5:
        return sigma2 * s * s * np.exp(-s) if dlogphi else sigma2 * (1.0 + s) * np.exp(-s)
    if nu == 2.5:
        if dlogphi:
            return sigma2 * s * s * (1.0 + s) / 3.0 * np.exp(-s)
        return sigma2 * (1.0 + s + s * s / 3.0) * np.exp(-s)
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
    return _matern(h, theta, False)[0]


def matern_cov_and_dlogphi(h, theta: CovParams) -> tuple:
    """(:func:`matern_cov`, its derivative with respect to log phi) at
    ``h``, the first equal to :func:`matern_cov` bit for bit, both from one
    validation and one scaling of ``h``.

    With s = sqrt(2 nu) h / phi, ds/dlog phi = -s and
    d/ds [s^nu K_nu(s)] = -s^nu K_(nu-1)(s), so

        dC/dlog phi = sigma2 * 2^(1-nu)/Gamma(nu) * s^(nu+1) * K_(nu-1)(s),

    which is sigma2 s^2 K_0(s) at nu = 1 and exactly +0.0 at h = 0 for
    every nu. nu = 1/2, 3/2 and 5/2 use the derivatives of their
    exponential closed forms. Accepts scalars or arrays; returns the same
    shape.
    """
    return _matern(h, theta, True)


def symmetric_from_condensed(condensed: np.ndarray, diagonal: float) -> np.ndarray:
    """n x n symmetric matrix with the condensed values (``pdist`` order)
    mirrored off the diagonal and ``diagonal`` on it."""
    out = squareform(condensed, checks=False)
    np.fill_diagonal(out, diagonal)
    return out


def observation_cov(pair_cov: np.ndarray, psi: ModelParams) -> np.ndarray:
    """Sigma + tau2 I, n x n, from the condensed Matérn covariances
    ``pair_cov`` (``pdist`` order) of the observation locations."""
    return symmetric_from_condensed(pair_cov, matern_cov(0.0, psi.theta) + psi.tau2)


def microergodic(theta: CovParams) -> float:
    """The consistently estimable covariance functional sigma2 / phi^(2 nu)."""
    return theta.sigma2 / theta.phi ** (2.0 * theta.nu)
