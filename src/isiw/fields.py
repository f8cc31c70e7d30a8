"""Latent Gaussian field simulation on a lattice and noisy observation.

Fields are drawn exactly via dense Cholesky of the cell-center covariance
(with a 1e-10 diagonal jitter). On a lattice the distance between two
centers depends only on their squared per-axis differences, which take a
few distinct values per axis (128 each at 48 x 48), so the covariance is
evaluated once per (dx^2, dy^2) class and gathered into the matrix; the
entries equal the Matérn of the ``cdist`` center distances bit for bit.
What remains is the O(N^3) Cholesky of the N x N matrix, which is what
``CELL_BUDGET`` bounds. The factor is cached per (grid, covariance) pair:
replicate draws then cost one matrix-vector product each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import cholesky_lower
from .model import CovParams, Dataset, Domain, matern_cov

CHOL_JITTER = 1e-10
CELL_BUDGET = 4096


@dataclass(frozen=True)
class SeedStream:
    """Reproducible random stream: identical (root, key) gives an identical
    sequence. Streams split with ``child`` are statistically independent.

    Backed by counter-based Philox, so any stream can be constructed
    directly (no sequential state), which lets replicates run in parallel.
    """

    root: int
    key: tuple[int, ...] = ()

    def child(self, *ids: int) -> "SeedStream":
        return SeedStream(self.root, self.key + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.root, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice of nx * ny cells tiling a rectangular domain.

    Cells are indexed row-major with x fastest: cell (ix, iy) has flat
    index iy * nx + ix and center (x0 + (ix+0.5) dx, y0 + (iy+0.5) dy).
    """

    domain: Domain
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 cells per axis, got {self.nx}x{self.ny}")

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def dx(self) -> float:
        return (self.domain.x1 - self.domain.x0) / self.nx

    @property
    def dy(self) -> float:
        return (self.domain.y1 - self.domain.y0) / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates along x (nx,) and along y (ny,)."""
        xs = self.domain.x0 + (np.arange(self.nx) + 0.5) * self.dx
        ys = self.domain.y0 + (np.arange(self.ny) + 0.5) * self.dy
        return xs, ys

    def cell_centers(self) -> np.ndarray:
        gx, gy = np.meshgrid(*self.axis_centers())  # y outer, x inner -> flat index iy*nx+ix
        return np.column_stack([gx.ravel(), gy.ravel()])

    def locate(self, locs: np.ndarray) -> np.ndarray:
        """Flat index of the cell containing each location (boundary points
        fold into the nearest cell)."""
        locs = np.atleast_2d(np.asarray(locs, dtype=float))
        if not np.all(self.domain.contains(locs)):
            raise ValueError("locations outside the grid domain")
        ix = np.clip(((locs[:, 0] - self.domain.x0) / self.dx).astype(int), 0, self.nx - 1)
        iy = np.clip(((locs[:, 1] - self.domain.y0) / self.dy).astype(int), 0, self.ny - 1)
        return iy * self.nx + ix


@dataclass(frozen=True)
class FieldRealization:
    """One zero-mean Gaussian field draw stored at cell centers."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.ncells,):
            raise ValueError("field values do not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")

    def at(self, locs: np.ndarray) -> np.ndarray:
        """Field value at arbitrary locations via nearest-cell lookup."""
        return self.values[self.grid.locate(locs)]


def _squared_difference_classes(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct squared differences of the coordinates along one axis, and
    the (k, k) index of each coordinate pair's value among them."""
    values, index = np.unique(np.subtract.outer(coords, coords) ** 2, return_inverse=True)
    return values, index.reshape(coords.size, coords.size)


def _grid_covariance(spec: GridSpec, theta: CovParams) -> np.ndarray:
    """The N x N Matérn covariance of the cell centers, evaluated once per
    (dx^2, dy^2) class. sqrt(dx^2 + dy^2) is the sum and root ``cdist``
    takes, so every entry equals ``matern_cov(cdist(centers))`` bit for bit."""
    xs, ys = spec.axis_centers()
    sq_x, class_x = _squared_difference_classes(xs)
    sq_y, class_y = _squared_difference_classes(ys)
    table = matern_cov(np.sqrt(sq_x[None, :] + sq_y[:, None]), theta)
    # entry (iy, ix), (jy, jx) is table[class_y[iy, jy], class_x[ix, jx]];
    # the broadcast indices gather it without an N x N index array
    cov = table[class_y[:, None, :, None], class_x[None, :, None, :]]
    return cov.reshape(spec.ncells, spec.ncells)


@lru_cache(maxsize=3)
def _grid_cholesky(spec: GridSpec, theta: CovParams) -> np.ndarray:
    cov = _grid_covariance(spec, theta)
    # jitter scales with sigma2 so the degenerate sigma2 -> 0 limit still
    # produces a (near-)zero field
    cov[np.diag_indices_from(cov)] += CHOL_JITTER * theta.sigma2
    return cholesky_lower(cov, context="grid covariance")


def simulate_field(spec: GridSpec, theta: CovParams, seed: SeedStream) -> FieldRealization:
    """Draw one field from N(0, C_theta) over the grid's cell centers."""
    if spec.ncells > CELL_BUDGET:
        raise ValueError(
            f"grid has {spec.ncells} cells, over the dense-factorization budget {CELL_BUDGET}"
        )
    chol = _grid_cholesky(spec, theta)
    z = seed.generator().standard_normal(spec.ncells)
    return FieldRealization(grid=spec, values=chol @ z)


def observe(
    field: FieldRealization,
    locs: np.ndarray,
    mu: float,
    tau2: float,
    seed: SeedStream,
) -> Dataset:
    """Noisy observations Y_i = mu + S(x_i) + eps_i, eps_i ~ N(0, tau2)."""
    if tau2 < 0:
        raise ValueError(f"nugget must be nonnegative, got {tau2}")
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    s_at = field.at(locs)
    eps = seed.generator().normal(0.0, np.sqrt(tau2), size=s_at.size)
    return Dataset(locations=locs, values=mu + s_at + eps)
