"""Latent Gaussian field simulation on a lattice and noisy observation.

Fields are drawn by circulant embedding (Wood & Chan 1994; Dietrich &
Newsam 1997). The nx x ny lattice is embedded in a (2^k nx) x (2^k ny)
torus whose covariance is circulant, so ``fft2`` diagonalizes it; k grows
from 1 until the negative eigenvalues sum to at most 1e-12 sigma2 times
the M entries of the embedding, which bounds the error of every implied
covariance entry by 1e-12 sigma2 once they are clipped at 0. A draw is
then the grid corner of one ``fft2`` of the scaled eigenvalue roots times
complex white noise: it has the Matérn law of the cell centers to within
that bound, costs O(M log M), and calls no BLAS, so it does not depend on
the thread count. ``EMBED_BUDGET`` bounds M; a range too long for the
domain to embed within it raises. ``simulate_field`` caches the roots per
(grid, covariance) pair, read-only since every caller shares them;
``embedding_root`` builds them uncached, so a configuration can be checked
without filling that cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import CovParams, Dataset, Domain, matern_cov, read_only, require_at_least, require_nonnegative

# entries of the largest embedding tried: its complex fft2 array is 32 MB
EMBED_BUDGET = 2**21


@dataclass(frozen=True)
class SeedStream:
    """Reproducible random stream: identical (root, key) gives an identical
    sequence. Streams split with ``child`` are statistically independent.

    Backed by counter-based Philox, so any stream can be constructed
    directly (no sequential state), which lets replicates run in parallel.
    """

    root: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        require_at_least("seed", self.root, 0)

    def child(self, *ids: int) -> "SeedStream":
        return SeedStream(self.root, self.key + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.root, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice of nx * ny cells tiling a rectangular domain, at
    least 2 per axis and at most ``EMBED_BUDGET`` in all.

    Cells are indexed row-major with x fastest: cell (ix, iy) has flat
    index iy * nx + ix and center (x0 + (ix+0.5) dx, y0 + (iy+0.5) dy).
    """

    domain: Domain
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 cells per axis, got {self.nx}x{self.ny}")
        if self.nx * self.ny > EMBED_BUDGET:
            raise ValueError(f"grid of {self.nx}x{self.ny} cells exceeds the budget of {EMBED_BUDGET} cells")

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def dx(self) -> float:
        return (self.domain.x1 - self.domain.x0) / self.nx

    @property
    def dy(self) -> float:
        return (self.domain.y1 - self.domain.y0) / self.ny

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
    """One zero-mean Gaussian field draw stored at cell centers, as a
    private read-only copy."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(np.array(self.values, dtype=float)))
        if self.values.shape != (self.grid.ncells,):
            raise ValueError("field values do not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")

    def at(self, locs: np.ndarray) -> np.ndarray:
        """Field value at arbitrary locations via nearest-cell lookup."""
        return self.values[self.grid.locate(locs)]


def check_embeddable(spec: GridSpec) -> None:
    """Refuse a grid whose smallest circulant embedding, the (2 nx) x (2 ny)
    torus, is already over ``EMBED_BUDGET``, so that no range can fit."""
    if 4 * spec.ncells > EMBED_BUDGET:
        raise ValueError(
            f"no circulant embedding of the {spec.nx}x{spec.ny} grid can fit: its smallest torus, "
            f"{2 * spec.nx}x{2 * spec.ny}, has {4 * spec.ncells} entries, over the budget of {EMBED_BUDGET}"
        )


def embedding_root(spec: GridSpec, theta: CovParams) -> np.ndarray:
    """Square roots sqrt(lambda / M), as a (2^k ny, 2^k nx) array, of the
    eigenvalues of the smallest circulant embedding, k >= 1, whose negative
    eigenvalues sum to at most 1e-12 sigma2 M. Its first row is the Matérn
    at the torus offsets min(i, M - i) dx, so the circulant matrix
    restricted to the grid is the grid covariance; clipping the negative eigenvalues at 0
    changes each implied covariance entry by at most their sum over M.
    Raises ValueError when no embedding within ``EMBED_BUDGET`` does, as
    :func:`check_embeddable` first for the grid alone."""
    check_embeddable(spec)
    mx, my = 2 * spec.nx, 2 * spec.ny
    while mx * my <= EMBED_BUDGET:
        hx = np.minimum(np.arange(mx), mx - np.arange(mx)) * spec.dx
        hy = np.minimum(np.arange(my), my - np.arange(my)) * spec.dy
        lam = np.fft.fft2(matern_cov(np.hypot(hx[None, :], hy[:, None]), theta)).real
        if np.maximum(-lam, 0.0).sum() / lam.size <= 1e-12 * theta.sigma2:
            return read_only(np.sqrt(np.maximum(lam, 0.0) / lam.size))
        tried = f"{mx}x{my}"
        mx, my = 2 * mx, 2 * my
    raise ValueError(
        f"no circulant embedding of the {spec.nx}x{spec.ny} grid within {EMBED_BUDGET} "
        f"entries is nonnegative definite at phi={theta.phi}, nu={theta.nu} "
        f"(largest tried: {tried})"
    )


_embedding_root = lru_cache(maxsize=3)(embedding_root)


def simulate_field(spec: GridSpec, theta: CovParams, seed: SeedStream) -> FieldRealization:
    """Draw one field from N(0, C_theta) over the grid's cell centers."""
    root = _embedding_root(spec, theta)
    z = seed.generator().standard_normal((2,) + root.shape)
    draw = np.fft.fft2(root * (z[0] + 1j * z[1]))
    return FieldRealization(grid=spec, values=draw[: spec.ny, : spec.nx].real.ravel())


def observe(
    field: FieldRealization,
    locs: np.ndarray,
    mu: float,
    tau2: float,
    seed: SeedStream,
) -> Dataset:
    """Noisy observations Y_i = mu + S(x_i) + eps_i, eps_i ~ N(0, tau2)."""
    require_nonnegative("nugget", tau2)
    locs = np.atleast_2d(np.asarray(locs, dtype=float))
    s_at = field.at(locs)
    eps = seed.generator().normal(0.0, np.sqrt(tau2), size=s_at.size)
    return Dataset(locations=locs, values=mu + s_at + eps)
