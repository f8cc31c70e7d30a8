"""Preferential point-pattern samplers driven by a field realization.

Supports log-Gaussian Cox (LGCP), sigmoidal Cox (SCP), and Thomas cluster
sampling, all conditioned on an exact point count n. For the Cox processes
conditioning on n turns the inhomogeneous Poisson law into a binomial point
process with density proportional to the intensity, which is sampled as a
multinomial over grid cells followed by a uniform jitter within the cell.
:func:`sample_pattern` draws the pattern of any of the three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldRealization, SeedStream
from .model import Domain, require_at_least, require_finite, require_positive

LGCP = "lgcp"
SCP = "scp"
THOMAS = "thomas"
SAMPLER_KINDS = (LGCP, SCP, THOMAS)
THOMAS_MAX_RETRIES = 1000
# offspring one Thomas realization may hold: at 72 bytes each at the peak
# (centers, offsets, positions and the reflection's temporaries), a
# realization at the budget takes 288 MiB. It also bounds the mean parent
# count, at 40 bytes per parent at the peak.
THOMAS_MAX_OFFSPRING = 2**22
# numpy's Generator.poisson refuses a larger mean: int64 max less ten of
# its square roots, as numpy sets it
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


class SamplingError(RuntimeError):
    """A sampler could not draw its pattern from one field realization.
    Whether it can depends on the field, so a config cannot be checked for
    it before sampling; the experiment runner records a failed cell."""


class SampleSizeError(SamplingError):
    """A sampler drew fewer points than its target count."""


class IntensityOverflowError(SamplingError):
    """A Cox cell intensity is inf or 0 in double precision, as exp(x) is
    above x = 709.8 and below x = -745.2."""


class BroodSizeError(SamplingError):
    """A Thomas brood mean exp(beta S) is above ``POISSON_MEAN_MAX``, or a
    realization's offspring outnumber ``THOMAS_MAX_OFFSPRING``."""


@dataclass(frozen=True)
class SamplerSpec:
    """Configuration for one point-pattern sampler.

    ``alpha`` and ``beta`` parametrize the Cox intensities
    exp(alpha + beta S) (LGCP) and beta / (1 + exp(-S)) (SCP, which
    needs beta > 0); ``parent_rate`` and ``offspring_scale`` apply to the
    Thomas process (expected parents per unit area, Gaussian displacement
    sd) and must then be positive and finite.
    """

    kind: str
    n: int
    beta: float = 1.0
    alpha: float = 0.0
    parent_rate: float = 25.0
    offspring_scale: float = 0.1

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; use {', '.join(SAMPLER_KINDS)}")
        require_at_least("n", self.n, 1)
        require_finite("beta", self.beta)
        require_finite("alpha", self.alpha)
        if self.kind == SCP and not self.beta > 0:
            raise ValueError(f"beta must be positive for {SCP}, got {self.beta}")
        if self.kind == THOMAS:
            require_positive("parent_rate", self.parent_rate)
            require_positive("offspring_scale", self.offspring_scale)


def check_parent_count(parent_rate: float, domain: Domain) -> None:
    """Refuse a Thomas parent rate whose mean parent count on ``domain`` is
    over ``THOMAS_MAX_OFFSPRING``, before anything is drawn."""
    mean = parent_rate * domain.area
    if not mean <= THOMAS_MAX_OFFSPRING:
        raise ValueError(
            f"the mean Thomas parent count, parent_rate {parent_rate:g} times area {domain.area:g} = {mean:.4g}, "
            f"is over the budget of {THOMAS_MAX_OFFSPRING}"
        )


def _field_range(field: FieldRealization, spec: SamplerSpec) -> str:
    s = field.values
    return f"field from {s.min():.4g} to {s.max():.4g}, beta={spec.beta}; lower |beta| or sigma2"


def compute_intensity(kind: str, field: FieldRealization, spec: SamplerSpec) -> np.ndarray:
    """Deterministic per-cell sampling intensity for the Cox processes.

    The Thomas process is rejected: given only the field there is no
    deterministic cell intensity (it depends on the random parent pattern).
    ``kind`` must be ``spec.kind``, whose rules the spec checked. Raises
    :class:`IntensityOverflowError` where a cell's intensity overflows to
    inf or underflows to 0, as exp(beta S) does at beta = 200.
    """
    if kind != spec.kind:
        raise ValueError(f"sampler kind {kind!r} differs from its spec's kind {spec.kind!r}")
    if kind == THOMAS:
        raise ValueError("Thomas process has no deterministic cell intensity")
    s = field.values
    with np.errstate(over="ignore"):
        intensity = np.exp(spec.alpha + spec.beta * s) if kind == LGCP else spec.beta / (1.0 + np.exp(-s))
    outside = np.count_nonzero(~((intensity > 0) & (intensity < np.inf)))
    if outside:
        raise IntensityOverflowError(
            f"{kind} intensity overflows or underflows double precision in {outside} of {s.size} cells "
            f"({_field_range(field, spec)})"
        )
    return intensity


def sample_conditioned(
    field: FieldRealization, intensity: np.ndarray, n: int, seed: SeedStream
) -> np.ndarray:
    """Exactly n points with density proportional to the cell intensity.

    Cells are drawn from a multinomial with probability proportional to
    intensity * cell area (areas are equal on a regular grid), then each
    point is jittered uniformly within its cell.
    """
    grid = field.grid
    intensity = np.asarray(intensity, dtype=float)
    if intensity.shape != (grid.ncells,):
        raise ValueError("intensity does not match the grid")
    if np.any(intensity <= 0) or not np.all(np.isfinite(intensity)):
        raise ValueError("cell intensities must be positive and finite")
    require_at_least("n", n, 1)

    rng = seed.generator()
    probs = intensity / intensity.sum()
    counts = rng.multinomial(n, probs)
    cells = np.repeat(np.arange(grid.ncells), counts)
    u = rng.random((n, 2))
    ix = cells % grid.nx
    iy = cells // grid.nx
    x = grid.domain.x0 + (ix + u[:, 0]) * grid.dx
    y = grid.domain.y0 + (iy + u[:, 1]) * grid.dy
    return np.column_stack([x, y])


def _reflect_into(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold coordinates back into [lo, hi] by reflection at the boundaries."""
    width = hi - lo
    t = np.mod(values - lo, 2.0 * width)
    return lo + np.minimum(t, 2.0 * width - t)


def sample_thomas(field: FieldRealization, spec: SamplerSpec, seed: SeedStream) -> np.ndarray:
    """Thomas cluster sample of exactly n points.

    Parents come from a homogeneous Poisson process; each parent gets a
    Poisson(exp(beta * S(parent))) brood displaced by an isotropic Gaussian
    and reflected back into the domain. A whole realization is regenerated,
    at most ``THOMAS_MAX_RETRIES`` times, until it holds at least n points,
    then subsampled uniformly without replacement (subsampling keeps the
    clustering structure intact). Raises :class:`SampleSizeError` when no
    realization does, and :class:`BroodSizeError` when a brood mean is too
    large for numpy to draw or a realization's offspring too many to hold.
    Raises ValueError, by :func:`check_parent_count`, for a parent rate
    whose mean parent count is too large to hold.
    """
    if spec.kind != THOMAS:
        raise ValueError(f"sampler kind must be {THOMAS!r}, got {spec.kind!r}")
    dom = field.grid.domain
    check_parent_count(spec.parent_rate, dom)
    rng = seed.generator()

    for _ in range(THOMAS_MAX_RETRIES):
        n_parents = rng.poisson(spec.parent_rate * dom.area)
        if n_parents == 0:
            continue
        parents = np.column_stack(
            [
                rng.uniform(dom.x0, dom.x1, n_parents),
                rng.uniform(dom.y0, dom.y1, n_parents),
            ]
        )
        with np.errstate(over="ignore"):
            means = np.exp(spec.beta * field.at(parents))
        top = means.max()
        if not top <= POISSON_MEAN_MAX:  # inf included
            raise BroodSizeError(
                f"Thomas brood mean exp(beta S) reaches {top:.4g}, above {POISSON_MEAN_MAX:.4g}, "
                f"the largest Poisson mean numpy draws ({_field_range(field, spec)})"
            )
        broods = rng.poisson(means)
        total = broods.sum(dtype=float)  # no int64 wraparound; exact up to 2**53
        if total < spec.n:
            continue
        if total > THOMAS_MAX_OFFSPRING:
            raise BroodSizeError(
                f"Thomas realization of {total:.4g} offspring exceeds the budget of {THOMAS_MAX_OFFSPRING} "
                f"({_field_range(field, spec)})"
            )
        total = int(total)
        centers = np.repeat(parents, broods, axis=0)
        offsets = rng.normal(0.0, spec.offspring_scale, size=(total, 2))
        pts = centers + offsets
        pts[:, 0] = _reflect_into(pts[:, 0], dom.x0, dom.x1)
        pts[:, 1] = _reflect_into(pts[:, 1], dom.y0, dom.y1)
        keep = rng.choice(total, size=spec.n, replace=False)
        return pts[np.sort(keep)]

    raise SampleSizeError(
        f"Thomas sampler never reached {spec.n} points in {THOMAS_MAX_RETRIES} attempts; "
        "raise parent_rate or lower n"
    )


def sample_pattern(field: FieldRealization, spec: SamplerSpec, seed: SeedStream) -> tuple:
    """The pattern of ``spec`` drawn on ``field`` from ``seed``, as
    ``(locations, cell_intensity)``: a Thomas pattern by its clusters, with
    cell intensity None, since it has none; a Cox pattern conditioned on its
    cell intensity, which comes back with it. Raises what
    :func:`sample_thomas` or :func:`compute_intensity` raises."""
    if spec.kind == THOMAS:
        return sample_thomas(field, spec, seed), None
    intensity = compute_intensity(spec.kind, field, spec)
    return sample_conditioned(field, intensity, spec.n, seed), intensity
