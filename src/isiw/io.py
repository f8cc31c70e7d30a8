"""Delimited-text readers and writers for every artifact the toolkit
exchanges: fields, point patterns, datasets, intensity/weight surfaces,
fitted parameters, prediction surfaces, and experiment results.

Floats are written with ``repr`` (shortest round-trip form) so files are
reproducible byte-for-byte given identical inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .fields import FieldRealization, GridSpec
from .inference import FitResult
from .kriging import KrigingOutput
from .model import Dataset, Domain, ModelParams, microergodic

# the fit's diagnostics, after its parameters and kappa, in a fit CSV
_FIT_STATS = ("nll", "converged", "iterations", "evaluations", "restarts_used", "phi_capped", "gradient_norm")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_field_csv(path, field: FieldRealization) -> None:
    centers = field.grid.cell_centers()
    write_rows(path, ["x", "y", "s"], zip(centers[:, 0], centers[:, 1], field.values))


def write_points_csv(path, locs: np.ndarray) -> None:
    locs = np.atleast_2d(locs)
    write_rows(path, ["x", "y"], zip(locs[:, 0], locs[:, 1]))


def _read_columns(path, names: tuple) -> np.ndarray:
    """The columns ``names`` of a CSV file with a header row, as a
    rows x len(names) float array. A missing column or a value that is not
    a number raises ValueError naming the file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(names) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        try:
            rows = [[float(r[name]) for name in names] for r in reader]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


def read_points_csv(path) -> np.ndarray:
    arr = _read_columns(path, ("x", "y"))
    if not len(arr):
        raise ValueError(f"{path}: no points")
    return arr


def read_field_csv(path) -> FieldRealization:
    """Rebuild a field realization from its x,y,s export; the grid is
    inferred from the unique cell-center coordinates."""
    arr = _read_columns(path, ("x", "y", "s"))
    xs = np.unique(arr[:, 0])
    ys = np.unique(arr[:, 1])
    if min(xs.size, ys.size) < 2 or xs.size * ys.size != arr.shape[0]:
        raise ValueError(f"{path}: cell centers do not form a regular grid of at least 2 x 2 cells")
    dx, dy = xs[1] - xs[0], ys[1] - ys[0]
    grid = GridSpec(
        Domain(xs[0] - dx / 2, xs[-1] + dx / 2, ys[0] - dy / 2, ys[-1] + dy / 2),
        xs.size,
        ys.size,
    )
    # every row at the center of its own cell, so every cell gets a value
    cells = grid.locate(arr[:, :2])
    centered = np.allclose(grid.cell_centers()[cells], arr[:, :2], rtol=0.0, atol=1e-6 * min(dx, dy))
    if not centered or np.unique(cells).size != cells.size:
        raise ValueError(f"{path}: cell centers do not form a regular grid of at least 2 x 2 cells")
    values = np.empty(grid.ncells)
    values[cells] = arr[:, 2]
    return FieldRealization(grid=grid, values=values)


def write_dataset_csv(path, data: Dataset) -> None:
    write_rows(
        path, ["x", "y", "value"],
        zip(data.locations[:, 0], data.locations[:, 1], data.values),
    )


def read_dataset_csv(path) -> Dataset:
    arr = _read_columns(path, ("x", "y", "value"))
    if not len(arr):
        raise ValueError(f"{path}: no observations")
    return Dataset(locations=arr[:, :2], values=arr[:, 2])


def write_fit_csv(path, res: FitResult) -> None:
    """One row: mu, sigma2, phi, tau2, nu, kappa = sigma2 / phi^(2 nu), and
    the fit's diagnostics."""
    row = {**res.psi_hat.as_dict(), "kappa": microergodic(res.psi_hat.theta)}
    row.update((name, getattr(res, name)) for name in _FIT_STATS)
    write_rows(path, list(row), [row.values()])


def read_fit_csv(path) -> ModelParams:
    """The parameters of a one-row CSV with columns mu, sigma2, phi, tau2
    and nu, such as ``write_fit_csv`` writes."""
    arr = _read_columns(path, ("mu", "sigma2", "phi", "tau2", "nu"))
    if len(arr) != 1:
        raise ValueError(f"{path}: {len(arr)} rows of parameters, not one")
    return ModelParams.from_values(*arr[0])


def write_intensity_csv(path, grid: GridSpec, values: np.ndarray) -> None:
    """Intensity ``values`` at the grid's cell centers, in cell order."""
    centers = grid.cell_centers()
    write_rows(path, ["x", "y", "lambda"], zip(centers[:, 0], centers[:, 1], values))


def write_weights_csv(path, locs: np.ndarray, weights: np.ndarray) -> None:
    locs = np.atleast_2d(locs)
    write_rows(path, ["x", "y", "weight"], zip(locs[:, 0], locs[:, 1], weights))


def write_surface_csv(path, out: KrigingOutput) -> None:
    write_rows(
        path, ["x", "y", "pred", "var"],
        zip(out.targets[:, 0], out.targets[:, 1], out.predictions, out.variances),
    )
