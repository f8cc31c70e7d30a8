"""Delimited-text readers and writers for every artifact the toolkit
exchanges: fields, point patterns, datasets, intensity/weight surfaces,
prediction surfaces, conditioning plans, and experiment results.

Floats are written with ``repr`` (shortest round-trip form) so files are
reproducible byte-for-byte given identical inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .fields import FieldRealization, GridSpec
from .intensity import IntensityEstimate, WeightVector
from .kriging import KrigingOutput
from .likelihood import VecchiaPlan
from .model import Dataset


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


def read_points_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(float(r["x"]), float(r["y"])) for r in reader]
    if not rows:
        raise ValueError(f"{path}: no points")
    return np.asarray(rows)


def read_field_csv(path) -> FieldRealization:
    """Rebuild a field realization from its x,y,s export; the grid is
    inferred from the unique cell-center coordinates."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(float(r["x"]), float(r["y"]), float(r["s"])) for r in reader]
    if len(rows) < 4:
        raise ValueError(f"{path}: too few cells for a field")
    arr = np.asarray(rows)
    xs = np.unique(arr[:, 0])
    ys = np.unique(arr[:, 1])
    if xs.size * ys.size != arr.shape[0]:
        raise ValueError(f"{path}: cell centers do not form a regular grid")
    dx, dy = xs[1] - xs[0], ys[1] - ys[0]
    from .model import Domain

    grid = GridSpec(
        Domain(xs[0] - dx / 2, xs[-1] + dx / 2, ys[0] - dy / 2, ys[-1] + dy / 2),
        xs.size,
        ys.size,
    )
    values = np.empty(grid.ncells)
    values[grid.locate(arr[:, :2])] = arr[:, 2]
    return FieldRealization(grid=grid, values=values, seed=None)


def write_dataset_csv(path, data: Dataset) -> None:
    write_rows(
        path, ["x", "y", "value"],
        zip(data.locations[:, 0], data.locations[:, 1], data.values),
    )


def read_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"x", "y", "value"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        rows = [(float(r["x"]), float(r["y"]), float(r["value"])) for r in reader]
    if not rows:
        raise ValueError(f"{path}: no observations")
    arr = np.asarray(rows)
    return Dataset(locations=arr[:, :2], values=arr[:, 2])


def write_intensity_csv(path, est: IntensityEstimate) -> None:
    if est.grid is None or est.on_grid is None:
        raise ValueError("intensity estimate has no grid values to export")
    centers = est.grid.cell_centers()
    write_rows(path, ["x", "y", "lambda"], zip(centers[:, 0], centers[:, 1], est.on_grid))


def write_weights_csv(path, locs: np.ndarray, wv: WeightVector) -> None:
    locs = np.atleast_2d(locs)
    write_rows(path, ["x", "y", "weight"], zip(locs[:, 0], locs[:, 1], wv.weights))


def write_surface_csv(path, out: KrigingOutput) -> None:
    write_rows(
        path, ["x", "y", "pred", "var"],
        zip(out.targets[:, 0], out.targets[:, 1], out.predictions, out.variances),
    )


def read_surface_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [
            (float(r["x"]), float(r["y"]), float(r["pred"]), float(r["var"])) for r in reader
        ]
    return np.asarray(rows)


def write_plan_csv(path, plan: VecchiaPlan) -> None:
    """Debug export: one row per point with its ordered position and
    semicolon-joined conditioning set (original indices, nearest first)."""
    rows = []
    for position, idx in enumerate(plan.order):
        rows.append((idx, position, ";".join(str(v) for v in plan.neighbors[position])))
    rows.sort(key=lambda r: r[0])
    write_rows(path, ["index", "ordered_position", "neighbors"], rows)
