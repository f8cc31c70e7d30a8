"""Command-line surface.

Subcommands: simulate (field -> CSV), sample (points -> CSV), intensity
(kernel intensity and weights -> CSV), fit (data CSV -> fit CSV), krige
(data CSV + fit CSV -> surface CSV), experiment (config file -> results
CSVs). A subcommand that writes one file takes its path as ``--out``, one
that writes several their directory as ``--out-dir``. Each takes only the
flags it reads; any other flag is a usage error, and so is a setting flag
that the run would not read, by the config's rule (``fit --m`` for an
exact fit, ``sample --parent-rate`` without thomas). ``fit --method``
takes the experiment's method entries (``mle``, ``vecchia``,
``isiw-v:SOURCE``, ``isiw-pm:SOURCE``) and fits one through
:func:`~isiw.experiment.method_fitter`, as the experiment does; the runner
refuses the ``known`` source, which needs the simulated truth.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .experiment import (
    DEFAULTS,
    ExperimentConfig,
    check_fit_settings,
    load_config,
    method_fitter,
    parse_domain,
    parse_method,
    run_experiment,
    unread_settings,
)
from .fields import GridSpec, SeedStream, simulate_field
from .intensity import (
    BandwidthSpec,
    GRID_METHODS,
    SCOTT,
    estimate_intensity,
    select_bandwidth,
    weights_from_intensity,
)
from .kriging import krige
from .model import CovParams
from .pointprocess import SAMPLER_KINDS, SamplerSpec, sample_pattern
from . import io

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _argument(parse):
    """``parse`` as an argparse type whose ValueError text is the usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _grid(args) -> GridSpec:
    """The --nx by --ny grid on --domain; --ny is --nx when not given."""
    return GridSpec(args.domain, args.nx, args.nx if args.ny is None else args.ny)


# Flags that several subcommands read, each added only where it is read.
_SHARED = {
    "seed": dict(type=int, default=DEFAULTS["seed"], help="root random seed"),
    "out-dir": dict(default=".", help="directory for output files"),
    "domain": dict(type=_argument(parse_domain), default=DEFAULTS["domain"], help="study region x0,x1,y0,y1"),
    "nu": dict(type=float, default=DEFAULTS["nu"], help="Matérn smoothness (fixed)"),
    "nx": dict(type=int, default=DEFAULTS["grid_nx"], help="grid cells along x"),
    "ny": dict(type=int, default=None, help="grid cells along y (default: --nx)"),
    "threshold": dict(type=float, default=None,
                      help="winsorization lower threshold on normalized intensity"),
}

# The flags of settings that only some runs read (experiment.unread_settings),
# by dest, with their config keys. Each defaults to None, so that a given
# flag is told from an absent one, which takes the config's default.
_SETTINGS = {
    "m": "m", "threshold": "threshold", "cutoff": "pm_cutoff",
    "parent_rate": "thomas_parent_rate", "offspring_scale": "thomas_offspring_scale",
}


def _read_settings(args, unread: dict) -> None:
    """Refuse each setting flag given in ``args`` whose key is in
    ``unread``, naming the flag and the reason; fill each absent one with
    the config's default."""
    for dest, key in _SETTINGS.items():
        if not hasattr(args, dest):
            continue
        if getattr(args, dest) is None:
            setattr(args, dest, DEFAULTS[key])
        elif key in unread:
            raise ValueError(f"--{dest.replace('_', '-')} {unread[key]}")


def _subcommand(sub, name: str, shared: tuple, **kwargs) -> _Parser:
    p = sub.add_parser(name, **kwargs)
    for flag in shared:
        p.add_argument(f"--{flag}", **_SHARED[flag])
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="isiw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "simulate", ("seed", "domain", "nu", "nx", "ny"),
                    help="simulate a Matérn field on a grid")
    p.add_argument("--sigma2", type=float, default=DEFAULTS["sigma2"])
    p.add_argument("--phi", type=float, default=0.15)
    p.add_argument("--out", default="field.csv")

    p = _subcommand(sub, "sample", ("seed",), help="sample a preferential point pattern")
    p.add_argument("--field", required=True, help="field CSV from 'simulate'")
    p.add_argument("--sampler", default="lgcp", choices=SAMPLER_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, default=DEFAULTS["beta"])
    p.add_argument("--parent-rate", type=float, default=None, help="thomas only")
    p.add_argument("--offspring-scale", type=float, default=None, help="thomas only")
    p.add_argument("--out", default="points.csv")

    p = _subcommand(sub, "intensity", ("out-dir", "domain", "threshold", "nx", "ny"),
                    help="kernel intensity on a grid plus inverse-intensity weights")
    p.add_argument("--points", required=True, help="points CSV (x,y)")
    bandwidth = p.add_mutually_exclusive_group()
    bandwidth.add_argument("--selector", default=SCOTT, choices=[SCOTT, *GRID_METHODS],
                           help="bandwidth selector")
    bandwidth.add_argument("--bandwidth", type=float, default=None,
                           help="fixed kernel bandwidth in place of a selector")

    p = _subcommand(sub, "fit", ("domain", "threshold", "nu"),
                    help="fit model parameters to a data CSV")
    p.add_argument("--data", required=True, help="data CSV (x,y,value)")
    p.add_argument("--method", type=_argument(parse_method), default="mle",
                   help="mle, vecchia, isiw-v:SOURCE or isiw-pm:SOURCE; SOURCE is a "
                        "bandwidth selector: scott, diggle, ppl, CvL or CvL.adaptive")
    p.add_argument("--m", type=int, default=None, help="max conditioning-set size of a Vecchia fit")
    p.add_argument("--cutoff", type=float, default=None,
                   help="isiw-pm pairwise distance cutoff")
    p.add_argument("--out", default="fit.csv", help="fit CSV: parameters, kappa and diagnostics")

    p = _subcommand(sub, "krige", ("domain", "nx", "ny"), help="predict a surface from fitted parameters")
    p.add_argument("--data", required=True, help="data CSV (x,y,value)")
    p.add_argument("--fit", required=True, help="fit CSV from 'fit', or any one-row mu,sigma2,phi,tau2,nu CSV")
    p.add_argument("--out", default="surface.csv")

    p = _subcommand(sub, "experiment", ("out-dir",), help="run a replicated comparison")
    p.add_argument("--config", help="experiment config file (key=value lines)")

    return parser


def _cmd_simulate(args) -> int:
    grid = _grid(args)
    fld = simulate_field(grid, CovParams(args.sigma2, args.phi, args.nu), SeedStream(args.seed))
    io.write_field_csv(args.out, fld)
    print(f"wrote {grid.ncells} cells to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    _read_settings(args, unread_settings([args.sampler]))
    fld = io.read_field_csv(args.field)
    spec = SamplerSpec(
        kind=args.sampler, n=args.n, beta=args.beta,
        parent_rate=args.parent_rate, offspring_scale=args.offspring_scale,
    )
    pts, _ = sample_pattern(fld, spec, SeedStream(args.seed))
    io.write_points_csv(args.out, pts)
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def _cmd_intensity(args) -> int:
    _read_settings(args, {})
    grid = _grid(args)
    pts = io.read_points_csv(args.points)
    if args.bandwidth is not None:
        bw, selector = BandwidthSpec(h=args.bandwidth), "fixed"
    else:
        bw, selector = select_bandwidth(args.selector, pts, args.domain), args.selector
    on_grid = estimate_intensity(pts, args.domain, bw, at=grid.cell_centers())
    weights = weights_from_intensity(estimate_intensity(pts, args.domain, bw), args.threshold)
    out = Path(args.out_dir)
    io.write_intensity_csv(out / "intensity.csv", grid, on_grid)
    io.write_weights_csv(out / "weights.csv", pts, weights)
    print(f"bandwidth={bw.h!r} selector={selector} boundary={bw.boundary} -> "
          f"{out / 'intensity.csv'}, {out / 'weights.csv'}")
    return 0


def _cmd_fit(args) -> int:
    data = io.read_dataset_csv(args.data)  # whether mle reads --m depends on the data size
    _read_settings(args, unread_settings((), [args.method], [data.n]))
    check_fit_settings(args.m, args.threshold, args.cutoff, ("--m", "--threshold", "--cutoff"))
    fit_one = method_fitter(
        data, args.domain, nu=args.nu, m=args.m, threshold=args.threshold, pair_cutoff=args.cutoff,
    )
    io.write_fit_csv(args.out, fit_one(args.method))
    print(f"wrote the fit to {args.out}")
    return 0


def _cmd_krige(args) -> int:
    grid = _grid(args)
    data = io.read_dataset_csv(args.data)
    out = krige(io.read_fit_csv(args.fit), data, grid.cell_centers())
    io.write_surface_csv(args.out, out)
    print(f"wrote {grid.ncells} predictions to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    rows, summary = run_experiment(config, args.out_dir)
    print(f"wrote {len(rows)} result rows to {Path(args.out_dir) / 'results.csv'}")
    for scenario, method, variant, mean, sd, count, failures in summary:
        tag = f"{method}:{variant}" if variant else method
        print(f"  {scenario:24s} {tag:22s} rmspe {mean:.4f} ({sd:.4f}) n={count} failed={failures}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sample": _cmd_sample,
    "intensity": _cmd_intensity,
    "fit": _cmd_fit,
    "krige": _cmd_krige,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"isiw: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, FileNotFoundError) as exc:
        print(f"isiw: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
