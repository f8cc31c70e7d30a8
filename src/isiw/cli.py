"""Command-line surface.

Subcommands: simulate (field -> CSV), sample (points -> CSV), intensity
(kernel intensity and weights -> CSV), fit (data CSV -> parameter report),
krige (data CSV + parameters -> surface CSV), experiment (config file ->
results CSVs). Each subcommand takes only the flags it reads; any other
flag is a usage error. ``fit --method`` takes the experiment's method
entries (``mle``, ``vecchia``, ``isiw-v:SOURCE``, ``isiw-pm:SOURCE``) and
builds the same objective the experiment does, except that the ``known``
source, which needs the simulated truth, is refused. Exit codes: 0
success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ._linalg import NotPositiveDefiniteError
from .experiment import (
    KNOWN,
    METHOD_ISIW_PM,
    ExperimentConfig,
    build_objective,
    estimated_weights,
    load_config,
    parse_method,
    run_experiment,
    vecchia_plan,
)
from .fields import GridSpec, SeedStream, simulate_field
from .inference import FitConfig, default_init, fit
from .intensity import (
    BandwidthSpec,
    GRID_METHODS,
    SCOTT,
    estimate_intensity,
    select_bandwidth,
    weights_from_intensity,
)
from .kriging import krige
from .model import CovParams, Domain, ModelParams, microergodic
from .pointprocess import SamplerSpec, compute_intensity, sample_conditioned, sample_thomas, THOMAS
from . import io

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_domain(text: str) -> Domain:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("domain must be x0,x1,y0,y1")
    return Domain(*parts)


def _fit_method(text: str):
    try:
        spec = parse_method(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if spec.source == KNOWN:
        raise argparse.ArgumentTypeError(
            f"{text!r}: the known intensity exists only in a simulation; "
            "use 'isiw experiment' or an estimated source"
        )
    return spec


# Flags that several subcommands read, each added only where it is read.
_SHARED = {
    "seed": dict(type=int, default=0, help="root random seed"),
    "out-dir": dict(default=".", help="directory for output files"),
    "domain": dict(type=_parse_domain, default=Domain(0.0, 1.0, 0.0, 1.0),
                   help="study region x0,x1,y0,y1"),
    "nu": dict(type=float, default=ExperimentConfig.nu, help="Matérn smoothness (fixed)"),
    "threshold": dict(type=float, default=ExperimentConfig.threshold,
                      help="winsorization lower threshold on normalized intensity"),
}


def _subcommand(sub, name: str, shared: tuple, **kwargs) -> _Parser:
    p = sub.add_parser(name, **kwargs)
    for flag in shared:
        p.add_argument(f"--{flag}", **_SHARED[flag])
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="isiw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "simulate", ("seed", "out-dir", "domain", "nu"),
                    help="simulate a Matérn field on a grid")
    p.add_argument("--nx", type=int, default=48)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--sigma2", type=float, default=1.5)
    p.add_argument("--phi", type=float, default=0.15)
    p.add_argument("--out", default="field.csv")

    p = _subcommand(sub, "sample", ("seed", "out-dir"), help="sample a preferential point pattern")
    p.add_argument("--field", required=True, help="field CSV from 'simulate'")
    p.add_argument("--sampler", default="lgcp", choices=["lgcp", "scp", "thomas"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--parent-rate", type=float, default=25.0)
    p.add_argument("--offspring-scale", type=float, default=0.1)
    p.add_argument("--out", default="points.csv")

    p = _subcommand(sub, "intensity", ("out-dir", "domain", "threshold"),
                    help="kernel intensity on a grid plus inverse-intensity weights")
    p.add_argument("--points", required=True, help="points CSV (x,y)")
    p.add_argument("--nx", type=int, default=48, help="evaluation grid resolution")
    p.add_argument("--ny", type=int, default=None)
    bandwidth = p.add_mutually_exclusive_group()
    bandwidth.add_argument("--selector", default=SCOTT, choices=[SCOTT, *GRID_METHODS],
                           help="bandwidth selector")
    bandwidth.add_argument("--bandwidth", type=float, default=None,
                           help="fixed kernel bandwidth in place of a selector")

    p = _subcommand(sub, "fit", ("seed", "out-dir", "domain", "threshold", "nu"),
                    help="fit model parameters to a data CSV")
    p.add_argument("--data", required=True, help="data CSV (x,y,value)")
    p.add_argument("--method", type=_fit_method, default="mle",
                   help="mle, vecchia, isiw-v:SOURCE or isiw-pm:SOURCE; SOURCE is a "
                        "bandwidth selector: scott, diggle, ppl, CvL or CvL.adaptive")
    p.add_argument("--m", type=int, default=ExperimentConfig.m, help="max conditioning-set size")
    p.add_argument("--cutoff", type=float, default=None,
                   help="isiw-pm pairwise distance cutoff")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = _subcommand(sub, "krige", ("out-dir", "domain", "nu"),
                    help="predict a surface from fitted parameters")
    p.add_argument("--data", required=True, help="data CSV (x,y,value)")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--tau2", type=float, required=True)
    p.add_argument("--nx", type=int, default=48)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--out", default="surface.csv")

    p = _subcommand(sub, "experiment", ("out-dir",), help="run a replicated comparison")
    p.add_argument("--config", help="experiment config file (key=value lines)")
    p.add_argument("--threads", type=int, default=None, help="parallel workers; overrides the config")
    p.add_argument("--seed", type=int, default=None, help="root random seed; overrides the config")

    return parser


def _cmd_simulate(args) -> int:
    grid = GridSpec(args.domain, args.nx, args.ny if args.ny else args.nx)
    fld = simulate_field(grid, CovParams(args.sigma2, args.phi, args.nu), SeedStream(args.seed))
    io.write_field_csv(Path(args.out_dir) / args.out, fld)
    print(f"wrote {grid.ncells} cells to {Path(args.out_dir) / args.out}")
    return 0


def _cmd_sample(args) -> int:
    fld = io.read_field_csv(args.field)
    spec = SamplerSpec(
        kind=args.sampler, n=args.n, beta=args.beta, alpha=args.alpha,
        parent_rate=args.parent_rate, offspring_scale=args.offspring_scale,
    )
    seed = SeedStream(args.seed)
    if args.sampler == THOMAS:
        pts = sample_thomas(fld, spec, seed)
    else:
        pts = sample_conditioned(fld, compute_intensity(args.sampler, fld, spec), args.n, seed)
    io.write_points_csv(Path(args.out_dir) / args.out, pts)
    print(f"wrote {len(pts)} points to {Path(args.out_dir) / args.out}")
    return 0


def _cmd_intensity(args) -> int:
    pts = io.read_points_csv(args.points)
    if args.bandwidth is not None:
        bw = BandwidthSpec(method="fixed", h=args.bandwidth)
    else:
        bw = select_bandwidth(args.selector, pts, args.domain)
    grid = GridSpec(args.domain, args.nx, args.ny if args.ny else args.nx)
    on_grid = estimate_intensity(pts, args.domain, bw, at=grid.cell_centers())
    weights = weights_from_intensity(estimate_intensity(pts, args.domain, bw), args.threshold)
    out = Path(args.out_dir)
    io.write_intensity_csv(out / "intensity.csv", grid, on_grid)
    io.write_weights_csv(out / "weights.csv", pts, weights)
    print(f"bandwidth={bw.h!r} method={bw.method} -> {out / 'intensity.csv'}, {out / 'weights.csv'}")
    return 0


def _cmd_fit(args) -> int:
    if args.cutoff is not None and args.method.name != METHOD_ISIW_PM:
        raise ValueError(f"--cutoff applies to isiw-pm only, not to {args.method.name}")
    data = io.read_dataset_csv(args.data)
    objective = build_objective(
        args.method, data,
        plan=lambda: vecchia_plan(data, args.m),
        weights=lambda src: estimated_weights(src, data.locations, args.domain, args.threshold),
        exact_mle_max_n=ExperimentConfig.exact_mle_max_n,
        pair_cutoff=args.cutoff,
    )
    init = default_init(data, args.domain, nu=args.nu)
    res = fit(objective, data, init, FitConfig(domain=args.domain, restart_seed=args.seed))
    report = res.psi_hat.as_dict()
    report["kappa"] = microergodic(res.psi_hat.theta)
    report.update(
        nll=res.nll, converged=res.converged, iterations=res.iterations,
        restarts_used=res.restarts_used, phi_capped=res.phi_capped,
    )
    text = "\n".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in report.items())
    if args.out:
        Path(args.out_dir, args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_krige(args) -> int:
    data = io.read_dataset_csv(args.data)
    psi = ModelParams.from_values(args.mu, args.sigma2, args.phi, args.tau2, nu=args.nu)
    grid = GridSpec(args.domain, args.nx, args.ny if args.ny else args.nx)
    out = krige(psi, data, grid.cell_centers())
    io.write_surface_csv(Path(args.out_dir) / args.out, out)
    print(f"wrote {grid.ncells} predictions to {Path(args.out_dir) / args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"threads": args.threads, "seed": args.seed}
    # replace() runs the config's validation again on the overridden values
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
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
    except (NotPositiveDefiniteError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"isiw: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, FileNotFoundError) as exc:
        print(f"isiw: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
