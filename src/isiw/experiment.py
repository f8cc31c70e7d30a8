"""Replicated simulation comparisons: generate preferentially sampled data,
fit each configured method, krige onto the grid, and score prediction error
against the simulated truth.

Configuration is a flat key=value text file (arrays comma-separated,
``#`` starts a comment). Recognized keys and defaults mirror
:class:`ExperimentConfig`: replicates, grid_nx, grid_ny, domain (x0,x1,y0,y1),
mu, sigma2, nu, tau2, phi (list), samplers (lgcp|scp|thomas list), beta,
alpha, n (list), methods (list, see below), threshold, m, pm_cutoff, seed,
threads, exact_mle_max_n, thomas_parent_rate, thomas_offspring_scale,
timing (on|off).

Method entries are ``mle``, ``vecchia``, or ``isiw-v:SOURCE`` /
``isiw-pm:SOURCE`` with SOURCE one of known, scott, diggle, ppl, CvL,
CvL.adaptive. ``known`` reads the true sampling intensity off the
simulated surface; the others estimate it from the point pattern.
:func:`parse_method` reads an entry and :func:`build_objective` turns it
into the likelihood objective; ``isiw fit --method`` uses both too, so one
entry means one fit everywhere.

Every row is reproducible from (seed, scenario, replicate): streams are
keyed by a hash of the scenario label plus the replicate id, fits are
deterministic, and rows are sorted before writing. Wall-clock timing is the
one nondeterministic field; set ``timing=off`` to zero it for byte-level
reproducibility audits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from ._linalg import blas_threads, set_blas_threads
from .fields import GridSpec, SeedStream, observe, simulate_field
from .inference import FitConfig, default_init, fit
from .intensity import estimate_intensity, select_bandwidth, weights_from_intensity
from .io import write_rows
from .kriging import krige
from .likelihood import EXACT, PAIRWISE_MARGINAL, VECCHIA, Objective, maxmin_order, nn_conditioning_sets
from .model import CovParams, Dataset, Domain, ModelParams, microergodic
from .pointprocess import SAMPLER_KINDS, THOMAS, SamplerSpec, compute_intensity, sample_conditioned, sample_thomas

RESULTS_HEADER = [
    "replicate", "scenario", "method", "variant", "rmspe",
    "mu", "sigma2", "phi", "tau2", "kappa", "seconds", "converged",
]
KNOWN = "known"
WEIGHT_SOURCES = (KNOWN, "scott", "diggle", "ppl", "CvL", "CvL.adaptive")
METHOD_MLE = "mle"
METHOD_VECCHIA = "vecchia"
METHOD_ISIW_V = "isiw-v"
METHOD_ISIW_PM = "isiw-pm"


class MethodSpec(NamedTuple):
    """A parsed method entry; ``source`` is the weight source of the
    weighted methods and empty for ``mle`` and ``vecchia``."""

    name: str
    source: str


def parse_method(entry: str) -> MethodSpec:
    """Parse ``mle``, ``vecchia``, ``isiw-v:SOURCE`` or ``isiw-pm:SOURCE``."""
    name, _, source = entry.partition(":")
    if name in (METHOD_MLE, METHOD_VECCHIA):
        if source:
            raise ValueError(f"{name} takes no weight source: {entry!r}")
    elif name in (METHOD_ISIW_V, METHOD_ISIW_PM):
        if source not in WEIGHT_SOURCES:
            raise ValueError(f"unknown weight source in {entry!r}")
    else:
        raise ValueError(f"unknown method {entry!r}")
    return MethodSpec(name, source)


def vecchia_plan(data: Dataset, m: int):
    """Max-min ordering with up to ``m`` nearest earlier neighbours."""
    return nn_conditioning_sets(data.locations, maxmin_order(data.locations), m)


def estimated_weights(source: str, locations, domain: Domain, threshold: float):
    """Inverse-intensity weights from a kernel estimate whose bandwidth the
    selector ``source`` picks."""
    bw = select_bandwidth(source, locations, domain)
    return weights_from_intensity(estimate_intensity(locations, domain, bw), threshold)


def build_objective(
    spec: MethodSpec, data: Dataset, *, plan, weights, exact_mle_max_n: int, pair_cutoff
) -> Objective:
    """The likelihood objective of ``spec`` on ``data``.

    ``mle`` is the exact likelihood up to ``exact_mle_max_n`` points and the
    unweighted Vecchia one above. ``plan()`` returns the Vecchia plan and
    ``weights(source)`` the weight vector of a source; each is called only
    when the method needs it, so a caller fitting several methods to one
    dataset can cache them.
    """
    if spec.name == METHOD_MLE and data.n <= exact_mle_max_n:
        return Objective(kind=EXACT)
    if spec.name in (METHOD_MLE, METHOD_VECCHIA):
        return Objective(kind=VECCHIA, plan=plan())
    if spec.name == METHOD_ISIW_V:
        return Objective(kind=VECCHIA, plan=plan(), weights=weights(spec.source))
    return Objective(kind=PAIRWISE_MARGINAL, weights=weights(spec.source), pair_cutoff=pair_cutoff)


@dataclass
class ExperimentConfig:
    replicates: int = 50
    grid_nx: int = 48
    grid_ny: int = 48
    domain: Domain = field(default_factory=lambda: Domain(0.0, 1.0, 0.0, 1.0))
    mu: float = 4.0
    sigma2: float = 1.5
    nu: float = 1.0
    tau2: float = 0.1
    phi: tuple = (0.02, 0.15)
    samplers: tuple = ("lgcp",)
    beta: float = 1.0
    alpha: float = 0.0
    n: tuple = (100, 800)
    methods: tuple = ("mle", "isiw-v:known", "isiw-v:diggle", "isiw-v:CvL.adaptive")
    threshold: float = 0.01
    m: int = 20
    pm_cutoff: float | None = None
    seed: int = 1
    threads: int = 1
    exact_mle_max_n: int = 200
    thomas_parent_rate: float = 25.0
    thomas_offspring_scale: float = 0.1
    timing: bool = True

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for key in ("samplers", "n", "phi"):
            if not getattr(self, key):
                raise ValueError(f"{key} must list at least one value")
        for phi in self.phi:
            if not phi > 0:
                raise ValueError(f"phi must be positive, got {phi}")
        for n in self.n:
            if n < 1:
                raise ValueError(f"n must be >= 1, got {n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        try:
            self.grid()
        except ValueError as exc:
            raise ValueError(f"grid_nx, grid_ny: {exc}") from None
        for kind in self.samplers:
            if kind not in SAMPLER_KINDS:
                raise ValueError(
                    f"unknown sampler kind {kind!r} in samplers; use {', '.join(SAMPLER_KINDS)}"
                )
        specs = self.method_specs()  # validate early
        twice = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if twice:
            raise ValueError(f"methods lists {', '.join(twice)} more than once")
        known = [entry for entry, spec in zip(self.methods, specs) if spec.source == KNOWN]
        if THOMAS in self.samplers and known:
            raise ValueError(
                f"samplers lists {THOMAS}, whose sampling intensity is unknown, "
                f"but methods lists {', '.join(known)}"
            )

    def grid(self) -> GridSpec:
        return GridSpec(self.domain, self.grid_nx, self.grid_ny)

    def method_specs(self) -> list:
        return [parse_method(entry) for entry in self.methods]

    def scenarios(self) -> list:
        out = []
        for kind in self.samplers:
            for n in self.n:
                for phi in self.phi:
                    out.append(Scenario(kind=kind, n=int(n), phi=float(phi)))
        return out

    def truth(self, phi: float) -> ModelParams:
        return ModelParams.from_values(self.mu, self.sigma2, phi, self.tau2, nu=self.nu)


@dataclass(frozen=True)
class Scenario:
    kind: str
    n: int
    phi: float

    @property
    def label(self) -> str:
        return f"{self.kind}-n{self.n}-phi{self.phi:g}"

    @property
    def sid(self) -> int:
        return int.from_bytes(hashlib.sha256(self.label.encode()).digest()[:4], "big")


@dataclass
class MetricsRow:
    replicate: int
    scenario: str
    method: str
    variant: str
    rmspe: float
    psi_hat: ModelParams | None
    seconds: float
    converged: bool
    rel_err: dict | None = None
    error: str | None = None

    def csv_row(self) -> tuple:
        if self.psi_hat is None:
            vals = (math.nan,) * 5
        else:
            t = self.psi_hat.theta
            vals = (self.psi_hat.mu, t.sigma2, t.phi, self.psi_hat.tau2, microergodic(t))
        return (
            self.replicate, self.scenario, self.method, self.variant, self.rmspe,
            *vals, self.seconds, self.converged,
        )


def rmspe(predictions, truth) -> float:
    """Root mean squared difference between matched vectors."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if predictions.size != truth.size or predictions.size == 0:
        raise ValueError("predictions and truth must be equal nonzero length")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def param_metrics(fits, truth: ModelParams) -> dict:
    """Relative bias and relative RMSE per parameter, including the
    microergodic ratio. Parameters whose true value is zero come back as
    (nan, nan)."""
    if not fits:
        raise ValueError("no fits to summarize")
    true_vals = {**truth.as_dict(), "kappa": microergodic(truth.theta)}
    del true_vals["nu"]
    out = {}
    for name, true in true_vals.items():
        if true == 0:
            out[name] = (math.nan, math.nan)
            continue
        ests = np.array(
            [{**f.as_dict(), "kappa": microergodic(f.theta)}[name] for f in fits]
        )
        rel = (ests - true) / true
        out[name] = (float(np.mean(rel)), float(np.sqrt(np.mean(rel * rel))))
    return out


def run_replicate(config: ExperimentConfig, scenario: Scenario, replicate: int) -> list:
    """Simulate one dataset and produce one MetricsRow per configured method."""
    root = SeedStream(config.seed)
    grid = config.grid()
    theta = CovParams(config.sigma2, scenario.phi, config.nu)
    fld = simulate_field(grid, theta, root.child(scenario.sid, replicate, 0))
    spec = SamplerSpec(
        kind=scenario.kind,
        n=scenario.n,
        beta=config.beta,
        alpha=config.alpha,
        parent_rate=config.thomas_parent_rate,
        offspring_scale=config.thomas_offspring_scale,
    )
    cell_intensity = None  # the Thomas process has none
    if scenario.kind == THOMAS:
        locs = sample_thomas(fld, spec, root.child(scenario.sid, replicate, 1))
    else:
        cell_intensity = compute_intensity(scenario.kind, fld, spec)
        locs = sample_conditioned(fld, cell_intensity, scenario.n, root.child(scenario.sid, replicate, 1))
    data = observe(fld, locs, config.mu, config.tau2, root.child(scenario.sid, replicate, 2))

    truth_surface = config.mu + fld.values
    centers = grid.cell_centers()
    init = default_init(data, config.domain, nu=config.nu)
    plan = functools.cache(lambda: vecchia_plan(data, config.m))

    @functools.cache
    def weights(source):
        if source == KNOWN:
            if cell_intensity is None:
                raise ValueError("known weights are unavailable for the Thomas process")
            return weights_from_intensity(cell_intensity[fld.grid.locate(locs)], config.threshold)
        return estimated_weights(source, locs, config.domain, config.threshold)

    rows = []
    for mi, method in enumerate(config.method_specs()):
        start = time.perf_counter()
        try:
            objective = build_objective(
                method, data, plan=plan, weights=weights,
                exact_mle_max_n=config.exact_mle_max_n, pair_cutoff=config.pm_cutoff,
            )
            fit_cfg = FitConfig(
                domain=config.domain,
                restart_seed=(config.seed * 2654435761 + scenario.sid * 7919 + replicate * 104729 + mi)
                % (2**63),
            )
            res = fit(objective, data, init, fit_cfg)
            surface = krige(res.psi_hat, data, centers)
            score = rmspe(surface.predictions, truth_surface)
            truth_psi = config.truth(scenario.phi)
            rel = param_metrics([res.psi_hat], truth_psi)
            row = MetricsRow(
                replicate=replicate,
                scenario=scenario.label,
                method=method.name,
                variant=method.source,
                rmspe=score,
                psi_hat=res.psi_hat,
                seconds=0.0,
                converged=res.converged,
                rel_err={k: v[0] for k, v in rel.items()},
            )
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            # a numerical or validation failure must not sink the replicate;
            # any other exception is a bug and propagates
            row = MetricsRow(
                replicate=replicate,
                scenario=scenario.label,
                method=method.name,
                variant=method.source,
                rmspe=math.nan,
                psi_hat=None,
                seconds=0.0,
                converged=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        if config.timing:
            row.seconds = time.perf_counter() - start
        rows.append(row)
    return rows


def _replicate_task(args):
    config, scenario, replicate = args
    return run_replicate(config, scenario, replicate)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """Process pool whose workers each run single-threaded OpenBLAS, so
    ``workers`` processes do not oversubscribe the cores. A worker holds
    only the small cached embedding roots of ``simulate_field``, one per
    phi. The calling process keeps its own thread count; rows do not depend
    on it, since ``fit`` and ``krige`` run on one thread and field draws use
    no BLAS."""
    return ProcessPoolExecutor(max_workers=workers, initializer=set_blas_threads, initargs=(1,))


def run_experiment(config: ExperimentConfig, out_dir) -> tuple:
    """Run every scenario x replicate cell, write the per-replicate results
    CSV plus summary, rank, and parameter-error tables, and return
    (rows, summary_rows)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(config, sc, rep) for sc in config.scenarios() for rep in range(config.replicates)]

    if config.threads > 1:
        with _worker_pool(config.threads) as pool:
            chunks = list(pool.map(_replicate_task, tasks, chunksize=1))
    else:
        chunks = [_replicate_task(t) for t in tasks]

    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.scenario, r.replicate, r.method, r.variant))
    write_rows(out_dir / "results.csv", RESULTS_HEADER, (r.csv_row() for r in rows))

    summary = summarize(rows)
    write_rows(
        out_dir / "summary.csv",
        ["scenario", "method", "variant", "mean_rmspe", "sd_rmspe", "n", "failures"],
        summary,
    )
    write_rows(
        out_dir / "ranks.csv",
        ["scenario", "method", "variant", "median_rank", "mean_rank", "pct_lower_rmspe_than_mle"],
        rank_table(rows),
    )
    write_rows(
        out_dir / "params_summary.csv",
        ["scenario", "method", "variant", "param", "rel_bias", "rel_rmse"],
        _param_table(config, rows),
    )
    _write_metadata(config, out_dir / "run_metadata.txt", len(rows))
    return rows, summary


def summarize(rows) -> list:
    """Mean and sd of RMSPE per (scenario, method, variant)."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.scenario, r.method, r.variant), []).append(r.rmspe)
    out = []
    for (scenario, method, variant), vals in sorted(groups.items()):
        ok = np.array([v for v in vals if math.isfinite(v)])
        mean = float(np.mean(ok)) if ok.size else math.nan
        sd = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
        out.append((scenario, method, variant, mean, sd, len(vals), len(vals) - ok.size))
    return out


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..k of ``values``, tied values sharing the mean of their
    positions: the values of ``scipy.stats.rankdata``, whose module costs a
    process about 23 MB and 0.6 s to import, for the few methods of a cell."""
    v = np.asarray(values, dtype=float)
    below = np.sum(v[:, None] > v[None, :], axis=1)
    tied = np.sum(v[:, None] == v[None, :], axis=1)
    return below + (tied + 1) / 2.0


def rank_table(rows) -> list:
    """Per-scenario (plus pooled "all") rank statistics and the share of
    replicates beating the unweighted exact fit."""
    by_cell: dict = {}
    for r in rows:
        if math.isfinite(r.rmspe):
            by_cell.setdefault((r.scenario, r.replicate), []).append(r)

    def stats(scenario_filter):
        ranks: dict = {}
        beats: dict = {}
        for (scenario, _rep), cell in by_cell.items():
            if scenario_filter is not None and scenario != scenario_filter:
                continue
            vals = _average_ranks([r.rmspe for r in cell])
            mle = next((r.rmspe for r in cell if r.method == METHOD_MLE), None)
            for r, rank in zip(cell, vals):
                key = (r.method, r.variant)
                ranks.setdefault(key, []).append(rank)
                if mle is not None and r.method != METHOD_MLE:
                    beats.setdefault(key, []).append(r.rmspe < mle)
        label = scenario_filter if scenario_filter is not None else "all"
        out = []
        for key in sorted(ranks):
            rk = np.array(ranks[key])
            pct = 100.0 * np.mean(beats[key]) if key in beats else math.nan
            out.append((label, key[0], key[1], float(np.median(rk)), float(np.mean(rk)), float(pct)))
        return out

    scenarios = sorted({s for s, _ in by_cell})
    table = []
    for scenario in scenarios:
        table.extend(stats(scenario))
    if len(scenarios) > 1:
        table.extend(stats(None))
    return table


def _param_table(config, rows) -> list:
    phi_by_label = {sc.label: sc.phi for sc in config.scenarios()}
    groups: dict = {}
    for r in rows:
        if r.psi_hat is not None:
            groups.setdefault((r.scenario, r.method, r.variant), []).append(r.psi_hat)
    out = []
    for (scenario, method, variant), fits in sorted(groups.items()):
        metrics = param_metrics(fits, config.truth(phi_by_label[scenario]))
        for name, (bias, rms) in metrics.items():
            out.append((scenario, method, variant, name, bias, rms))
    return out


def _write_metadata(config: ExperimentConfig, path: Path, n_rows: int) -> None:
    lines = [f"{line}\n" for line in format_config(config).splitlines()]
    lines.append(f"rows_written={n_rows}\n")
    lines.append("rmspe_convention=predictions scored against mu + S at grid cell centers\n")
    lines.append(f"numpy_version={np.__version__}\n")
    lines.append(f"scipy_version={scipy.__version__}\n")
    # the calling process's own counts; pool workers and fit/krige run on one
    counts = ",".join(f"{path}:{n}" for path, n in blas_threads().items())
    lines.append(f"blas_threads={counts}\n")
    path.write_text("".join(lines))


def format_config(config: ExperimentConfig) -> str:
    """Serialize a config to the flat key=value format parse_config reads."""
    parts = []
    for f in dataclass_fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, Domain):
            value = f"{value.x0},{value.x1},{value.y0},{value.y1}"
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "on" if value else "off"
        elif value is None:
            value = ""
        parts.append(f"{f.name}={value}")
    return "\n".join(parts)


_FLOAT_KEYS = {
    "mu", "sigma2", "nu", "tau2", "beta", "alpha", "threshold",
    "thomas_parent_rate", "thomas_offspring_scale",
}
_INT_KEYS = {"replicates", "grid_nx", "grid_ny", "m", "seed", "threads", "exact_mle_max_n"}
_ON = ("on", "true", "1", "yes")
_OFF = ("off", "false", "0", "no")


def _convert(key: str, value: str):
    """The typed value of the config entry ``key=value``; raises KeyError
    for an unknown key and ValueError for a value that does not convert."""
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        return int(value)
    if key == "domain":
        bounds = value.split(",")
        if len(bounds) != 4:
            raise ValueError(f"must be x0,x1,y0,y1, got {value!r}")
        return Domain(*(float(v) for v in bounds))
    if key == "phi":
        return tuple(float(v) for v in value.split(","))
    if key == "n":
        return tuple(int(v) for v in value.split(","))
    if key in ("samplers", "methods"):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if key == "pm_cutoff":
        return float(value) if value else None
    if key == "timing":
        flag = value.lower()
        if flag not in _ON + _OFF:
            raise ValueError(f"must be on or off, got {value!r}")
        return flag in _ON
    raise KeyError(key)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format (see module docstring). An
    error names the line and the key."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            kwargs[key] = _convert(key, value)
        except KeyError:
            raise ValueError(f"config line {lineno}: unknown key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
