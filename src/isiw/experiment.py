"""Replicated simulation comparisons: generate preferentially sampled data,
fit each configured method, krige onto the grid, and score prediction error
against the simulated truth.

Configuration is a flat key=value text file (arrays comma-separated,
``#`` starts a comment). The recognized keys are the fields of
:class:`ExperimentConfig`, each read as the type of its default: a
domain is x0,x1,y0,y1, a tuple a comma-separated list, ``timing`` on or
off, and ``pm_cutoff`` a float or empty for no cutoff. A key set twice,
or one that the run does not read (:func:`unread_settings`), is refused.

Method entries are ``mle``, ``vecchia``, or ``isiw-v:SOURCE`` /
``isiw-pm:SOURCE`` with SOURCE one of known, scott, diggle, ppl, CvL,
CvL.adaptive. ``known`` reads the true sampling intensity off the
simulated surface; the others estimate it from the point pattern.
:func:`parse_method` reads an entry, :func:`fitted_likelihood` says which
likelihood it fits to n points, and the runner of :func:`method_fitter`
fits it to a dataset; ``isiw fit --method`` uses all three too, so one
entry means one fit everywhere.

Every row is reproducible from (seed, scenario, replicate): streams are
keyed by a hash of the scenario label plus the replicate id, fits are
deterministic and take no seed from the cell, so no row depends on the
order of ``methods``, and rows are sorted before writing. Wall-clock
timing is the one nondeterministic field; set ``timing=off`` to zero it
for byte-level reproducibility audits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields
from itertools import product, repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from ._linalg import blas_threads, one_blas_thread
from .fields import GridSpec, SeedStream, check_embeddable, embedding_root, observe, simulate_field
from .inference import FitConfig, FitResult, default_init, fit
from .intensity import (
    GRID_METHODS, SCOTT, SELECT_MIN_POINTS, estimate_intensity, select_bandwidth, weights_from_intensity,
)
from .io import write_rows
from .kriging import krige
from .likelihood import (
    EXACT, PAIRWISE_MARGINAL, VECCHIA, Objective, check_plan_size, maxmin_order, nn_conditioning_sets,
)
from .model import Dataset, Domain, ModelParams, microergodic, require_at_least, require_nonnegative
from .pointprocess import THOMAS, SamplerSpec, SamplingError, check_parent_count, sample_pattern

RESULTS_HEADER = [
    "replicate", "scenario", "method", "variant", "rmspe",
    "mu", "sigma2", "phi", "tau2", "kappa", "seconds", "converged",
]
KNOWN = "known"
WEIGHT_SOURCES = (KNOWN, SCOTT, *GRID_METHODS)
METHOD_MLE = "mle"
METHOD_VECCHIA = "vecchia"
METHOD_ISIW_V = "isiw-v"
METHOD_ISIW_PM = "isiw-pm"
EXACT_MLE_MAX_N = 200  # mle fits the exact likelihood up to this many points and unweighted Vecchia above


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


def check_fit_settings(m: int, threshold: float, pair_cutoff, names=("m", "threshold", "pm_cutoff")):
    """Refuse an ``m`` below 1, a negative or non-finite ``threshold``, and a pair cutoff that is not
    positive (inf keeps every pair), spelled as in ``names``."""
    require_at_least(names[0], m, 1)
    require_nonnegative(names[1], threshold)
    if pair_cutoff is not None and not pair_cutoff > 0:
        raise ValueError(f"{names[2]} must be positive, got {pair_cutoff}")


def fitted_likelihood(spec: MethodSpec, n: int) -> str:
    """The likelihood that the method entry ``spec`` fits to ``n`` points:
    ``isiw-pm`` the pairwise marginal, ``mle`` the exact likelihood up to
    :data:`EXACT_MLE_MAX_N` points, and every other fit Vecchia."""
    if spec.name == METHOD_ISIW_PM:
        return PAIRWISE_MARGINAL
    if spec.name == METHOD_MLE and n <= EXACT_MLE_MAX_N:
        return EXACT
    return VECCHIA


def unread_settings(samplers, specs=(), n_values=()) -> dict:
    """The settings that a run of ``samplers``, the method entries ``specs``
    (parsed) and the pattern sizes ``n_values`` does not read, each mapped
    to the reason. Every other setting is read by every run. As
    :func:`method_fitter` reads them, ``m`` and ``pm_cutoff`` are read when
    :func:`fitted_likelihood` of some entry at some n is Vecchia or
    pairwise, and ``threshold`` when some entry has a weight source."""
    likelihoods = {fitted_likelihood(spec, n) for spec in specs for n in n_values}
    kinds = ", ".join(dict.fromkeys(samplers))
    fits = ", ".join(dict.fromkeys(spec.name for spec in specs))
    thomas = (THOMAS in samplers, f"the {THOMAS} sampler", kinds)
    rules = {  # key: (whether the run reads it, its readers as described, and the run)
        "thomas_parent_rate": thomas,
        "thomas_offspring_scale": thomas,
        "m": (
            VECCHIA in likelihoods,
            f"a Vecchia fit ({METHOD_VECCHIA}, {METHOD_ISIW_V}, or {METHOD_MLE} above "
            f"{EXACT_MLE_MAX_N} points)",
            f"{fits} at n={','.join(str(n) for n in n_values)}",
        ),
        "threshold": (any(spec.source for spec in specs), f"the {METHOD_ISIW_V} and {METHOD_ISIW_PM} methods", fits),
        "pm_cutoff": (PAIRWISE_MARGINAL in likelihoods, f"the {METHOD_ISIW_PM} methods", fits),
    }
    return {key: f"is read only by {readers}, not by {run}" for key, (read, readers, run) in rules.items() if not read}


def method_fitter(
    data: Dataset, domain: Domain, *, nu: float, m: int, threshold: float,
    pair_cutoff: float | None, known_intensity=None,
):
    """The method runner of ``data``: ``fit_one(spec)`` returns the
    :class:`~isiw.inference.FitResult` of the method entry ``spec``, a fit
    of :func:`fitted_likelihood` at ``data.n``. Only a Vecchia fit reads
    the plan (max-min order, up to ``m`` nearest earlier neighbours), only
    a pairwise one ``pair_cutoff``, and an entry with a source its
    inverse-intensity weights. The start point, the plan and each source's
    weights are built on first use and shared by every fit. The ``known``
    source weights ``known_intensity``, the true sampling intensity at the
    data points; the others select a kernel bandwidth."""
    init = functools.cache(lambda: default_init(data, domain, nu=nu))
    plan = functools.cache(lambda: nn_conditioning_sets(data.locations, maxmin_order(data.locations), m))

    @functools.cache
    def weights(source: str):
        if source != KNOWN:
            bw = select_bandwidth(source, data.locations, domain)
            return weights_from_intensity(estimate_intensity(data.locations, domain, bw), threshold)
        if known_intensity is None:
            raise ValueError(
                f"the {KNOWN} source needs the true sampling intensity at the data points, which exists "
                "only in a simulation; use 'isiw experiment' or an estimated source"
            )
        return weights_from_intensity(known_intensity, threshold)

    def fit_one(spec: MethodSpec) -> FitResult:
        kind = fitted_likelihood(spec, data.n)
        objective = Objective(
            kind=kind,
            plan=plan() if kind == VECCHIA else None,
            weights=weights(spec.source) if spec.source else None,
            pair_cutoff=pair_cutoff if kind == PAIRWISE_MARGINAL else None,
        )
        return fit(objective, data, init(), FitConfig(domain=domain))

    return fit_one


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run configuration. Its values are checked by building
    what a cell builds: the grid, each (sampler, n) pair's
    :class:`SamplerSpec` and each phi's true parameters, whose types hold
    the rules. Frozen, so the checks hold for its whole life;
    ``dataclasses.replace`` makes a changed copy and checks it again."""

    replicates: int = 50
    grid_nx: int = 48
    grid_ny: int = 48
    domain: Domain = Domain(0.0, 1.0, 0.0, 1.0)  # frozen, so one instance serves every config
    mu: float = 4.0
    sigma2: float = 1.5
    nu: float = 1.0
    tau2: float = 0.1
    phi: tuple = (0.02, 0.15)
    samplers: tuple = ("lgcp",)
    beta: float = 1.0
    n: tuple = (100, 800)
    methods: tuple = ("mle", "isiw-v:known", "isiw-v:diggle", "isiw-v:CvL.adaptive")
    threshold: float = 0.01
    m: int = 20
    pm_cutoff: float | None = None
    seed: int = 1
    threads: int = 1
    thomas_parent_rate: float = 25.0
    thomas_offspring_scale: float = 0.1
    timing: bool = True
    # not settings, read by perfbench/mirror.py, so they go with it (ROADMAP item 19): given n, e^alpha
    # cancels (item 20), and mle's exact/Vecchia switch is the constant EXACT_MLE_MAX_N
    alpha = 0.0
    exact_mle_max_n = EXACT_MLE_MAX_N

    def __post_init__(self):
        require_at_least("replicates", self.replicates, 1)
        require_at_least("threads", self.threads, 1)
        SeedStream(self.seed)  # refuses a negative seed
        for key in ("methods", "samplers", "n", "phi"):
            if not getattr(self, key):
                raise ValueError(f"{key} must list at least one value")
        try:
            check_embeddable(self.grid())
        except ValueError as exc:
            raise ValueError(f"grid_nx, grid_ny: {exc}") from None
        for scenario in self.scenarios()[:: len(self.phi)]:  # phi varies fastest: one per (sampler, n)
            self.sampler(scenario)
        if THOMAS in self.samplers:
            try:
                check_parent_count(self.thomas_parent_rate, self.domain)
            except ValueError as exc:
                raise ValueError(f"thomas_parent_rate: {exc}") from None
        for phi in self.phi:  # uncached, so the first draw still builds the root
            theta = self.truth(phi).theta
            try:
                embedding_root(self.grid(), theta)
            except ValueError as exc:
                raise ValueError(f"phi: {exc}") from None
        specs = self.method_specs()  # validate early
        check_fit_settings(self.m, self.threshold, self.pm_cutoff)
        unread = self.unread_settings()
        for key, reason in unread.items():
            if getattr(self, key) != DEFAULTS[key]:
                raise ValueError(f"{key} {reason}")
        if "m" not in unread:
            check_plan_size(max(self.n), self.m)  # the largest plan a cell builds
        twice = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if twice:
            raise ValueError(f"methods lists {', '.join(twice)} more than once")
        known = [entry for entry, spec in zip(self.methods, specs) if spec.source == KNOWN]
        if THOMAS in self.samplers and known:
            raise ValueError(
                f"samplers lists {THOMAS}, whose sampling intensity is unknown, "
                f"but methods lists {', '.join(known)}"
            )
        estimated = [entry for entry, spec in zip(self.methods, specs) if spec.source not in ("", KNOWN)]
        if estimated and min(self.n) < SELECT_MIN_POINTS:
            raise ValueError(
                f"n must be >= {SELECT_MIN_POINTS} to select a bandwidth for {', '.join(estimated)}, "
                f"got {min(self.n)}"
            )

    def grid(self) -> GridSpec:
        return GridSpec(self.domain, self.grid_nx, self.grid_ny)

    def method_specs(self) -> list:
        return [parse_method(entry) for entry in self.methods]

    def unread_settings(self) -> dict:
        """The settings this run does not read, by :func:`unread_settings`;
        each holds its default."""
        return unread_settings(self.samplers, self.method_specs(), self.n)

    def scenarios(self) -> list:
        out = []
        for kind in self.samplers:
            for n in self.n:
                for phi in self.phi:
                    out.append(Scenario(kind=kind, n=int(n), phi=float(phi)))
        return out

    def truth(self, phi: float) -> ModelParams:
        return ModelParams.from_values(self.mu, self.sigma2, phi, self.tau2, nu=self.nu)

    def sampler(self, scenario: Scenario) -> SamplerSpec:
        return SamplerSpec(
            kind=scenario.kind, n=scenario.n, beta=self.beta,
            parent_rate=self.thomas_parent_rate, offspring_scale=self.thomas_offspring_scale,
        )


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


def _failed_row(scenario: Scenario, replicate: int, method: MethodSpec, exc: Exception) -> MetricsRow:
    return MetricsRow(
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


@one_blas_thread()
def run_replicate(config: ExperimentConfig, scenario: Scenario, replicate: int) -> list:
    """Simulate one dataset and produce one MetricsRow per configured method.
    A pattern that cannot be sampled from the field draw (a
    :class:`~isiw.pointprocess.SamplingError`: a Thomas pattern that cannot
    reach n or is too large to draw or hold, or a Cox intensity that
    overflows) gives one failed row per method.

    The whole cell, from the field draw to the last kriging call, runs on
    one OpenBLAS thread, in process and in a pool worker alike, so its rows
    do not depend on the caller's thread count."""
    root = SeedStream(config.seed)
    grid = config.grid()
    truth = config.truth(scenario.phi)
    fld = simulate_field(grid, truth.theta, root.child(scenario.sid, replicate, 0))
    try:
        locs, cell_intensity = sample_pattern(  # cell_intensity is None for Thomas
            fld, config.sampler(scenario), root.child(scenario.sid, replicate, 1)
        )
    except SamplingError as exc:
        return [_failed_row(scenario, replicate, method, exc) for method in config.method_specs()]
    data = observe(fld, locs, config.mu, config.tau2, root.child(scenario.sid, replicate, 2))

    truth_surface = config.mu + fld.values
    centers = grid.cell_centers()
    fit_one = method_fitter(
        data, config.domain, nu=config.nu, m=config.m, threshold=config.threshold,
        pair_cutoff=config.pm_cutoff,
        known_intensity=None if cell_intensity is None else cell_intensity[fld.grid.locate(locs)],
    )

    rows = []
    for method in config.method_specs():
        start = time.perf_counter()
        try:
            res = fit_one(method)
            surface = krige(res.psi_hat, data, centers)
            score = rmspe(surface.predictions, truth_surface)
            rel = param_metrics([res.psi_hat], truth)
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
            row = _failed_row(scenario, replicate, method, exc)
        if config.timing:
            row.seconds = time.perf_counter() - start
        rows.append(row)
    return rows


def run_experiment(config: ExperimentConfig, out_dir) -> tuple:
    """Run every scenario x replicate cell, write the per-replicate results
    CSV plus summary, rank, and parameter-error tables, and return
    (rows, summary_rows)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios, replicates = zip(*product(config.scenarios(), range(config.replicates)))

    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            chunks = list(pool.map(run_replicate, repeat(config), scenarios, replicates, chunksize=1))
    else:
        chunks = list(map(run_replicate, repeat(config), scenarios, replicates))

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


def _grouped(rows, key) -> list:
    """``(key(row), group)`` pairs in key order, each group the rows of
    that key in the order of ``rows``."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return sorted(groups.items())


_BY_SCENARIO_METHOD = attrgetter("scenario", "method", "variant")


def summarize(rows) -> list:
    """Mean and sd of RMSPE per (scenario, method, variant), over its
    finite values. ``n`` counts every row of the group and ``failures``
    the rows whose RMSPE is not finite."""
    out = []
    for key, group in _grouped(rows, _BY_SCENARIO_METHOD):
        ok = np.array([r.rmspe for r in group if math.isfinite(r.rmspe)])
        mean = float(np.mean(ok)) if ok.size else math.nan
        sd = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
        out.append((*key, mean, sd, len(group), len(group) - ok.size))
    return out


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..k of ``values``, tied values sharing the mean of their
    positions: the values of ``scipy.stats.rankdata``, whose module costs a
    process about 23 MB and 0.6 s to import, for the few methods of a cell."""
    v = np.asarray(values, dtype=float)
    below = np.sum(v[:, None] > v[None, :], axis=1)
    tied = np.sum(v[:, None] == v[None, :], axis=1)
    return below + (tied + 1) / 2.0


# a finite row of rank_table, with its rank in its cell and the cell's mle RMSPE (None without an mle row)
_Ranked = namedtuple("_Ranked", "scenario method variant rmspe rank mle_rmspe")


def rank_table(rows) -> list:
    """Median and mean RMSPE rank per (scenario, method, variant), and the
    share of its replicates with lower RMSPE than ``mle``, the unweighted
    fit: exact up to :data:`EXACT_MLE_MAX_N` points and Vecchia above.

    Each replicate cell is ranked once, among its finite rows, tied values
    sharing their mean rank. When the rows hold more than one scenario,
    rows labelled ``all`` follow, pooling every cell's ranks per (method,
    variant). The share is NaN for ``mle`` itself and for a method with no
    ``mle`` row in any of its cells."""
    ranked = []
    finite = [r for r in rows if math.isfinite(r.rmspe)]
    for _cell, group in _grouped(finite, attrgetter("scenario", "replicate")):
        mle = next((r.rmspe for r in group if r.method == METHOD_MLE), None)
        ranks = _average_ranks([r.rmspe for r in group])
        ranked.extend(_Ranked(r.scenario, r.method, r.variant, r.rmspe, rank, mle) for r, rank in zip(group, ranks))
    groups = _grouped(ranked, _BY_SCENARIO_METHOD)
    if len({r.scenario for r in ranked}) > 1:
        groups += [(("all", *key), group) for key, group in _grouped(ranked, attrgetter("method", "variant"))]
    table = []
    for key, group in groups:
        ranks = np.array([r.rank for r in group])
        beats = [r.rmspe < r.mle_rmspe for r in group if r.mle_rmspe is not None and r.method != METHOD_MLE]
        pct = 100.0 * np.mean(beats) if beats else math.nan
        table.append((*key, float(np.median(ranks)), float(np.mean(ranks)), float(pct)))
    return table


def _param_table(config, rows) -> list:
    """Relative bias and RMSE of each parameter per (scenario, method,
    variant), over the rows with a fit."""
    phi_by_label = {sc.label: sc.phi for sc in config.scenarios()}
    fitted = [r for r in rows if r.psi_hat is not None]
    out = []
    for (scenario, method, variant), group in _grouped(fitted, _BY_SCENARIO_METHOD):
        metrics = param_metrics([r.psi_hat for r in group], config.truth(phi_by_label[scenario]))
        out.extend((scenario, method, variant, name, bias, rms) for name, (bias, rms) in metrics.items())
    return out


def _write_metadata(config: ExperimentConfig, path: Path, n_rows: int) -> None:
    lines = [f"{line}\n" for line in format_config(config).splitlines()]
    lines.append(f"rows_written={n_rows}\n")
    lines.append("rmspe_convention=predictions scored against mu + S at grid cell centers\n")
    lines.append(f"numpy_version={np.__version__}\n")
    lines.append(f"scipy_version={scipy.__version__}\n")
    # the calling process's own counts; every replicate cell runs on one
    counts = ",".join(f"{path}:{n}" for path, n in blas_threads().items())
    lines.append(f"blas_threads={counts}\n")
    path.write_text("".join(lines))


def format_config(config: ExperimentConfig) -> str:
    """Serialize a config to the flat key=value format parse_config reads:
    every key the run reads, so the text parses back to ``config``."""
    unread = config.unread_settings()
    parts = []
    for f in dataclass_fields(ExperimentConfig):
        if f.name in unread:
            continue
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


DEFAULTS = {f.name: f.default for f in dataclass_fields(ExperimentConfig)}  # read off the fields: builds no config
_ON = ("on", "true", "1", "yes")
_OFF = ("off", "false", "0", "no")


def parse_domain(text: str) -> Domain:
    """The domain written ``x0,x1,y0,y1``, as ``domain=`` and ``--domain``
    take it."""
    bounds = text.split(",")
    if len(bounds) != 4:
        raise ValueError(f"must be x0,x1,y0,y1, got {text!r}")
    return Domain(*(float(v) for v in bounds))


def _convert(key: str, value: str):
    """The typed value of the config entry ``key=value``, of the type of
    the key's default in :class:`ExperimentConfig` (``pm_cutoff``, whose
    default is None, is a float or empty; an empty list value is the empty
    tuple); raises KeyError for an unknown key and ValueError for a value
    that does not convert, a list with an empty entry included."""
    if key == "pm_cutoff":
        return float(value) if value else None
    default = DEFAULTS[key]
    if isinstance(default, Domain):
        return parse_domain(value)
    if isinstance(default, tuple):
        entries = [v.strip() for v in value.split(",")] if value.strip() else []
        if "" in entries:
            raise ValueError(f"empty entry in {value!r}")
        return tuple(map(type(default[0]), entries))
    if isinstance(default, bool):
        flag = value.lower()
        if flag not in _ON + _OFF:
            raise ValueError(f"must be on or off, got {value!r}")
        return flag in _ON
    return type(default)(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format (see module docstring). An
    error names the key, and the line when the value does not convert. A
    key set on two lines is refused, naming both, and a key that the run
    does not read is refused, even at its default."""
    kwargs: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"config line {lineno}: {key} is also set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            kwargs[key] = _convert(key, value)
        except KeyError:
            raise ValueError(f"config line {lineno}: unknown key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    config = ExperimentConfig(**kwargs)
    unread = config.unread_settings()
    for key in kwargs:
        if key in unread:
            raise ValueError(f"{key} {unread[key]}")
    return config


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
