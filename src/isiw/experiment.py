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
:func:`parse_method` reads an entry and the runner of
:func:`method_fitter` fits it to a dataset; ``isiw fit --method`` uses
both too, so one entry means one fit everywhere.

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
from dataclasses import dataclass, fields as dataclass_fields
from itertools import product, repeat
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
from .pointprocess import (
    THOMAS,
    SamplerSpec,
    SamplingError,
    check_parent_count,
    compute_intensity,
    sample_conditioned,
    sample_thomas,
)

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


def unread_settings(samplers, specs=(), n_values=(), exact_mle_max_n: int = 0) -> dict:
    """The settings that a run of ``samplers``, the method entries ``specs``
    (parsed) and the pattern sizes ``n_values`` does not read, each mapped
    to the reason. Every other setting is read by every run. ``mle`` fits
    the Vecchia likelihood above ``exact_mle_max_n`` points, so it reads
    ``m`` when some n is larger."""
    present = {*samplers, *(spec.name for spec in specs)}  # no sampler kind is a method name
    kinds = ", ".join(dict.fromkeys(samplers))
    fits = ", ".join(dict.fromkeys(spec.name for spec in specs))
    vecchia_fits = {METHOD_VECCHIA, METHOD_ISIW_V}
    if any(n > exact_mle_max_n for n in n_values):
        vecchia_fits.add(METHOD_MLE)
    thomas = ({THOMAS}, f"the {THOMAS} sampler", kinds)
    rules = {  # key: (the samplers or methods that read it, as described, and the run's own)
        "thomas_parent_rate": thomas,
        "thomas_offspring_scale": thomas,
        "exact_mle_max_n": ({METHOD_MLE}, f"the {METHOD_MLE} method", fits),
        "m": (
            vecchia_fits,
            f"a Vecchia fit ({METHOD_VECCHIA}, {METHOD_ISIW_V}, or {METHOD_MLE} above "
            f"exact_mle_max_n={exact_mle_max_n} points)",
            f"{fits} at n={','.join(str(n) for n in n_values)}",
        ),
        "threshold": ({METHOD_ISIW_V, METHOD_ISIW_PM}, f"the {METHOD_ISIW_V} and {METHOD_ISIW_PM} methods", fits),
        "pm_cutoff": ({METHOD_ISIW_PM}, f"the {METHOD_ISIW_PM} methods", fits),
    }
    return {
        key: f"is read only by {readers}, not by {run}"
        for key, (read_by, readers, run) in rules.items()
        if read_by.isdisjoint(present)
    }


def method_fitter(
    data: Dataset, domain: Domain, *, nu: float, m: int, threshold: float,
    pair_cutoff: float | None, exact_mle_max_n: int, known_intensity=None,
):
    """The method runner of ``data``: ``fit_one(spec, restart_seed)`` returns
    the :class:`~isiw.inference.FitResult` of the method entry ``spec``.
    ``mle`` is the exact likelihood up to ``exact_mle_max_n`` points and
    unweighted Vecchia above. The start point, the Vecchia plan (max-min
    order, up to ``m`` nearest earlier neighbours) and each source's
    inverse-intensity weights are built on first use and shared by every
    fit. The ``known`` source weights ``known_intensity``, the true sampling
    intensity at the data points; the others select a kernel bandwidth."""
    init = functools.cache(lambda: default_init(data, domain, nu=nu))
    plan = functools.cache(lambda: nn_conditioning_sets(data.locations, maxmin_order(data.locations), m))

    @functools.cache
    def weights(source: str):
        if source != KNOWN:
            bw = select_bandwidth(source, data.locations, domain)
            return weights_from_intensity(estimate_intensity(data.locations, domain, bw), threshold)
        if known_intensity is None:
            raise ValueError("the known source needs the known intensity at the data points")
        return weights_from_intensity(known_intensity, threshold)

    def fit_one(spec: MethodSpec, restart_seed: int) -> FitResult:
        if spec.name == METHOD_MLE and data.n <= exact_mle_max_n:
            objective = Objective(kind=EXACT)
        elif spec.name in (METHOD_MLE, METHOD_VECCHIA):
            objective = Objective(kind=VECCHIA, plan=plan())
        elif spec.name == METHOD_ISIW_V:
            objective = Objective(kind=VECCHIA, plan=plan(), weights=weights(spec.source))
        else:
            objective = Objective(kind=PAIRWISE_MARGINAL, weights=weights(spec.source), pair_cutoff=pair_cutoff)
        return fit(objective, data, init(), FitConfig(domain=domain, restart_seed=restart_seed))

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
    exact_mle_max_n: int = 200
    thomas_parent_rate: float = 25.0
    thomas_offspring_scale: float = 0.1
    timing: bool = True
    # not a setting: given n, e^alpha cancels; goes with perfbench/mirror.py (ROADMAP items 19 and 20)
    alpha = 0.0

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
        return unread_settings(self.samplers, self.method_specs(), self.n, self.exact_mle_max_n)

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
    spec = config.sampler(scenario)
    cell_intensity = None  # the Thomas process has none
    try:
        if scenario.kind == THOMAS:
            locs = sample_thomas(fld, spec, root.child(scenario.sid, replicate, 1))
        else:
            cell_intensity = compute_intensity(scenario.kind, fld, spec)
            locs = sample_conditioned(fld, cell_intensity, scenario.n, root.child(scenario.sid, replicate, 1))
    except SamplingError as exc:
        return [_failed_row(scenario, replicate, method, exc) for method in config.method_specs()]
    data = observe(fld, locs, config.mu, config.tau2, root.child(scenario.sid, replicate, 2))

    truth_surface = config.mu + fld.values
    centers = grid.cell_centers()
    fit_one = method_fitter(
        data, config.domain, nu=config.nu, m=config.m, threshold=config.threshold,
        pair_cutoff=config.pm_cutoff, exact_mle_max_n=config.exact_mle_max_n,
        known_intensity=None if cell_intensity is None else cell_intensity[fld.grid.locate(locs)],
    )

    rows = []
    for mi, method in enumerate(config.method_specs()):
        start = time.perf_counter()
        try:
            res = fit_one(
                method,
                (config.seed * 2654435761 + scenario.sid * 7919 + replicate * 104729 + mi) % (2**63),
            )
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
    default is None, is a float or empty); raises KeyError for an unknown
    key and ValueError for a value that does not convert."""
    if key == "pm_cutoff":
        return float(value) if value else None
    default = DEFAULTS[key]
    if isinstance(default, Domain):
        return parse_domain(value)
    if isinstance(default, tuple):
        if isinstance(default[0], str):
            return tuple(v.strip() for v in value.split(",") if v.strip())
        return tuple(type(default[0])(v) for v in value.split(","))
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
