"""Traced mirror of ``isiw.experiment.run_replicate``, for per-layer timing
from outside the package.

``traced_replicate`` calls the same public functions in the same order with
the same seeds as ``run_replicate``, so its rows must equal run_replicate's
rows bit for bit (compare ``fingerprint``s). Each call into a layer is
wrapped in a span; each objective is wrapped in ``CountingObjective``, which
has the same ``nll`` interface and counts calls and seconds per likelihood
kind. When ``run_replicate`` changes, this mirror must follow it, and the
equality check says when it has not.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from isiw import (
    CovParams,
    FitConfig,
    Objective,
    SamplerSpec,
    SeedStream,
    compute_intensity,
    default_init,
    estimate_intensity,
    fit,
    krige,
    maxmin_order,
    nn_conditioning_sets,
    observe,
    param_metrics,
    rmspe,
    sample_conditioned,
    select_bandwidth,
    simulate_field,
    weights_from_intensity,
)
from isiw.experiment import KNOWN, METHOD_ISIW_V, METHOD_MLE, METHOD_VECCHIA, MetricsRow
from isiw.likelihood import EXACT, PAIRWISE_MARGINAL, VECCHIA
from isiw.pointprocess import THOMAS


class Tracer:
    """Spans kept in memory: name, start, end, parent span and cell."""

    def __init__(self):
        self.spans: list = []
        self.cell: str | None = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "cell": self.cell,
            "name": name,
            "start": time.perf_counter(),
            "end": math.nan,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Per span name: (total seconds, self seconds), where self time is
        the span's duration minus that of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            total, own = out.get(s["name"], (0.0, 0.0))
            dur = s["end"] - s["start"]
            out[s["name"]] = (total + dur, own + dur - child[s["id"]])
        return out


class CountingObjective:
    """Wraps an Objective; same ``nll`` interface. Adds each call and its
    seconds to ``counts[kind]`` = [calls, seconds]."""

    def __init__(self, objective: Objective, counts: dict):
        self.objective = objective
        self._count = counts.setdefault(objective.kind, [0, 0.0])

    def nll(self, psi, data):
        start = time.perf_counter()
        try:
            return self.objective.nll(psi, data)
        finally:
            self._count[0] += 1
            self._count[1] += time.perf_counter() - start


@dataclass
class CellStats:
    """Exact-repeat counts of one traced cell, from the counting wrapper and
    the public FitResult and BandwidthSpec fields."""

    nll: dict = field(default_factory=dict)  # kind -> [calls, seconds]
    iterations: int = 0
    restarts: int = 0
    phi_capped: int = 0
    boundary_hits: int = 0
    data: object = None


def traced_replicate(config, scenario, replicate: int, tracer: Tracer) -> tuple:
    """Mirror of run_replicate for the Cox samplers; returns (rows, CellStats)."""
    if scenario.kind == THOMAS:
        raise ValueError("the mirror covers the Cox samplers only")
    stats = CellStats()
    tracer.cell = f"{scenario.label}/{replicate}"
    with tracer.span("experiment.cell"):
        root = SeedStream(config.seed)
        grid = config.grid()
        theta = CovParams(config.sigma2, scenario.phi, config.nu)
        with tracer.span("fields.simulate"):
            fld = simulate_field(grid, theta, root.child(scenario.sid, replicate, 0))
        spec = SamplerSpec(
            kind=scenario.kind,
            n=scenario.n,
            beta=config.beta,
            alpha=config.alpha,
            parent_rate=config.thomas_parent_rate,
            offspring_scale=config.thomas_offspring_scale,
        )
        with tracer.span("pointprocess.sample"):
            cell_intensity = compute_intensity(scenario.kind, fld, spec)
            locs = sample_conditioned(
                fld, cell_intensity, scenario.n, root.child(scenario.sid, replicate, 1)
            )
        with tracer.span("fields.observe"):
            data = observe(fld, locs, config.mu, config.tau2, root.child(scenario.sid, replicate, 2))
        stats.data = data

        truth_surface = config.mu + fld.values
        centers = grid.cell_centers()
        with tracer.span("inference.init"):
            init = default_init(data, config.domain)
        plan = None
        weight_cache: dict = {}

        def get_plan():
            nonlocal plan
            if plan is None:
                with tracer.span("likelihood.plan"):
                    plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), config.m)
            return plan

        def get_weights(source):
            if source not in weight_cache:
                if source == KNOWN:
                    with tracer.span("pointprocess.intensity"):
                        lam = compute_intensity(scenario.kind, fld, spec)[fld.grid.locate(locs)]
                else:
                    with tracer.span(f"intensity.select.{source}"):
                        bw = select_bandwidth(source, locs, config.domain)
                    stats.boundary_hits += bw.boundary
                    with tracer.span("intensity.estimate"):
                        lam = estimate_intensity(locs, config.domain, bw)
                with tracer.span("intensity.weights"):
                    weight_cache[source] = weights_from_intensity(lam, config.threshold)
            return weight_cache[source]

        rows = []
        for mi, (method, variant) in enumerate(config.method_specs()):
            start = time.perf_counter()
            try:
                if method == METHOD_MLE:
                    if scenario.n <= config.exact_mle_max_n:
                        objective = Objective(kind=EXACT)
                    else:
                        objective = Objective(kind=VECCHIA, plan=get_plan())
                elif method == METHOD_VECCHIA:
                    objective = Objective(kind=VECCHIA, plan=get_plan())
                elif method == METHOD_ISIW_V:
                    objective = Objective(kind=VECCHIA, plan=get_plan(), weights=get_weights(variant))
                else:
                    objective = Objective(
                        kind=PAIRWISE_MARGINAL,
                        weights=get_weights(variant),
                        pair_cutoff=config.pm_cutoff,
                    )
                fit_cfg = FitConfig(
                    domain=config.domain,
                    restart_seed=(
                        config.seed * 2654435761 + scenario.sid * 7919 + replicate * 104729 + mi
                    )
                    % (2**63),
                )
                with tracer.span("inference.fit"):
                    res = fit(CountingObjective(objective, stats.nll), data, init, fit_cfg)
                stats.iterations += res.iterations
                stats.restarts += res.restarts_used
                stats.phi_capped += res.phi_capped
                with tracer.span("kriging.krige"):
                    surface = krige(res.psi_hat, data, centers)
                score = rmspe(surface.predictions, truth_surface)
                rel = param_metrics([res.psi_hat], config.truth(scenario.phi))
                row = MetricsRow(
                    replicate=replicate,
                    scenario=scenario.label,
                    method=method,
                    variant=variant,
                    rmspe=score,
                    psi_hat=res.psi_hat,
                    seconds=0.0,
                    converged=res.converged,
                    rel_err={k: v[0] for k, v in rel.items()},
                )
            except Exception as exc:  # as in run_replicate: the row records it
                row = MetricsRow(
                    replicate=replicate,
                    scenario=scenario.label,
                    method=method,
                    variant=variant,
                    rmspe=math.nan,
                    psi_hat=None,
                    seconds=0.0,
                    converged=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if config.timing:
                row.seconds = time.perf_counter() - start
            rows.append(row)
    return rows, stats


def row_key(row: MetricsRow) -> tuple:
    return (row.scenario, row.replicate, row.method, row.variant)


def fingerprint(row: MetricsRow) -> tuple:
    """Every field of a row except its wall-clock seconds, floats as their
    exact bits."""
    psi = () if row.psi_hat is None else tuple(float(v).hex() for v in row.psi_hat.as_dict().values())
    rel = () if row.rel_err is None else tuple((k, float(v).hex()) for k, v in sorted(row.rel_err.items()))
    return (*row_key(row), float(row.rmspe).hex(), psi, row.converged, rel, row.error)
