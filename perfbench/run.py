"""Replicate-cell benchmark for isiw.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. The
workloads are in ``workloads.py``, the metrics and the layer map in
``README.md`` beside this file.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
repeats each cell untraced (``run_replicate``) and traced (``mirror.py``),
requires their rows to be equal bit for bit, and reports the per-layer
metrics. The spans, per-cell counts and run metadata of every run are
written to ``.perfbench_out/`` under the repository root. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when a correctness check fails, and 2 when the package
or the workload is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# Pool rows may differ from in-process rows in the last bits when worker
# BLAS threading changes a reduction order; a flipped line-search step then
# moves RMSPE by far less than this, while a wrong cell moves it by percent.
POOL_RMSPE_RTOL = 1e-4

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "cell_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "converged_frac": "frac",
    "rmspe_mean": "obs_units",
}


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed; ``rows`` are the
    rows checked, if any."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = list(rows)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_samples(config) -> list:
    """Set-up seconds: the first simulate_field per phi (the grid Cholesky),
    summed, each sample in a process forked from this still cold one, so
    imports are excluded."""
    from workloads import warm_up

    return [run_forked([(warm_up, (config,))])[0] for _ in range(SETUP_SAMPLES)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def check_rows(rows, config, cells) -> None:
    """Every cell has one row per method, no row failed, every fit is finite."""
    want = sorted(
        (sc.label, rep, m, v) for sc, rep in cells for m, v in config.method_specs()
    )
    got = sorted((r.scenario, r.replicate, r.method, r.variant) for r in rows)
    if got != want:
        raise CheckFailed(f"rows do not cover the cells: {len(got)} rows, want {len(want)}", rows)
    for r in rows:
        where = f"{r.scenario}/{r.replicate} {r.method}:{r.variant}"
        if r.error is not None:
            raise CheckFailed(f"{where} failed: {r.error}", rows)
        values = [r.rmspe, *r.psi_hat.as_dict().values()]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{where} has a non-finite fit: {values}", rows)


def check_pool_matches(pool_rows, ref_rows) -> None:
    """Pool rows against in-process rows of the same cells: same keys, and
    RMSPE within POOL_RMSPE_RTOL."""
    from mirror import row_key

    pool = {row_key(r): r for r in pool_rows}
    for ref in ref_rows:
        r = pool.get(row_key(ref))
        if r is None:
            raise CheckFailed(f"pool has no row {row_key(ref)}", pool_rows)
        if not math.isclose(r.rmspe, ref.rmspe, rel_tol=POOL_RMSPE_RTOL, abs_tol=0.0):
            raise CheckFailed(
                f"pool row {row_key(ref)}: rmspe {r.rmspe!r} vs in-process {ref.rmspe!r}", pool_rows
            )


def run_pool(config) -> tuple:
    """run_experiment through its process pool; returns (rows, wall seconds)."""
    from isiw import run_experiment

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        start = time.perf_counter()
        rows, _ = run_experiment(config, out_dir)
        wall = time.perf_counter() - start
    return rows, wall


def _client(config, cells) -> tuple:
    """One closed-loop client: run_replicate on each cell in turn. Returns
    (rows, per-cell seconds, wall seconds)."""
    from isiw import run_replicate

    rows, times = [], []
    start = time.perf_counter()
    for sc, rep in cells:
        t0 = time.perf_counter()
        rows.extend(run_replicate(config, sc, rep))
        times.append(time.perf_counter() - t0)
    return rows, times, time.perf_counter() - start


def _forked(fn, args, conn) -> None:
    conn.send(fn(*args))
    conn.close()


def run_forked(calls) -> list:
    """Runs each (fn, args) of ``calls`` at once, each in a process forked
    from this one, and returns their results in order. A process that dies
    without a result raises EOFError; every process is ended and waited
    for on every path out."""
    ctx = multiprocessing.get_context("fork")
    procs, results = [], None
    try:
        for fn, args in calls:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_forked, args=(fn, args, send))
            proc.start()
            send.close()
            procs.append((proc, recv))
        results = [recv.recv() for _, recv in procs]
        return results
    finally:
        for proc, _ in procs:
            if results is None:
                proc.terminate()
            proc.join()


def measure(workload, seed: int, seconds: float, meta: dict) -> tuple:
    """End-to-end run, tracing off. Returns (rows, metrics)."""
    from isiw import run_replicate
    from workloads import warm_up

    config = workload.config(seed, workload.replicates(seconds, traced=False))
    cells = workload.cells(config)
    setup = setup_samples(config)
    meta["setup_samples_s"] = setup

    if workload.workers > 1:
        # The parent stays cold so forked workers build their own grid
        # Cholesky, as in a real `isiw experiment --threads N` run.
        rows, wall = run_pool(config)
        per_cell = defaultdict(float)
        for r in rows:
            per_cell[(r.scenario, r.replicate)] += r.seconds
        cell_times = list(per_cell.values())
        check_rows(rows, config, cells)
        sc, rep = cells[0]
        check_pool_matches(rows, run_replicate(config, sc, rep))
        cells_per_s = len(cells) / wall
    else:
        # Forked clients inherit the warm grid Cholesky; client i runs every
        # n-th cell from the i-th.
        warm_up(config)
        rows, cell_times, cells_per_s, wall = [], [], 0.0, []
        n = workload.clients
        clients = [(_client, (config, cells[i::n])) for i in range(n)]
        for client_rows, times, client_wall in run_forked(clients):
            rows.extend(client_rows)
            cell_times.extend(times)
            cells_per_s += len(times) / client_wall
            wall.append(client_wall)
        check_rows(rows, config, cells)

    meta["cells"] = len(cells)
    meta["wall_s"] = wall
    meta["cell_s"] = cell_times
    metrics = {
        "cells_per_s": cells_per_s,
        "cell_s.p50": statistics.median(cell_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "converged_frac": sum(r.converged for r in rows) / len(rows),
        "rmspe_mean": statistics.fmean(r.rmspe for r in rows),
    }
    return rows, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def median_call_s(call) -> float:
    """Median seconds of ``call()``, repeated at least 5 times and 0.05 s."""
    times = []
    while len(times) < 5 or sum(times) < 0.05:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def matern_ns_per_entry(data, theta) -> float:
    """matern_cov on one cell's data distance matrix: median ns per entry."""
    from isiw import matern_cov

    dist = data.pairwise_distances()
    return median_call_s(lambda: matern_cov(dist, theta)) / dist.size * 1e9


def nll_probe_ms(kind, data, config) -> float:
    """One unweighted NLL of ``kind`` on a cell's data at the fit's starting
    point: median ms. Stands in for the per-call time of a kind that no fit
    of the workload calls, so the metric is measured on every workload."""
    from isiw import Objective, default_init
    from isiw.likelihood import PAIRWISE_MARGINAL

    # Only the exact and pairwise kinds: every workload fits Vecchia.
    cutoff = config.pm_cutoff if kind == PAIRWISE_MARGINAL else None
    objective = Objective(kind=kind, pair_cutoff=cutoff)
    psi = default_init(data, config.domain)
    return 1e3 * median_call_s(lambda: objective.nll(psi, data))


def measure_traced(workload, seed: int, seconds: float, meta: dict) -> tuple:
    """Traced run: per cell, run_replicate untraced and the mirror traced
    (alternating which goes first, over an even number of cells), rows equal
    bit for bit. The pool workload first runs the same cells through
    run_experiment."""
    from isiw import CovParams, run_replicate, select_bandwidth
    from mirror import Tracer, fingerprint, traced_replicate
    from workloads import warm_up

    config = workload.config(seed, workload.replicates(seconds, traced=True))
    cells = workload.cells(config)
    tracer = Tracer()
    pool_rows = None
    if workload.workers > 1:
        pool_rows, pool_wall = run_pool(config)
        check_rows(pool_rows, config, cells)
    with tracer.span("fields.grid_chol"):
        warm_up(config)

    ref_rows, ref_wall, mirror_wall, cell_stats, probes = [], 0.0, 0.0, [], []
    for i, (sc, rep) in enumerate(cells):
        for traced in (i % 2 == 1, i % 2 == 0):
            start = time.perf_counter()
            if traced:
                mir, stats = traced_replicate(config, sc, rep, tracer)
                mirror_wall += time.perf_counter() - start
            else:
                ref = run_replicate(config, sc, rep)
                ref_wall += time.perf_counter() - start
        ref_rows.extend(ref)
        if [fingerprint(r) for r in mir] != [fingerprint(r) for r in ref]:
            raise CheckFailed(f"mirror rows differ from run_replicate rows in cell {sc.label}/{rep}", ref_rows)
        cell_stats.append(stats)
        probes.append(matern_ns_per_entry(stats.data, CovParams(config.sigma2, sc.phi, config.nu)))
    check_rows(ref_rows, config, cells)
    if pool_rows is not None:
        check_pool_matches(pool_rows, ref_rows)

    n = len(cells)
    spans = tracer.self_times()

    def total(name):
        return spans.get(name, (0.0, 0.0))[0] / n

    if "intensity.select.diggle" in spans:
        diggle_s = total("intensity.select.diggle")
    else:
        # No cell selects by diggle: time it once on the first cell's pattern.
        start = time.perf_counter()
        select_bandwidth("diggle", cell_stats[0].data.locations, config.domain)
        diggle_s = time.perf_counter() - start

    nll = {}
    for s in cell_stats:
        for kind, (calls, secs) in s.nll.items():
            c = nll.setdefault(kind, [0, 0.0])
            c[0] += calls
            c[1] += secs
    nll_s = sum(secs for _, secs in nll.values()) / n
    if pool_rows is not None:
        busy = sum(r.seconds for r in pool_rows) / (pool_wall * workload.workers)
    else:
        busy = sum(r.seconds for r in ref_rows) / ref_wall

    def count(attr):
        return sum(getattr(s, attr) for s in cell_stats) / n

    metrics = {
        "fields.grid_chol_s": (spans["fields.grid_chol"][0], "s"),
        "fields.simulate_s": (total("fields.simulate"), "s"),
        "pointprocess.sample_s": (total("pointprocess.sample"), "s"),
        "intensity.select_s.diggle": (diggle_s, "s"),
        "intensity.select_s.CvL.adaptive": (total("intensity.select.CvL.adaptive"), "s"),
        "intensity.estimate_s": (total("intensity.estimate"), "s"),
        "intensity.boundary_hits": (count("boundary_hits"), "count"),
    }
    for label, kind in (("exact", "exact"), ("vecchia", "vecchia"), ("pairwise", "pairwise-marginal")):
        calls, secs = nll.get(kind, (0, 0.0))
        if calls:
            ms = 1e3 * secs / calls
        else:
            ms = statistics.median(nll_probe_ms(kind, s.data, config) for s in cell_stats)
        metrics[f"likelihood.nll_calls.{label}"] = (calls / n, "count")
        metrics[f"likelihood.nll_ms.{label}"] = (ms, "ms")
    metrics.update(
        {
            "likelihood.nll_s": (nll_s, "s"),
            "likelihood.plan_s": (total("likelihood.plan"), "s"),
            "inference.fit_s": (total("inference.fit"), "s"),
            "inference.self_s": (total("inference.fit") - nll_s, "s"),
            "inference.iterations": (count("iterations"), "count"),
            "inference.restarts": (count("restarts"), "count"),
            "inference.phi_capped": (count("phi_capped"), "count"),
            "kriging.krige_s": (total("kriging.krige"), "s"),
            "model.matern_cov_ns_per_entry": (statistics.median(probes), "ns"),
            "experiment.self_s": (spans["experiment.cell"][1] / n, "s"),
            "experiment.busy_frac": (busy, "frac"),
            "trace.overhead_s": ((mirror_wall - ref_wall) / n, "s"),
        }
    )
    meta["cells"] = n
    meta["untraced_wall_s"] = ref_wall
    meta["traced_wall_s"] = mirror_wall
    meta["self_times_s"] = {k: {"total": t, "self": s} for k, (t, s) in sorted(spans.items())}
    meta["cell_counts"] = [
        {
            "cell": f"{sc.label}/{rep}",
            "nll_calls": {k: c for k, (c, _) in s.nll.items()},
            "iterations": s.iterations,
            "restarts": s.restarts,
            "phi_capped": s.phi_capped,
            "boundary_hits": s.boundary_hits,
        }
        for (sc, rep), s in zip(cells, cell_stats)
    ]
    meta["spans"] = tracer.spans
    return ref_rows, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isiw" / "__init__.py").is_file():
        print(f"error: the isiw package is not at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    meta = metadata(workload.name, args.seed)
    print(json.dumps({"meta": meta}))

    run = measure_traced if args.trace else measure
    correct, metrics = True, {}
    try:
        rows, metrics = run(workload, args.seed, args.seconds, meta)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        correct, rows = False, exc.rows
        if not rows:
            return 1  # nothing ran, so there are no counts to report

    meta["rows"] = [
        [r.scenario, r.replicate, f"{r.method}:{r.variant}", r.seconds, r.converged, r.rmspe, r.error]
        for r in rows
    ]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    trace_path.write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(rows),
                "failed": sum(r.error is not None for r in rows),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
