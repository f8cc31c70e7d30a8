"""Paired benchmark runs of two commits, recorded as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 31-40 --out BENCH_x.json

Each ref is exported with ``git archive`` into its own temporary directory,
so the runs see only committed files, the repository's ``.git`` is only
read, and no worktree is made. The workloads and the run length are those
of the change's ``BENCHMARK.json`` (``workloads`` and ``run_seconds``). For
every workload and seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each export, one after the other; the parent goes first on the
first seed and the two sides alternate from there. After the pairs of a
workload it runs each side once more with ``--trace 1`` on the first
seed, whose correctness gate also checks that the traced mirror's rows
equal ``run_replicate``'s. Traced per-layer counts, such as NLL calls and
fit iterations, repeat exactly for a seed, so the two traced runs show
what a change does to them. The output file holds every run's metrics,
the traced runs under ``traced[workload]["parent"|"change"]`` and, per
workload and end-to-end metric of
``BENCHMARK.json``, both medians, the parent's quartile spread, the
number of pairs the change won (strictly better, in the metric's
direction), and whether that shows a gain, whether the change stays
within the metric's bound and whether the parent's spread can resolve
that bound, and whether every change run reads better than every parent
run (see ``summarize``). The exit code is 1 when any run, traced
or not, fails its correctness gate.

Standard library only; nothing is imported from the package under test.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    """``31-40`` or ``1,5,9`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export(ref: str, dest: Path) -> str:
    """Extract the tree of ``ref`` into ``dest``; returns its commit id."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    correct = out.returncode == 0 and result.get("correct") is True
    if not correct:
        print(out.stderr, file=sys.stderr)
    return {
        "exit_code": out.returncode,
        "correct": correct,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": metrics,
    }


def summarize(runs: list, workloads: list, metrics: list) -> dict:
    """Per workload and end-to-end metric (``BENCHMARK.json`` entries with
    ``name``, ``better`` and ``bound``): medians, the parent's quartile
    spread, the change's pair wins, ``gain_shown`` (the change won at least
    nine tenths of the pairs, ties counting for neither side, and its
    median gap exceeds the parent's quartile spread), ``within_bound``
    (the change's median is no worse than the parent's by more than
    ``bound`` times the parent's median) and ``resolved`` (the parent's
    quartile spread is at most that allowance, so ``within_bound`` can
    tell a change from noise; an unresolved metric is not shown
    unchanged) and ``separated`` (every run of the change reads better
    than every run of the parent, which shows a difference even where
    the metric is unresolved)."""
    summary = {}
    for workload in workloads:
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
        pairs = [p for p in pairs.values() if "parent" in p and "change" in p]
        table = {}
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            both = [(p["parent"][name], p["change"][name]) for p in pairs
                    if name in p["parent"] and name in p["change"]]
            if not both:
                continue
            parent = [a for a, _ in both]
            change = [b for _, b in both]
            sign = 1.0 if better == "higher" else -1.0
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
            parent_median = statistics.median(parent)
            gap = sign * (statistics.median(change) - parent_median)
            allowance = metric["bound"] * abs(parent_median)
            wins = sum(sign * (b - a) > 0 for a, b in both)
            table[name] = {
                "better": better,
                "parent_median": parent_median,
                "change_median": statistics.median(change),
                "parent_quartile_spread": q3 - q1,
                "change_wins": wins,
                "pairs": len(both),
                "median_gain_exceeds_spread": gap > q3 - q1,
                "gain_shown": wins >= 0.9 * len(both) and gap > q3 - q1,
                "within_bound": gap >= -allowance,
                "resolved": q3 - q1 <= allowance,
                "separated": min(sign * b for b in change) > max(sign * a for a in parent),
            }
        summary[workload] = table
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1", help="git ref of the baseline (default HEAD~1)")
    p.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    p.add_argument("--seeds", required=True, help="for example 31-40")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    runs, traced = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees, commits = {}, {}
        for side, ref in (("parent", args.parent), ("change", args.change)):
            trees[side] = Path(tmp, side)
            commits[side] = export(ref, trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = float(spec["run_seconds"])
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    run = run_once(trees[side], workload, seed, seconds)
                    run.update(workload=workload, seed=seed, side=side, first=position == 0)
                    runs.append(run)
                    shown = {k: round(v, 4) for k, v in run["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: correct={run['correct']} {shown}", flush=True)
            traced[workload] = {}
            for side in ("parent", "change"):
                run = run_once(trees[side], workload, seeds[0], seconds, trace=1)
                run["seed"] = seeds[0]
                traced[workload][side] = run
                print(f"{workload} seed {seeds[0]} {side} traced: correct={run['correct']}", flush=True)

    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "parent": {"ref": args.parent, "commit": commits["parent"]},
        "change": {"ref": args.change, "commit": commits["change"]},
        "seeds": seeds,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
        "summary": summarize(runs, workloads, spec["end_to_end"]),
        "runs": runs,
        "traced": traced,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    traced_runs = [run for sides in traced.values() for run in sides.values()]
    return 0 if all(run["correct"] for run in [*runs, *traced_runs]) else 1


if __name__ == "__main__":
    sys.exit(main())
