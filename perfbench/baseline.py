"""Measure the benchmark baseline and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Run from the repository root. For each workload in BENCHMARK.json it runs
``run.py`` for ``run_seconds`` untraced once per seed 1-10 and traced once
with seed 1, then records per end-to-end metric the median, the quartiles,
their distance as a share of the median and every value, and the traced
run's per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEEDS = list(range(1, 11))
META_KEYS = (
    "commit", "nproc", "python", "numpy", "scipy", "blas", "blas_version",
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


def result(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs = [result(w, s, 0, bench["run_seconds"]) for s in SEEDS]
        traced = result(w, SEEDS[0], 1, bench["run_seconds"])
        e2e = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]][0] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {
                "unit": m["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / med,
                "values": values,
            }
        out["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in traced["metrics"].items()},
            "traced_cells": traced["meta"]["cells"],
            "untraced_cells": runs[0]["meta"]["cells"],
        }
        out["meta"] = {k: runs[0]["meta"][k] for k in META_KEYS}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
