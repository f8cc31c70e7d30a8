"""Per-call time of the exact NLL and the weighted Vecchia and pairwise
NLLs at two commits.

    python3 tools/nll_call_pairs.py --parent HEAD~1 --change HEAD --rounds 10

Each ref is exported as ``bench_pairs.py`` does. The cases are the exact
NLL at n = 100 and the weighted Vecchia and pairwise NLLs at n in
{100, 400}. For each case, every round runs one fresh process per side,
the two sides alternating which goes first, with OpenBLAS on one thread.
A process builds a dataset from a fixed seed (uniform locations,
N(4, 1.2^2) values, weights uniform on [0.2, 3]; m = 20 for Vecchia, all
pairs for pairwise), warms up with three calls and prints the median
seconds of ``CALLS[n]`` calls of ``nll`` at mu=4, sigma2=1.5, phi=0.15,
tau2=0.1. Each call returns the value with its profile, computed in the
same pass, so the timing covers both. The script prints, per case, each
side's median over rounds, their ratio, the median of the per-round
ratios (change over parent) and the rounds the change was faster in.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

CALLS = {100: 200, 400: 40}
CASES = [("exact", 100)] + [(kind, n) for kind in ("vecchia", "pairwise") for n in (100, 400)]

PROBE = """
import statistics, sys, time
sys.path.insert(0, "src")
import numpy as np
from isiw import Dataset, ModelParams, Objective, maxmin_order, nn_conditioning_sets

kind, n, calls = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(n)
data = Dataset(rng.random((n, 2)), rng.normal(4.0, 1.2, n))
weights = rng.uniform(0.2, 3.0, n)
if kind == "exact":
    objective = Objective(kind="exact")
elif kind == "vecchia":
    plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), 20)
    objective = Objective(kind="vecchia", plan=plan, weights=weights)
else:
    objective = Objective(kind="pairwise-marginal", weights=weights)
psi = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
for _ in range(3):
    objective.nll(psi, data)
seconds = []
for _ in range(calls):
    start = time.perf_counter()
    objective.nll(psi, data)
    seconds.append(time.perf_counter() - start)
print(statistics.median(seconds))
"""


def probe(tree: Path, kind: str, n: int) -> float:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, kind, str(n), str(CALLS[n])],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1")
    p.add_argument("--change", default="HEAD")
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="nll_call_pairs_") as tmp:
        trees = {}
        for side, ref in (("parent", args.parent), ("change", args.change)):
            trees[side] = Path(tmp, side)
            export(ref, trees[side])
        for kind, n in CASES:
            ms = {"parent": [], "change": []}
            for r in range(args.rounds):
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    ms[side].append(1e3 * probe(trees[side], kind, n))
            parent, change = statistics.median(ms["parent"]), statistics.median(ms["change"])
            ratios = [c / p for p, c in zip(ms["parent"], ms["change"])]
            label = kind if kind == "exact" else f"weighted {kind}"
            print(
                f"{label} n={n}: parent {parent:.2f} ms, change {change:.2f} ms, "
                f"ratio {change / parent:.3f}, per-round ratio {statistics.median(ratios):.3f}, "
                f"change faster in {sum(r < 1 for r in ratios)}/{args.rounds} rounds",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
