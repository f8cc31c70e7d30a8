"""Byte-level comparison of the experiment outputs of two commits.

    python3 tools/output_pairs.py PARENT CHANGE --config experiment.cfg

Each ref is exported as ``bench_pairs.py`` does. In each export it runs

    python3 -m isiw.cli experiment --config FILE --out-dir DIR

in a fresh process with OpenBLAS on one thread, then compares the five
files the run writes (``OUTPUTS``) byte for byte, line by line. It prints
the first difference, naming the file and the line, and exits 1; it exits
0 when every file is identical. A run that fails, or a config with
``timing=on`` (whose seconds column differs from run to run), exits 2.

The configs in ``tools/configs/`` are the ones it is run on: the
acceptance headline config, a 7-method config on two samplers at n=100
and n=250, the Vecchia and pairwise-marginal likelihoods at n=400, the
default config's n=800 cells (``paper_n800.cfg``), Thomas cluster
patterns at n=40 and n=100 (``thomas.cfg``), the isiw-pm pair cutoff
(``pm_cutoff.cfg``), and every estimated weight source under isiw-v at
n=100 and n=400 (``selectors.cfg``).

Standard library only; nothing is imported from the package under test.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

OUTPUTS = ("results.csv", "summary.csv", "ranks.csv", "params_summary.csv", "run_metadata.txt")


def run_experiment(tree: Path, config: Path, out_dir: Path) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    subprocess.run(
        [sys.executable, "-m", "isiw.cli", "experiment", "--config", str(config), "--out-dir", str(out_dir)],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def first_difference(parent: Path, change: Path) -> str | None:
    """The first line at which an output file of ``change`` differs from the
    same file of ``parent``, as ``file line N`` with both lines; None when
    all of ``OUTPUTS`` are byte-identical."""
    for name in OUTPUTS:
        sides = []
        for out_dir in (parent, change):
            path = out_dir / name
            if not path.exists():
                return f"{name}: missing from {out_dir}"
            sides.append(path.read_bytes().splitlines(keepends=True))
        old, new = sides
        for lineno in range(1, max(len(old), len(new)) + 1):
            a = old[lineno - 1] if lineno <= len(old) else b"<end of file>"
            b = new[lineno - 1] if lineno <= len(new) else b"<end of file>"
            if a != b:
                return f"{name} line {lineno}\n  parent: {a!r}\n  change: {b!r}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="parent commit (any git ref)")
    p.add_argument("change", help="changed commit (any git ref)")
    p.add_argument("--config", required=True, type=Path, help="experiment config, with timing=off")
    args = p.parse_args(argv)
    config = args.config.resolve()
    with tempfile.TemporaryDirectory(prefix="output_pairs_") as tmp:
        outs = {}
        for side, ref in (("parent", args.parent), ("change", args.change)):
            tree, outs[side] = Path(tmp, side), Path(tmp, f"{side}-out")
            commit = export(ref, tree)
            try:
                run_experiment(tree, config, outs[side])
            except subprocess.CalledProcessError as exc:
                print(f"output_pairs: {side} ({commit[:10]}) exited {exc.returncode}", file=sys.stderr)
                return 2
            if "timing=on" in (outs[side] / "run_metadata.txt").read_text().splitlines():
                print("output_pairs: the config must set timing=off", file=sys.stderr)
                return 2
        diff = first_difference(outs["parent"], outs["change"])
        if diff is not None:
            print(f"differs: {diff}")
            return 1
        rows = len((outs["change"] / "results.csv").read_bytes().splitlines()) - 1
        print(f"identical: {', '.join(OUTPUTS)} ({rows} result rows)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
