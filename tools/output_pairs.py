"""Byte-level comparison of the experiment outputs of two commits.

    python3 tools/output_pairs.py PARENT CHANGE [--config experiment.cfg]

Each ref is exported once, as ``bench_pairs.py`` does, and the line count of
each export's ``src/isiw`` Python files (as ``wc -l`` counts them) is printed
before the first config. Without ``--config``
it takes every ``tools/configs/*.cfg`` that PARENT commits, in name order;
with it, the one file. For each config it runs

    python3 -m isiw.cli experiment --config FILE --out-dir DIR

in each export, in a fresh process with OpenBLAS on one thread, then
compares every file the parent's run wrote with the change's, byte for
byte, line by line. A file that the change's run lacks is a difference; a
file that only the change's run wrote is not, so a change may add an
output. For each config it prints that it is identical, or, for each
differing file in name order, the first line at which it differs, each on a
line of its own. After the last config it exits 0 when
all are identical and 1 otherwise. A run that fails, or a config with
``timing=on`` (whose seconds column differs from run to run), exits 2 at
once.

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

SIDES = ("parent", "change")


def run_experiment(tree: Path, config: Path, out_dir: Path) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    subprocess.run(
        [sys.executable, "-m", "isiw.cli", "experiment", "--config", str(config), "--out-dir", str(out_dir)],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def source_lines(tree: Path) -> int:
    """The lines of every Python file under ``tree/src/isiw``, counted as
    ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "isiw").rglob("*.py"))


def first_difference(path: Path, other: Path) -> str | None:
    """The first line at which the file ``path`` differs from ``other``, as
    ``file line N`` with both lines, or that ``other`` is missing; None when
    the two are byte-identical."""
    if not other.exists():
        return f"{path.name}: missing from {other.parent}"
    old, new = (p.read_bytes().splitlines(keepends=True) for p in (path, other))
    for lineno in range(1, max(len(old), len(new)) + 1):
        a = old[lineno - 1] if lineno <= len(old) else b"<end of file>"
        b = new[lineno - 1] if lineno <= len(new) else b"<end of file>"
        if a != b:
            return f"{path.name} line {lineno}\n  parent: {a!r}\n  change: {b!r}"
    return None


def differences(parent: Path, change: Path) -> list:
    """The :func:`first_difference` of each file of ``parent`` that differs
    from the file of that name in ``change``, in name order; a file that
    ``change`` lacks is a difference. Empty when every file of ``parent`` is
    byte-identical in ``change``."""
    diffs = (first_difference(path, change / path.name) for path in sorted(parent.iterdir()))
    return [diff for diff in diffs if diff is not None]


class RunFailed(Exception):
    """A run of one side exited nonzero, or its outputs cannot be compared."""


def run_pairs(trees: dict, commits: dict, configs: list, tmp: Path):
    """Run each config in both exports, one config at a time, and yield
    ``(config name, parent output dir, change output dir)``."""
    for n, config in enumerate(configs):
        outs = {side: tmp / f"{side}-out-{n}" for side in SIDES}
        for side in SIDES:
            try:
                run_experiment(trees[side], config, outs[side])
            except subprocess.CalledProcessError as exc:
                raise RunFailed(f"{config.name}: {side} ({commits[side][:10]}) exited {exc.returncode}") from exc
            if "timing=on" in (outs[side] / "run_metadata.txt").read_text().splitlines():
                raise RunFailed(f"{config.name} must set timing=off")
        yield config.name, outs["parent"], outs["change"]


def compare_all(pairs) -> int:
    """Compare every ``(config name, parent dir, change dir)`` of ``pairs``,
    printing that a config is identical or each of its differing files; 1
    when any differs, 0 otherwise."""
    status = 0
    for name, parent, change in pairs:
        diffs = differences(parent, change)
        if diffs:
            for diff in diffs:
                print(f"{name} differs: {diff}", flush=True)
            status = 1
            continue
        names = ", ".join(sorted(path.name for path in parent.iterdir()))
        rows = len((change / "results.csv").read_bytes().splitlines()) - 1
        print(f"{name} identical: {names} ({rows} result rows)", flush=True)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="parent commit (any git ref)")
    p.add_argument("change", help="changed commit (any git ref)")
    p.add_argument("--config", type=Path,
                   help="one experiment config, with timing=off (default: every tools/configs/*.cfg of PARENT)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output_pairs_") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        commits = {side: export(ref, trees[side]) for side, ref in zip(SIDES, (args.parent, args.change))}
        for side in SIDES:
            print(f"{side} {commits[side][:10]}: src/isiw has {source_lines(trees[side])} lines of Python", flush=True)
        if args.config is not None:
            configs = [args.config.resolve()]
        else:
            configs = sorted((trees["parent"] / "tools" / "configs").glob("*.cfg"))
        try:
            return compare_all(run_pairs(trees, commits, configs, Path(tmp)))
        except RunFailed as exc:
            print(f"output_pairs: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
