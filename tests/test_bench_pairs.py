"""``tools/bench_pairs.py``: its summary of paired runs, on synthetic runs,
and the layout of the record it writes, with the benchmark runs stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "cells_per_s", "better": "higher", "bound": 0.25}
TIME = {"name": "cell_s.p50", "better": "lower", "bound": 0.25}


def runs_of(pairs, name):
    """Runs of one workload from (parent, change) values, one seed each."""
    runs = []
    for seed, values in enumerate(pairs):
        for side, value in zip(("parent", "change"), values):
            runs.append({"workload": "w", "seed": seed, "side": side, "metrics": {name: value}})
    return runs


def summary_of(pairs, metric):
    return bench_pairs.summarize(runs_of(pairs, metric["name"]), ["w"], [metric])["w"][metric["name"]]


@pytest.mark.parametrize("wins, shown", [(9, True), (8, False)])
def test_gain_needs_nine_tenths_of_the_pairs(wins, shown):
    # parent runs 1.00-1.09 (quartile spread about 0.05); the change reads
    # 1.5 in its winning pairs and ties the parent in the others
    parent = [1.0 + 0.01 * i for i in range(10)]
    pairs = [(p, 1.5 if i < wins else p) for i, p in enumerate(parent)]
    got = summary_of(pairs, RATE)
    assert got["change_wins"] == wins and got["pairs"] == 10
    assert got["median_gain_exceeds_spread"]
    assert got["gain_shown"] is shown
    assert got["within_bound"] and got["resolved"]


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    # the change wins every pair by a hair, inside the parent's spread
    parent = [1.0 + 0.1 * i for i in range(10)]
    got = summary_of([(p, p + 1e-3) for p in parent], RATE)
    assert got["change_wins"] == 10 and not got["gain_shown"]


@pytest.mark.parametrize("metric, factor", [(RATE, 0.7), (TIME, 1.3)], ids=["rate", "time"])
def test_thirty_percent_worse_is_outside_a_quarter_bound(metric, factor):
    parent = [1.0 + 0.001 * i for i in range(10)]
    worse = summary_of([(p, p * factor) for p in parent], metric)
    assert not worse["within_bound"] and worse["resolved"] and worse["change_wins"] == 0
    near = summary_of([(p, p * (1.0 + (factor - 1.0) / 2)) for p in parent], metric)
    assert near["within_bound"] and not near["gain_shown"]


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.5, 1.5] * 5  # quartile spread 1.0 around a median of 1.0
    got = summary_of([(p, p) for p in parent], TIME)
    assert got["within_bound"] and not got["resolved"]


@pytest.mark.parametrize("metric", [RATE, TIME], ids=["rate", "time"])
def test_separation_needs_every_change_run_better_than_every_parent_run(metric):
    # parent runs 0.5-1.5, a spread wider than the bound; the change runs
    # lie past all of them in the metric's direction, or all but one do,
    # which still wins its own pair
    sign = 1.0 if metric["better"] == "higher" else -1.0
    parent = [0.5 + 0.1 * i for i in range(11)]
    change = [1.0 + sign * (0.6 + 0.01 * i) for i in range(11)]
    got = summary_of(list(zip(parent, change)), metric)
    assert got["separated"] and not got["resolved"]
    change[3] = 1.0 + sign * 0.45
    got = summary_of(list(zip(parent, change)), metric)
    assert not got["separated"] and got["change_wins"] == 11


def test_record_traces_both_sides_on_the_first_seed(tmp_path, monkeypatch):
    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}], "run_seconds": 5, "end_to_end": [RATE]}
    calls = []

    def export(ref, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return f"commit-{ref}"

    def run_once(tree, workload, seed, seconds, trace=0):
        side = tree.name
        calls.append((side, workload, seed, trace))
        value = 1.0 if side == "parent" else 2.0
        return {"exit_code": 0, "correct": True, "attempted": 3, "failed": 0,
                "metrics": {"cells_per_s": value, "likelihood.nll_calls.vecchia": 10.0 * value + trace}}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--seeds", "7-8", "--out", str(out)]) == 0

    record = json.loads(out.read_text())
    assert sorted(record["traced"]) == ["w1", "w2"]
    for workload, sides in record["traced"].items():
        assert sorted(sides) == ["change", "parent"]
        for side, run in sides.items():
            assert run["seed"] == 7 and run["correct"]
            expected = 11.0 if side == "parent" else 21.0
            assert run["metrics"]["likelihood.nll_calls.vecchia"] == expected
            assert (side, workload, 7, 1) in calls
    assert sum(trace for *_, trace in calls) == 4  # one traced run per side and workload
    assert record["summary"]["w1"]["cells_per_s"]["change_wins"] == 2
