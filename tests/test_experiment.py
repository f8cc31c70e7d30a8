import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import isiw
from isiw import (
    Domain,
    ModelParams,
    SampleSizeError,
    SamplingError,
    Scenario,
    param_metrics,
    parse_config,
    rmspe,
    run_experiment,
    run_replicate,
)
from isiw._linalg import NotPositiveDefiniteError, blas_threads
from isiw.experiment import (
    EXACT_MLE_MAX_N,
    RESULTS_HEADER,
    WEIGHT_SOURCES,
    ExperimentConfig,
    MetricsRow,
    _average_ranks,
    _param_table,
    format_config,
    method_fitter,
    parse_method,
    rank_table,
    summarize,
)
from isiw import experiment
from isiw import intensity
from isiw.fields import _embedding_root
from isiw import (
    Dataset,
    FitConfig,
    FitResult,
    GridSpec,
    Objective,
    default_init,
    estimate_intensity,
    fit,
    io,
    krige,
    maxmin_order,
    microergodic,
    nn_conditioning_sets,
    select_bandwidth,
    weights_from_intensity,
)
from isiw.cli import _read_settings, build_parser, main as cli_main
from test_inference import no_nugget_dataset


UNIT_DOMAIN = Domain(0.0, 1.0, 0.0, 1.0)


def random_dataset(n: int) -> Dataset:
    rng = np.random.default_rng(2)
    return Dataset(locations=rng.random((n, 2)), values=rng.normal(size=n))


def tiny_config(**overrides):
    base = dict(
        replicates=2,
        grid_nx=16,
        grid_ny=16,
        phi=(0.15,),
        n=(40,),
        methods=("mle", "isiw-v:known"),
        seed=5,
        timing=False,
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRmspe:
    def test_identical_vectors(self):
        assert rmspe([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rmspe([1.0, 2.0], [1.0, 4.0]) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=100), rng.normal(size=100)
        assert rmspe(a, b) == pytest.approx(float(np.sqrt(np.mean((a - b) ** 2))), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmspe([1.0], [1.0, 2.0])


class TestParamMetrics:
    def test_exact_fits_have_zero_error(self):
        truth = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
        out = param_metrics([truth, truth], truth)
        for name in ("mu", "sigma2", "phi", "tau2", "kappa"):
            assert out[name] == (0.0, 0.0)

    def test_single_fit_hand_value(self):
        truth = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
        est = ModelParams.from_values(4.0, 3.0, 0.15, 0.1)
        bias, rmse = param_metrics([est], truth)["sigma2"]
        assert bias == pytest.approx(1.0)
        assert rmse == pytest.approx(1.0)

    def test_two_fits_hand_value(self):
        truth = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
        fits = [
            ModelParams.from_values(3.0, 1.5, 0.15, 0.1),
            ModelParams.from_values(5.0, 1.5, 0.15, 0.1),
        ]
        bias, rmse = param_metrics(fits, truth)["mu"]
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert rmse == pytest.approx(0.25)

    def test_zero_truth_reported_missing(self):
        truth = ModelParams.from_values(4.0, 1.5, 0.15, 0.0)
        out = param_metrics([truth], truth)
        assert math.isnan(out["tau2"][0]) and math.isnan(out["tau2"][1])


class TestRunReplicate:
    def test_deterministic_rows(self):
        config = tiny_config()
        sc = config.scenarios()[0]
        a = [r.csv_row() for r in run_replicate(config, sc, 1)]
        b = [r.csv_row() for r in run_replicate(config, sc, 1)]
        assert a == b

    def test_unit_weights_collapse_to_unweighted(self):
        # beta = 0 makes the true intensity constant, the known weights
        # exactly one, and the weighted fit identical to the unweighted one
        config = tiny_config(beta=0.0, methods=("vecchia", "isiw-v:known"))
        sc = config.scenarios()[0]
        rows = run_replicate(config, sc, 0)
        by_method = {r.method: r for r in rows}
        a, b = by_method["vecchia"], by_method["isiw-v"]
        assert a.psi_hat == b.psi_hat
        assert a.rmspe == b.rmspe

    def test_thomas_known_weights_fail_softly(self):
        # a config rejects samplers=thomas with a known source, but a Thomas
        # scenario passed to run_replicate directly still reaches the row guard;
        # an lgcp config refuses a Thomas parent rate, so the default one draws it
        config = tiny_config(methods=("mle", "isiw-v:known"))
        sc = Scenario(kind="thomas", n=40, phi=0.15)
        rows = run_replicate(config, sc, 0)
        by_method = {r.method: r for r in rows}
        assert math.isnan(by_method["isiw-v"].rmspe)
        assert by_method["isiw-v"].error is not None
        assert math.isfinite(by_method["mle"].rmspe)

    def test_too_few_points_to_fit_fail_softly(self):
        # one point has no sample variance to start a fit from
        config = tiny_config(n=(1,))
        rows = run_replicate(config, config.scenarios()[0], 0)
        error = "ValueError: observation count of the initialization must be >= 2, got 1"
        assert [r.error for r in rows] == [error] * 2

    def test_fits_keep_config_nu(self):
        config = tiny_config(nu=2.5, methods=("mle", "vecchia", "isiw-v:known"))
        rows = run_replicate(config, config.scenarios()[0], 0)
        assert [r.psi_hat.theta.nu for r in rows] == [2.5, 2.5, 2.5]

    def test_programming_error_propagates(self, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr("isiw.experiment.fit", broken_fit)
        config = tiny_config()
        with pytest.raises(TypeError, match="bug"):
            run_replicate(config, config.scenarios()[0], 0)

    def test_data_step_type_error_propagates(self, monkeypatch):
        def broken_sampler(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr("isiw.pointprocess.sample_thomas", broken_sampler)
        config = tiny_config(samplers=("thomas",), methods=("mle",))
        with pytest.raises(TypeError, match="bug"):
            run_replicate(config, config.scenarios()[0], 0)

    def test_wall_time_populated_when_timing(self):
        config = tiny_config(timing=True)
        rows = run_replicate(config, config.scenarios()[0], 0)
        assert all(r.seconds > 0 for r in rows)

    def test_paper_scale_cell_writes_identical_rows_twice(self, tmp_path):
        # n=800 is the paper's scale and the largest Vecchia plan a default run builds
        config = ExperimentConfig(n=(800,), phi=(0.15,), timing=False)
        runs = [[r.csv_row() for r in run_replicate(config, config.scenarios()[0], 0)] for _ in range(2)]
        assert all(math.isfinite(v) for row in runs[0] for v in row[4:10])
        for i, rows in enumerate(runs):
            io.write_rows(tmp_path / f"{i}.csv", RESULTS_HEADER, rows)
        assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    def test_scenario_labels(self):
        sc = Scenario(kind="lgcp", n=100, phi=0.15)
        assert sc.label == "lgcp-n100-phi0.15"
        assert Scenario(kind="scp", n=800, phi=0.02).label == "scp-n800-phi0.02"


def kernel_sum_blas_threads(config, scenario, replicate) -> list:
    """Run one cell with ``intensity._kernel_sum`` wrapped to record
    ``blas_threads()`` at each call, and return the records. Module-level,
    so that a pool worker can run it."""
    seen = []
    original = intensity._kernel_sum

    def recording(*args, **kwargs):
        seen.append(blas_threads())
        return original(*args, **kwargs)

    intensity._kernel_sum = recording
    try:
        run_replicate(config, scenario, replicate)
    finally:
        intensity._kernel_sum = original
    return seen


class TestRunExperiment:
    def test_single_cell_summary_equals_row(self, tmp_path):
        config = tiny_config(replicates=1, methods=("mle",))
        rows, summary = run_experiment(config, tmp_path)
        assert len(rows) == 1
        assert len(summary) == 1
        scenario, method, variant, mean, sd, count, failures = summary[0]
        assert mean == rows[0].rmspe
        assert sd == 0.0
        assert count == 1 and failures == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "ranks.csv").exists()
        meta = (tmp_path / "run_metadata.txt").read_text().splitlines()
        assert f"numpy_version={np.__version__}" in meta
        counts = ",".join(f"{path}:{n}" for path, n in blas_threads().items())
        assert f"blas_threads={counts}" in meta

    def test_unreachable_thomas_count_fails_each_method(self, tmp_path):
        # about 0.5 parents per realization cannot make 100 points
        config = tiny_config(
            samplers=("thomas",), n=(100,), methods=("mle", "isiw-v:CvL"), thomas_parent_rate=0.5
        )
        rows, summary = run_experiment(config, tmp_path)
        assert len(rows) == 4
        assert all(r.error.startswith("SampleSizeError: Thomas sampler never reached 100") for r in rows)
        assert all(math.isnan(r.rmspe) for r in rows)
        assert [(method, count, failures) for _, method, _, _, _, count, failures in summary] == [
            ("isiw-v", 2, 2), ("mle", 2, 2)
        ]
        assert (tmp_path / "results.csv").read_text().count("thomas-n100") == 4

    @pytest.mark.parametrize("overrides", [dict(beta=200.0), dict(sigma2=100.0, beta=25.0)],
                             ids=["beta200", "sigma2-100-beta25"])
    def test_overflowing_lgcp_intensity_fails_its_cell(self, tmp_path, overrides):
        # exp(beta S) leaves the double range on some field draws and not on
        # others; RuntimeWarnings are errors here, so none escapes either way
        config = tiny_config(n=(30,), replicates=4, **overrides)
        rows, _ = run_experiment(config, tmp_path)
        failed = [r for r in rows if r.error is not None]
        assert 0 < len(failed) < len(rows)
        for r in failed:
            assert r.error.startswith("IntensityOverflowError: lgcp intensity overflows or underflows")
            assert math.isnan(r.rmspe)
        assert all(math.isfinite(r.rmspe) for r in rows if r.error is None)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_forced_sampling_failure_leaves_other_cells_unchanged(self, tmp_path, monkeypatch, threads):
        # with threads=2 the forked workers inherit the patched sampler
        config = tiny_config(samplers=("thomas",), phi=(0.02, 0.15), methods=("mle", "isiw-v:CvL"),
                             threads=threads)
        assert all(r.error is None for r in run_experiment(config, tmp_path / "plain")[0])
        forced = config.scenarios()[1]
        sample = isiw.pointprocess.sample_thomas

        def fail_in_one_cell(fld, spec, seed):
            if seed.key == (forced.sid, 1, 1):
                raise SampleSizeError("forced in one cell")
            return sample(fld, spec, seed)

        monkeypatch.setattr("isiw.pointprocess.sample_thomas", fail_in_one_cell)
        rows, _ = run_experiment(config, tmp_path / "forced")
        failed = [r for r in rows if r.error is not None]
        assert {(r.scenario, r.replicate) for r in failed} == {(forced.label, 1)}
        assert len(failed) == 2
        assert all(r.error == "SampleSizeError: forced in one cell" for r in failed)
        plain, got = ((tmp_path / d / "results.csv").read_bytes().splitlines() for d in ("plain", "forced"))
        cell = f"1,{forced.label},".encode()
        assert len(plain) == len(got) == 9
        assert [line for line in got if not line.startswith(cell)] == [
            line for line in plain if not line.startswith(cell)
        ]
        assert all(b",nan," in line for line in got if line.startswith(cell))

    def test_results_header_pinned(self, tmp_path):
        config = tiny_config(replicates=1, methods=("mle",))
        run_experiment(config, tmp_path)
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == "replicate,scenario,method,variant,rmspe,mu,sigma2,phi,tau2,kappa,seconds,converged"

    def test_independent_reaggregation(self, tmp_path):
        config = tiny_config(replicates=3)
        rows, summary = run_experiment(config, tmp_path)
        # recompute mean/sd from the long CSV with separate parsing code
        import csv

        table = {}
        with open(tmp_path / "results.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                key = (rec["scenario"], rec["method"], rec["variant"])
                table.setdefault(key, []).append(float(rec["rmspe"]))
        for scenario, method, variant, mean, sd, count, failures in summary:
            vals = np.array(table[(scenario, method, variant)])
            assert mean == pytest.approx(float(np.mean(vals)), abs=1e-12)
            assert sd == pytest.approx(float(np.std(vals, ddof=1)), abs=1e-12)
            assert count == vals.size

    def test_parallel_matches_serial(self, tmp_path):
        config = tiny_config(replicates=2)
        rows_a, _ = run_experiment(config, tmp_path / "serial")
        config2 = tiny_config(replicates=2, threads=2)
        rows_b, _ = run_experiment(config2, tmp_path / "parallel")
        assert [r.csv_row() for r in rows_a] == [r.csv_row() for r in rows_b]
        csv = lambda run: (tmp_path / run / "results.csv").read_bytes()
        assert csv("serial") == csv("parallel")

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(
                replicates=1,
                grid_nx=48,
                grid_ny=48,
                n=(100, 300),
                phi=(0.02, 0.15),
                methods=("mle", "isiw-v:known", "isiw-v:diggle", "isiw-v:CvL.adaptive"),
            ),
        ],
        ids=["tiny", "48x48"],
    )
    def test_rows_independent_of_blas_threads(self, tmp_path, overrides):
        # each run in a fresh interpreter, so no cache or thread count carries
        # over: threads=1 computes in a process with OpenBLAS at its default
        # thread count, threads=2 in pool workers pinned to one thread
        for threads in (1, 2):
            config = tmp_path / f"threads{threads}.cfg"
            config.write_text(format_config(tiny_config(**overrides, threads=threads)))
            run_cli_fresh("experiment", "--config", str(config), "--out-dir", str(tmp_path / f"threads{threads}"))
        csv = lambda run: (tmp_path / run / "results.csv").read_bytes()
        assert csv("threads1") == csv("threads2")

    @pytest.mark.parametrize("where", ["in_process", "pool_worker"])
    def test_every_blas_call_of_a_cell_runs_on_one_thread(self, caller_blas_counts, where):
        # a cell's only BLAS calls outside fit and krige are the kernel sums
        # of bandwidth selection and intensity estimation
        config = tiny_config(replicates=1, methods=("isiw-v:CvL.adaptive",))
        cell = (config, config.scenarios()[0], 0)
        if where == "in_process":
            seen = kernel_sum_blas_threads(*cell)
        else:
            with ProcessPoolExecutor(max_workers=1) as pool:
                seen = pool.submit(kernel_sum_blas_threads, *cell).result()
        assert seen and all(counts == {path: 1 for path in caller_blas_counts} for counts in seen)
        assert blas_threads() == caller_blas_counts  # the calling process is never pinned

    def test_rank_table_beats_column(self, tmp_path):
        config = tiny_config(replicates=2)
        run_experiment(config, tmp_path)
        lines = (tmp_path / "ranks.csv").read_text().splitlines()
        assert lines[0] == "scenario,method,variant,median_rank,mean_rank,pct_lower_rmspe_than_mle"
        rows = [line.split(",") for line in lines[1:]]
        isiw_row = next(r for r in rows if r[1] == "isiw-v")
        assert 0.0 <= float(isiw_row[5]) <= 100.0


def fresh_env(**extra) -> dict:
    """Environment of a child interpreter that imports this checkout's isiw."""
    return {**os.environ, "PYTHONPATH": str(Path(isiw.__file__).parents[1]), **extra}


def run_cli_fresh(*argv, **env):
    """``isiw *argv`` in a fresh interpreter, with ``env`` added to its
    environment only."""
    cmd = [sys.executable, "-m", "isiw.cli", *argv]
    out = subprocess.run(cmd, env=fresh_env(**env), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_import_leaves_scipy_stats_unloaded():
    # pool workers and the process that forks them import isiw; scipy.stats
    # would cost each about 23 MB and 0.6 s
    code = "import sys, isiw, isiw.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_builds_no_config():
    # the flag defaults and the unread-setting check read experiment.DEFAULTS,
    # off the dataclass fields: importing the CLI validates no config and
    # builds no embedding root (it did 24 and 48 of each)
    code = """
import os, sys
from collections import Counter
calls = Counter()
def count(frame, event, arg):
    if event == "call":
        calls[os.path.basename(frame.f_code.co_filename), frame.f_code.co_name] += 1
sys.setprofile(count)
import isiw.cli
sys.setprofile(None)
from isiw.experiment import ExperimentConfig
held = [name for name, value in vars(isiw.cli).items() if isinstance(value, ExperimentConfig)]
print(calls["experiment.py", "__post_init__"], calls["fields.py", "embedding_root"], held)
"""
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 0 []"


def test_simulate_field_independent_of_blas_threads(tmp_path):
    for threads in ("1", "2"):
        run_cli_fresh(
            "simulate", "--seed", "3", "--out", str(tmp_path / f"field{threads}.csv"),
            OPENBLAS_NUM_THREADS=threads,
        )
    assert (tmp_path / "field1.csv").read_bytes() == (tmp_path / "field2.csv").read_bytes()


def test_thomas_pattern_too_large_to_hold_fails_its_cell_in_bounded_memory():
    # brood means exp(3 S) at sigma2=10 reach e^30: without the offspring
    # budget, 18 of these 39 field draws asked numpy for 329 MiB to 1.35 TiB
    # and raised MemoryError out of the run. The child may map 1.5 GiB: its
    # interpreter with numpy and scipy takes about 0.3 GiB, and a realization
    # at pointprocess.THOMAS_MAX_OFFSPRING another 0.3 GiB at its peak.
    limit = 3 * 2**29
    code = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from isiw.experiment import ExperimentConfig, run_replicate
rows = {{}}
for seed in range(1, 40):
    config = ExperimentConfig(
        replicates=1, n=(20,), phi=(0.15,), samplers=("thomas",), methods=("mle",), sigma2=10.0,
        beta=3.0, grid_nx=16, grid_ny=16, seed=seed, timing=False,
    )
    rows[seed] = [(row.rmspe, row.error) for row in run_replicate(config, config.scenarios()[0], 0)]
print(json.dumps(rows))
"""
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rows = {int(seed): cell for seed, cell in json.loads(out.stdout).items()}
    assert sorted(rows) == list(range(1, 40)) and all(len(cell) == 1 for cell in rows.values())
    failed = set()
    for seed, [(score, error)] in rows.items():
        if error is None:
            assert math.isfinite(score)
        else:
            assert math.isnan(score) and error.startswith("BroodSizeError: Thomas realization of ")
            failed.add(seed)
    assert failed >= {3, 4, 6, 7, 11, 14, 17, 18, 19, 22, 24, 25, 26, 31, 35, 37, 38, 39}
    assert len(failed) < len(rows)


def test_thomas_parent_count_over_budget_is_refused_before_any_draw():
    # a mean of 1e10 parents: before the parent-count check, the parent draw
    # asked numpy for 74.5 GiB and raised MemoryError
    limit = 3 * 2**29
    code = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import numpy as np
from isiw import Domain, GridSpec, SamplerSpec, SeedStream, sample_thomas
from isiw.fields import FieldRealization
grid = GridSpec(Domain(0.0, 1.0, 0.0, 1.0), 8, 8)
try:
    sample_thomas(FieldRealization(grid, np.zeros(grid.ncells)), SamplerSpec("thomas", n=20, parent_rate=1e10),
                  SeedStream(1))
except Exception as exc:
    print(f"{{type(exc).__name__}}: {{exc}}")
"""
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        "ValueError: the mean Thomas parent count, parent_rate 1e+10 times area 1 = 1e+10, "
        "is over the budget of 4194304\n"
    )


# parsed before the parent-count check, and its cell then stopped the run
FOUND_THOMAS_CONFIG = "samplers=thomas\nmethods=mle\nthomas_parent_rate=1e10\nn=20\nreplicates=1\nphi=0.15\ntiming=off"
# failures of the data inside a method that have no type of their own yet (ROADMAP item 14)
DATA_FAILURE_TEXTS = ("not finite at the initial point",)
METHOD_ENTRIES = ["mle", "vecchia", *(f"{name}:{source}" for name in ("isiw-v", "isiw-pm") for source in WEIGHT_SOURCES)]


@st.composite
def small_config_texts(draw):
    """Config texts of one small cell per scenario: n 2-40, grids 8-24 cells
    a side, sigma2 up to 10, |beta| up to 5, any samplers and up to four
    method entries (no known source with thomas), and a log-uniform Thomas
    parent rate up to 1e10. Not every text parses."""
    samplers = draw(st.lists(st.sampled_from(["lgcp", "scp", "thomas"]), min_size=1, unique=True))
    entries = [e for e in METHOD_ENTRIES if not ("thomas" in samplers and e.endswith(":known"))]
    lines = {
        "samplers": ",".join(samplers),
        "methods": ",".join(draw(st.lists(st.sampled_from(entries), min_size=1, max_size=4, unique=True))),
        "n": draw(st.integers(2, 40)),
        "grid_nx": draw(st.integers(8, 24)),
        "grid_ny": draw(st.integers(8, 24)),
        "phi": draw(st.sampled_from([0.02, 0.15])),
        "sigma2": draw(st.floats(0.05, 10.0)),
        "beta": draw(st.floats(-5.0, 5.0)),
        "seed": draw(st.integers(0, 2**16)),
    }
    if "thomas" in samplers:
        lines["thomas_parent_rate"] = 10.0 ** draw(st.floats(0.0, 10.0))
    return "\n".join([*(f"{key}={value}" for key, value in lines.items()), "replicates=1", "timing=off"])


def run_small_configs() -> int:
    """Run replicate 0 of every scenario of 100 small configs that parse;
    every row is a fit or the failed row of a data failure. Returns the
    number of configs run."""
    allowed = tuple(f"{cls.__name__}: " for cls in (*SamplingError.__subclasses__(), NotPositiveDefiniteError))
    ran = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(small_config_texts())
    @example(FOUND_THOMAS_CONFIG)
    def one_config(text):
        try:
            config = parse_config(text)
        except ValueError:
            reject()
        for scenario in config.scenarios():
            rows = run_replicate(config, scenario, 0)
            assert [(row.method, row.variant) for row in rows] == config.method_specs()
            for row in rows:
                if row.error is None:
                    assert math.isfinite(row.rmspe), text
                else:
                    assert row.error.startswith(allowed) or any(t in row.error for t in DATA_FAILURE_TEXTS), (
                        text, row.error)
        ran.append(text)

    one_config()
    return len(ran)


def test_every_small_config_that_parses_runs_its_cell_in_bounded_memory():
    # the limit of the Thomas test above; a cell that asks for more raises
    # MemoryError out of run_replicate, and the example fails
    limit = 3 * 2**29
    code = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {str(Path(__file__).parent)!r})
from test_experiment import run_small_configs
print(run_small_configs())
"""
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) >= 100


@pytest.mark.parametrize("seed", range(6))
def test_average_ranks_equal_rankdata(seed):
    from scipy.stats import rankdata

    rng = np.random.default_rng(seed)
    values = rng.choice([0.3, 0.7, 1.1, 2.0, 5.5], size=rng.integers(1, 15))  # with ties
    assert np.array_equal(_average_ranks(values), rankdata(values))
    distinct = rng.random(9)
    assert np.array_equal(_average_ranks(distinct), rankdata(distinct))


# Hand-built rows of two scenarios, two replicates each. In phi0.02, isiw-v
# and vecchia tie in replicate 0 and vecchia fails in replicate 1; in
# phi0.15, both mle rows fail, so no cell of that scenario has mle, and
# isiw-v and vecchia tie in replicate 1.
TABLE_CONFIG = dict(phi=(0.02, 0.15), methods=("mle", "isiw-v:known", "vecchia"))
A, B = "lgcp-n40-phi0.02", "lgcp-n40-phi0.15"
TABLE_RMSPE = {
    (A, 0): {"mle": 1.0, "isiw-v:known": 0.8, "vecchia": 0.8},
    (A, 1): {"mle": 0.9, "isiw-v:known": 1.2, "vecchia": math.nan},
    (B, 0): {"mle": math.nan, "isiw-v:known": 0.5, "vecchia": 0.6},
    (B, 1): {"mle": math.nan, "isiw-v:known": 0.7, "vecchia": 0.7},
}


def table_rows(rmspe_by_cell=TABLE_RMSPE) -> list:
    rows = []
    for (scenario, replicate), cell in rmspe_by_cell.items():
        for entry, score in cell.items():
            spec = parse_method(entry)
            fitted = math.isfinite(score)
            psi = ModelParams.from_values(4.0 + score, 1.5 - score, 0.1 + score / 10, 0.1) if fitted else None
            rows.append(MetricsRow(replicate, scenario, spec.name, spec.source, score, psi, 0.0, fitted))
    return rows


def test_summarize_counts_every_row_and_averages_the_finite_ones():
    by_key = {row[:3]: row[3:] for row in summarize(table_rows())}
    assert list(by_key) == sorted(by_key)
    expected = {
        (A, "isiw-v", "known"): (1.0, float(np.std([0.8, 1.2], ddof=1)), 2, 0),
        (A, "mle", ""): (0.95, float(np.std([1.0, 0.9], ddof=1)), 2, 0),
        (A, "vecchia", ""): (0.8, 0.0, 2, 1),
        (B, "isiw-v", "known"): (0.6, float(np.std([0.5, 0.7], ddof=1)), 2, 0),
        (B, "mle", ""): (math.nan, 0.0, 2, 2),
        (B, "vecchia", ""): (0.65, float(np.std([0.6, 0.7], ddof=1)), 2, 0),
    }
    assert by_key.keys() == expected.keys()
    for key, (mean, sd, count, failures) in expected.items():
        assert by_key[key] == (pytest.approx(mean, nan_ok=True), pytest.approx(sd), count, failures), key


def test_rank_table_ranks_each_cell_among_its_finite_rows():
    from scipy.stats import rankdata

    ranks, beats = {}, {}  # by (scenario, method, variant), pooled under "all" too
    for (scenario, _), cell in TABLE_RMSPE.items():
        finite = {entry: score for entry, score in cell.items() if math.isfinite(score)}
        for (entry, score), rank in zip(finite.items(), rankdata(list(finite.values()))):
            spec = parse_method(entry)
            for label in (scenario, "all"):
                ranks.setdefault((label, *spec), []).append(rank)
                if "mle" in finite and spec.name != "mle":
                    beats.setdefault((label, *spec), []).append(score < finite["mle"])
    table = rank_table(table_rows())
    assert [row[:3] for row in table] == [
        (A, "isiw-v", "known"), (A, "mle", ""), (A, "vecchia", ""),
        (B, "isiw-v", "known"), (B, "vecchia", ""),  # no finite mle row in B
        ("all", "isiw-v", "known"), ("all", "mle", ""), ("all", "vecchia", ""),
    ]
    for *key, median, mean, pct in table:
        assert (median, mean) == (np.median(ranks[tuple(key)]), pytest.approx(np.mean(ranks[tuple(key)]))), key
        if tuple(key) in beats:
            assert pct == pytest.approx(100.0 * np.mean(beats[tuple(key)])), key
        else:
            assert math.isnan(pct), key
    pct = {tuple(row[:3]): row[5] for row in table}
    assert (pct[A, "isiw-v", "known"], pct[A, "vecchia", ""], pct["all", "vecchia", ""]) == (50.0, 100.0, 100.0)
    assert all(math.isnan(pct[key]) for key in [(A, "mle", ""), ("all", "mle", ""), (B, "isiw-v", "known")])

    # one scenario and no mle: no "all" rows, and no share anywhere
    without_mle = {cell: {e: v for e, v in scores.items() if e != "mle"}
                   for cell, scores in TABLE_RMSPE.items() if cell[0] == A}
    table = rank_table(table_rows(without_mle))
    assert [row[:3] for row in table] == [(A, "isiw-v", "known"), (A, "vecchia", "")]
    assert all(math.isnan(row[5]) for row in table)


def test_rank_table_ranks_each_cell_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(list(values))
        return _average_ranks(values)

    monkeypatch.setattr(experiment, "_average_ranks", counted)
    rank_table(table_rows())
    assert len(calls) == len(TABLE_RMSPE)  # 4 cells in 2 scenarios, the pooled rows included


def test_param_table_skips_failed_rows():
    config = tiny_config(**TABLE_CONFIG)
    rows = table_rows()
    table = _param_table(config, rows)
    expected = []
    for scenario, phi in ((A, 0.02), (B, 0.15)):
        for method, variant in (("isiw-v", "known"), ("mle", ""), ("vecchia", "")):
            fits = [r.psi_hat for r in rows if (r.scenario, r.method, r.variant) == (scenario, method, variant)
                    and math.isfinite(r.rmspe)]
            if fits:
                metrics = param_metrics(fits, config.truth(phi))
                expected += [(scenario, method, variant, name, *pair) for name, pair in metrics.items()]
    assert [row[:4] for row in table] == [row[:4] for row in expected]
    assert np.allclose([row[4:] for row in table], [row[4:] for row in expected], equal_nan=True)
    assert (B, "mle", "") not in {row[:3] for row in table}  # both of its rows failed


class TestConfigFormat:
    def test_round_trip(self):
        config = tiny_config(pm_cutoff=0.3, samplers=("lgcp", "scp"), methods=("mle", "isiw-pm:CvL"))
        text = format_config(config)
        again = parse_config(text)
        assert again == config

    def test_parse_comments_and_blanks(self):
        text = """
        # comment line
        replicates = 4
        phi = 0.02, 0.15   # trailing comment
        methods = mle, isiw-v:diggle
        timing = off
        """
        config = parse_config(text)
        assert config.replicates == 4
        assert config.phi == (0.02, 0.15)
        assert config.methods == ("mle", "isiw-v:diggle")
        assert config.timing is False

    def test_unknown_key_rejected(self):
        # alpha is no setting: given n, e^alpha cancels from the sampling probabilities;
        # nor is exact_mle_max_n: mle switches to Vecchia above the constant EXACT_MLE_MAX_N
        for text in ("no_such_key=1", "alpha=0", "samplers=scp\nalpha=3", "samplers=thomas\nmethods=mle\nalpha=3",
                     "exact_mle_max_n=200"):
            key = text.splitlines()[-1].split("=")[0]
            with pytest.raises(ValueError, match=f"unknown key '{key}'$"):
                parse_config(text)
        with pytest.raises(TypeError, match="alpha"):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(TypeError, match="exact_mle_max_n"):
            ExperimentConfig(exact_mle_max_n=200)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m=5\nm=10", "config line 2: m is also set on line 1"),
            ("samplers=lgcp\n# thomas too\n\nsamplers = thomas", "config line 4: samplers is also set on line 1"),
            ("m=5\nreplicates=2\nm=5", "config line 3: m is also set on line 1"),
        ],
        ids=["m", "samplers", "same-value"],
    )
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_config("methods=gibbs")

    def test_bad_weight_source_rejected(self):
        with pytest.raises(ValueError, match="weight source"):
            parse_config("methods=isiw-v:magic")

    @pytest.mark.parametrize("spelling,value", [
        ("on", True), ("True", True), ("1", True), ("yes", True),
        ("OFF", False), ("false", False), ("0", False), ("no", False),
    ])
    def test_timing_spellings(self, spelling, value):
        assert parse_config(f"timing={spelling}").timing is value

    @pytest.mark.parametrize("spelling", ["of", "nope", ""])
    def test_timing_typo_rejected(self, spelling):
        with pytest.raises(ValueError, match="config line 2: timing"):
            parse_config(f"seed=3\ntiming={spelling}")

    @pytest.mark.parametrize("text,message", [
        ("mu=abc", "config line 1: mu: could not convert string to float: 'abc'"),
        ("seed=3\nn=100,1.5", "config line 2: n: invalid literal for int"),
        ("domain=0,1,0", "config line 1: domain: must be x0,x1,y0,y1, got '0,1,0'"),
        ("replicates=", "config line 1: replicates: invalid literal for int"),
        ("methods=mle,,isiw-v:CvL", "config line 1: methods: empty entry in 'mle,,isiw-v:CvL'"),
        ("seed=3\nsamplers=lgcp,", "config line 2: samplers: empty entry in 'lgcp,'"),
        ("n=100,", "config line 1: n: empty entry in '100,'"),
        ("phi=0.02, ,0.15", "config line 1: phi: empty entry in '0.02, ,0.15'"),
    ], ids=["float", "int-list", "domain", "empty-int", "empty-method-entry", "empty-sampler-entry",
            "empty-int-entry", "blank-float-entry"])
    def test_bad_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="methods must list at least one value"):
            parse_config("methods=")

    def test_duplicate_method_rejected(self):
        with pytest.raises(ValueError, match="isiw-v:diggle more than once"):
            parse_config("methods=mle,isiw-v:diggle,isiw-v:diggle")

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            parse_config(f"threads={threads}")

    @pytest.mark.parametrize("text,message", [
        ("samplers=lgcp,lgpc", "unknown sampler kind 'lgpc'"),
        ("samplers=", "samplers must list at least one value"),
    ], ids=["typo", "empty"])
    def test_bad_samplers_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_thomas_with_known_source_rejected(self):
        with pytest.raises(ValueError, match="thomas.*isiw-v:known, isiw-pm:known"):
            ExperimentConfig(samplers=("lgcp", "thomas"),
                             methods=("mle", "isiw-v:known", "isiw-v:diggle", "isiw-pm:known"))
        ExperimentConfig(samplers=("thomas",), methods=("mle", "isiw-v:diggle"))  # accepted

    def test_n_below_the_selection_minimum_rejected_with_an_estimated_source(self):
        # every row of such a method would fail in bandwidth selection
        message = "n must be >= 5 to select a bandwidth for isiw-v:scott, isiw-pm:CvL, got 4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config("n=4,40\nmethods=mle,isiw-v:known,isiw-v:scott,isiw-pm:CvL")
        assert parse_config("n=4,40\nmethods=mle,isiw-v:known").n == (4, 40)

    @pytest.mark.parametrize("text,message", [
        ("phi=0.15,-1", "phi must be positive and finite, got -1.0"),
        ("phi=0", "phi must be positive and finite, got 0.0"),
        ("n=100,0", "n must be >= 1, got 0"),
        ("m=0", "m must be >= 1, got 0"),
        ("threshold=-1", "threshold must be nonnegative and finite, got -1.0"),
        ("grid_nx=1", "grid_nx, grid_ny: grid needs at least 2 cells per axis, got 1x48"),
        ("grid_ny=0", "grid_nx, grid_ny: grid needs at least 2 cells per axis, got 48x0"),
        ("sigma2=-1", "sigma2 must be positive and finite, got -1.0"),
        ("nu=0", "nu must be positive and finite, got 0.0"),
        ("tau2=-0.5", "tau2 must be nonnegative and finite, got -0.5"),
        ("samplers=thomas\nmethods=mle\nthomas_parent_rate=0",
         "parent_rate must be positive and finite, got 0.0"),
        ("samplers=scp\nbeta=0", "beta must be positive for scp, got 0.0"),
        ("samplers=scp\nbeta=-1", "beta must be positive for scp, got -1.0"),
        ("beta=nan", "beta must be finite, got nan"),
        ("mu=nan", "mu must be finite, got nan"),
        ("pm_cutoff=-1", "pm_cutoff must be positive, got -1.0"),
        ("threshold=inf", "threshold must be nonnegative and finite, got inf"),
        ("seed=-1", "seed must be >= 0, got -1"),
        ("replicates=0", "replicates must be >= 1, got 0"),
        ("threads=0", "threads must be >= 1, got 0"),
        ("grid_nx=1449\ngrid_ny=1449",
         "grid_nx, grid_ny: grid of 1449x1449 cells exceeds the budget of 2097152 cells"),
        ("phi=3.0", "phi: no circulant embedding of the 48x48 grid within 2097152 entries "
                     "is nonnegative definite at phi=3.0"),
        ("grid_nx=1000\ngrid_ny=1000", "grid_nx, grid_ny: no circulant embedding of the 1000x1000 grid can fit: "
                                        "its smallest torus, 2000x2000, has 4000000 entries, over the budget of 2097152"),
        (FOUND_THOMAS_CONFIG, "thomas_parent_rate: the mean Thomas parent count, parent_rate 1e+10 times area 1 "
                              "= 1e+10, is over the budget of 4194304"),
        ("samplers=thomas\nmethods=mle\ndomain=0,1000,0,1000", "thomas_parent_rate: the mean Thomas parent count, "
                                                                "parent_rate 25 times area 1e+06 = 2.5e+07, is over"),
    ], ids=["negative-phi", "zero-phi", "zero-n", "zero-m", "negative-threshold", "one-column",
            "no-rows", "negative-sigma2", "zero-nu", "negative-tau2", "no-thomas-parents",
            "zero-scp-beta", "negative-scp-beta", "nan-beta", "nan-mu", "negative-pm-cutoff",
            "infinite-threshold", "negative-seed", "zero-replicates", "zero-threads", "oversized-grid",
            "unembeddable-phi", "unembeddable-grid", "thomas-parents-over-budget", "thomas-domain-over-budget"])
    def test_run_sinking_value_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)

    def test_check_caches_no_embedding_root(self):
        _embedding_root.cache_clear()
        ExperimentConfig()
        assert _embedding_root.cache_info().currsize == 0

    def test_built_config_is_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.phi = (-1.0,)
        assert cfg.phi == (0.02, 0.15)

    @pytest.mark.parametrize("key", ["samplers", "n", "phi"])
    def test_empty_scenario_list_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must list at least one value"):
            ExperimentConfig(**{key: ()})
        with pytest.raises(ValueError, match=f"^{key} must list at least one value$"):
            parse_config(f"{key}=")


class TestMethodVocabulary:
    def test_parse_method(self):
        assert parse_method("mle") == ("mle", "")
        assert parse_method("isiw-pm:CvL.adaptive") == ("isiw-pm", "CvL.adaptive")
        for entry, message in [("isiw-v", "weight source"), ("vecchia:scott", "no weight source"),
                               ("exact", "unknown method")]:
            with pytest.raises(ValueError, match=message):
                parse_method(entry)

    @pytest.mark.parametrize("n,kind", [(EXACT_MLE_MAX_N, "exact"), (EXACT_MLE_MAX_N + 1, "vecchia")])
    def test_mle_switches_to_vecchia_above_exact_max_n(self, n, kind, monkeypatch):
        objectives = []
        monkeypatch.setattr("isiw.experiment.fit", lambda objective, *_: objectives.append(objective))
        fit_one = method_fitter(random_dataset(n), UNIT_DOMAIN, nu=1.0, m=5, threshold=0.01, pair_cutoff=None)
        fit_one(parse_method("mle"), 0)
        [objective] = objectives
        assert objective.kind == kind and objective.weights is None


class TestMethodRunner:
    def test_dataset_work_is_done_once_and_shared(self, monkeypatch):
        # n above EXACT_MLE_MAX_N, so mle needs the Vecchia plan too; diggle
        # is the one selector the four methods use
        calls, objectives = [], []
        for name in ("default_init", "nn_conditioning_sets", "select_bandwidth"):
            def counted(*args, _name=name, _real=getattr(isiw.experiment, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(isiw.experiment, name, counted)
        monkeypatch.setattr("isiw.experiment.fit", lambda objective, *_: objectives.append(objective))
        fit_one = method_fitter(
            random_dataset(EXACT_MLE_MAX_N + 1), UNIT_DOMAIN, nu=1.0, m=5, threshold=0.01, pair_cutoff=None,
        )
        for mi, entry in enumerate(["mle", "vecchia", "isiw-v:diggle", "isiw-pm:diggle"]):
            fit_one(parse_method(entry), mi)
        assert sorted(calls) == ["default_init", "nn_conditioning_sets", "select_bandwidth"]
        mle, vecchia, isiw_v, isiw_pm = objectives
        assert [o.kind for o in objectives] == ["vecchia", "vecchia", "vecchia", "pairwise-marginal"]
        assert mle.plan is vecchia.plan is isiw_v.plan
        np.testing.assert_array_equal(isiw_v.weights, isiw_pm.weights)


class TestIoRoundTrips:
    def test_field_csv_round_trip(self, tmp_path):
        from isiw import CovParams, GridSpec, SeedStream, simulate_field

        grid = GridSpec(Domain(0, 1, 0, 1), 8, 8)
        fld = simulate_field(grid, CovParams(1.5, 0.15, 1.0), SeedStream(3))
        io.write_field_csv(tmp_path / "f.csv", fld)
        back = io.read_field_csv(tmp_path / "f.csv")
        assert back.grid == grid
        np.testing.assert_allclose(back.values, fld.values, rtol=1e-15)

    def test_dataset_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        from isiw import Dataset

        data = Dataset(locations=rng.random((10, 2)), values=rng.normal(size=10))
        io.write_dataset_csv(tmp_path / "d.csv", data)
        back = io.read_dataset_csv(tmp_path / "d.csv")
        np.testing.assert_array_equal(back.locations, data.locations)
        np.testing.assert_array_equal(back.values, data.values)


def exit_code(argv) -> int:
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


def output_flags(command: str, out: Path) -> list:
    """The flags that send ``command``'s output under ``out``: the path of
    its one file, or the directory of its several."""
    if command in ("intensity", "experiment"):
        return ["--out-dir", str(out)]
    return ["--out", str(out / f"{command}.csv")]


def read_fit(path) -> dict:
    """The one row of a fit CSV, by column."""
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row


def write_params(path, **changes) -> Path:
    """A one-row parameter CSV for ``krige --fit``, as a user writes one:
    mu=4, sigma2=1, phi=0.1, tau2=0.1 and nu=1, updated by ``changes``."""
    params = {"mu": 4.0, "sigma2": 1.0, "phi": 0.1, "tau2": 0.1, "nu": 1.0, **changes}
    io.write_rows(path, list(params), [params.values()])
    return path


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    from isiw import CovParams, GridSpec, SeedStream, simulate_field

    fld = simulate_field(GridSpec(Domain(0, 1, 0, 1), 16, 16), CovParams(1.5, 0.15, 1.0), SeedStream(8))
    rng = np.random.default_rng(8)
    locs = rng.random((80, 2))
    path = tmp_path_factory.mktemp("fit") / "data.csv"
    io.write_dataset_csv(path, Dataset(locations=locs, values=4.0 + fld.at(locs) + 0.3 * rng.normal(size=80)))
    return path


@pytest.fixture(scope="module")
def field_csv(tmp_path_factory):
    from isiw import CovParams, GridSpec, SeedStream, simulate_field

    fld = simulate_field(GridSpec(Domain(0, 1, 0, 1), 8, 8), CovParams(1.5, 0.15, 1.0), SeedStream(8))
    path = tmp_path_factory.mktemp("sample") / "field.csv"
    io.write_field_csv(path, fld)
    return path


@pytest.fixture(scope="module")
def fit_csv(tmp_path_factory):
    return write_params(tmp_path_factory.mktemp("krige") / "fit.csv")


class TestCli:
    def test_pipeline(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main(["simulate", "--nx", "12", "--seed", "3", "--out", f"{out}/field.csv"]) == 0
        assert cli_main([
            "sample", "--field", f"{out}/field.csv", "--sampler", "lgcp",
            "--n", "60", "--seed", "4", "--out", f"{out}/points.csv",
        ]) == 0
        assert cli_main([
            "intensity", "--points", f"{out}/points.csv", "--selector", "scott",
            "--nx", "12", "--out-dir", out,
        ]) == 0
        # turn the point pattern into a dataset by pairing with field values
        fld = io.read_field_csv(f"{out}/field.csv")
        pts = io.read_points_csv(f"{out}/points.csv")
        from isiw import Dataset

        io.write_dataset_csv(f"{out}/data.csv", Dataset(locations=pts, values=4.0 + fld.at(pts)))
        assert cli_main([
            "fit", "--data", f"{out}/data.csv", "--method", "vecchia",
            "--m", "10", "--out", f"{out}/fit.csv",
        ]) == 0
        assert float(read_fit(f"{out}/fit.csv")["sigma2"]) > 0
        assert cli_main([
            "krige", "--data", f"{out}/data.csv", "--fit", f"{out}/fit.csv",
            "--nx", "12", "--out", f"{out}/surface.csv",
        ]) == 0
        surface = np.loadtxt(f"{out}/surface.csv", delimiter=",", skiprows=1)
        assert surface.shape == (144, 4)
        assert np.all(surface[:, 3] >= 0)

    def test_fit_prints_zero_nugget(self, tmp_path):
        io.write_dataset_csv(tmp_path / "data.csv", no_nugget_dataset())
        argv = ["fit", "--data", str(tmp_path / "data.csv"), "--method", "mle", "--out", str(tmp_path / "fit.csv")]
        assert cli_main(argv) == 0
        assert read_fit(tmp_path / "fit.csv")["tau2"] == "0.0"

    def test_experiment_subcommand(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "replicates=1\ngrid_nx=16\ngrid_ny=16\nphi=0.15\nn=30\n"
            "methods=mle\nseed=2\ntiming=off\n"
        )
        out = tmp_path / "results"
        assert cli_main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "results.csv").exists()

    @pytest.mark.parametrize("spec", ["mle", "vecchia", "isiw-v:diggle", "isiw-pm:CvL.adaptive"])
    def test_fit_matches_build_objective(self, spec, dataset_csv, tmp_path):
        assert cli_main(["fit", "--data", str(dataset_csv), "--method", spec, "--out", str(tmp_path / "fit.csv")]) == 0
        report = read_fit(tmp_path / "fit.csv")

        # the objective is built by hand, not through method_fitter, so this
        # checks the runner the CLI and the experiment share
        config = ExperimentConfig()
        data = io.read_dataset_csv(dataset_csv)
        assert data.n <= EXACT_MLE_MAX_N  # so mle is the exact likelihood
        method, locs = parse_method(spec), data.locations
        plan = nn_conditioning_sets(locs, maxmin_order(locs), config.m)
        if method.source:
            bw = select_bandwidth(method.source, locs, config.domain)
            weights = weights_from_intensity(estimate_intensity(locs, config.domain, bw), config.threshold)
        objective = {
            "mle": lambda: Objective(kind="exact"),
            "vecchia": lambda: Objective(kind="vecchia", plan=plan),
            "isiw-v": lambda: Objective(kind="vecchia", plan=plan, weights=weights),
            "isiw-pm": lambda: Objective(kind="pairwise-marginal", weights=weights),
        }[method.name]()
        res = fit(objective, data, default_init(data, config.domain, nu=config.nu),
                  FitConfig(domain=config.domain, restart_seed=0))
        expected = {**res.psi_hat.as_dict(), "nll": res.nll}
        for name in ("mu", "sigma2", "phi", "tau2", "nll"):
            assert float(report[name]) == expected[name], name
        assert int(report["evaluations"]) == res.evaluations > 0

    @pytest.mark.parametrize("args,named", [
        (["fit", "--method", "isiw-v"], "isiw-v"),
        (["fit", "--method", "isiw-v:known"], "known"),
        (["fit", "--method", "exact"], "exact"),
        (["fit", "--weights", "diggle"], "--weights"),
        (["fit", "--bandwidth", "0.1"], "--bandwidth"),
        (["fit", "--method", "vecchia", "--cutoff", "0.2"], "--cutoff"),
        (["simulate", "--method", "mle"], "--method"),
        (["experiment", "--m", "3"], "--m"),
        # argparse prints the usage line, which lists --bandwidth, before any
        # error, so the row checks the mutual-exclusion text itself
        pytest.param(["intensity", "--selector", "diggle", "--bandwidth", "0.1"],
                     "argument --bandwidth: not allowed with argument --selector", id="args9---bandwidth"),
        (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_unread_or_contradictory_flags_rejected(self, args, named, dataset_csv, tmp_path, capsys):
        # every other input is valid, so the flag under test is the only fault
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("replicates=1\ngrid_nx=8\ngrid_ny=8\nphi=0.15\nn=20\nmethods=mle\n")
        inputs = {
            "fit": ["--data", str(dataset_csv)],
            "intensity": ["--points", str(dataset_csv)],
            "experiment": ["--config", str(cfg)],
        }
        out = tmp_path / "out"
        assert exit_code([*args, *inputs.get(args[0], []), *output_flags(args[0], out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "intensity", "krige"])
    def test_zero_ny_rejected(self, command, dataset_csv, fit_csv, tmp_path, capsys):
        inputs = {
            "simulate": [],
            "intensity": ["--points", str(dataset_csv), "--selector", "scott"],
            "krige": ["--data", str(dataset_csv), "--fit", str(fit_csv)],
        }
        out = tmp_path / "out"
        assert exit_code([command, "--nx", "4", "--ny", "0", *inputs[command], *output_flags(command, out)]) == 1
        assert "got 4x0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, needs", [
        ("intensity", "--points", ["x"]),
        ("sample", "--field", ["s", "x"]),
        ("fit", "--data", ["value", "x"]),
    ])
    def test_missing_csv_column_is_a_usage_error(self, command, flag, needs, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("a,y\n0.1,0.2\n0.3,0.4\n")
        extra = ["--n", "5"] if command == "sample" else []
        assert exit_code([command, flag, str(path), *extra, *output_flags(command, tmp_path)]) == 1
        assert capsys.readouterr().err == f"isiw: {path}: missing columns {needs}\n"

    @pytest.mark.parametrize("cells", [
        [(0.5, 0.1), (0.5, 0.3), (0.5, 0.5), (0.5, 0.7)],
        [(0.1, 0.25), (0.2, 0.25), (0.7, 0.25), (0.1, 0.75), (0.2, 0.75), (0.7, 0.75)],
        [(0.25, 0.25), (0.25, 0.25), (0.75, 0.75), (0.75, 0.25)],
        [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75)],
    ], ids=["one-column", "uneven-spacing", "repeated-cell", "three-cells"])
    def test_field_csv_off_a_grid_is_a_usage_error(self, cells, tmp_path, capsys):
        # before, uneven spacing or a repeated cell left cells of np.empty
        # garbage in the field, and one column ended in an IndexError
        path = tmp_path / "field.csv"
        path.write_text("x,y,s\n" + "".join(f"{x},{y},{x + y}\n" for x, y in cells))
        assert exit_code(["sample", "--field", str(path), "--n", "5", "--out", str(tmp_path / "points.csv")]) == 1
        assert capsys.readouterr().err == (
            f"isiw: {path}: cell centers do not form a regular grid of at least 2 x 2 cells\n"
        )

    @pytest.mark.parametrize("row", ["0.1,abc", "0.1"], ids=["not-a-number", "short-row"])
    def test_bad_csv_value_names_the_line(self, row, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text(f"x,y\n0.5,0.5\n{row}\n")
        assert exit_code(["intensity", "--points", str(path), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"isiw: {path}: line 3: ")

    def test_usage_error_exit_code(self):
        assert cli_main(["fit", "--data", "/nonexistent.csv"]) == 1
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit"])  # missing required --data
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli_main(["no-such-command"])
        assert exc.value.code == 1

    def test_fit_ending_on_no_finite_value_is_a_numerical_failure(self, dataset_csv, monkeypatch, capsys):
        def no_finite_value(*_):
            raise FloatingPointError("every attempt ended on a non-finite objective value")

        monkeypatch.setattr("isiw.experiment.fit", no_finite_value)
        assert cli_main(["fit", "--data", str(dataset_csv)]) == 2
        assert capsys.readouterr().err == (
            "isiw: numerical failure: every attempt ended on a non-finite objective value\n"
        )

    @pytest.mark.parametrize("domain, reason", [
        ("0,1,1,0", "degenerate domain"),
        ("0,1,0", "must be x0,x1,y0,y1"),
        ("0,1,a,1", "could not convert string to float"),
        ("0,inf,0,1", "finite"),
    ])
    def test_domain_error_names_its_reason(self, domain, reason, tmp_path, capsys):
        out = tmp_path / "out"
        assert exit_code(["simulate", "--domain", domain, "--out", str(out / "field.csv")]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["krige", {"tau2": math.nan}], "tau2 must be nonnegative and finite, got nan"),
        (["krige", {"mu": math.nan}], "mu must be finite, got nan"),
        (["simulate", "--sigma2", "inf"], "sigma2 must be positive and finite, got inf"),
        (["simulate", "--phi", "inf"], "phi must be positive and finite, got inf"),
        (["fit", "--nu", "inf"], "nu must be positive and finite, got inf"),
        (["sample", "--sampler", "thomas", "--parent-rate", "inf"],
         "parent_rate must be positive and finite, got inf"),
        (["sample", "--sampler", "scp", "--beta", "-1"], "beta must be positive for scp, got -1.0"),
        (["sample", "--sampler", "thomas", "--parent-rate", "1e10"],
         "the mean Thomas parent count, parent_rate 1e+10 times area 1 = 1e+10, is over the budget of 4194304"),
    ], ids=["nan-tau2", "nan-mu", "infinite-sigma2", "infinite-phi", "infinite-nu",
            "infinite-parent-rate", "negative-scp-beta", "parent-count-over-budget"])
    def test_misused_parameter_names_field_and_value(self, args, message, dataset_csv, field_csv, tmp_path,
                                                     capsys):
        # each subcommand builds the types an experiment cell builds, so it
        # refuses the values a config refuses, before it writes anything;
        # krige reads its parameters from the fit CSV
        if args[0] == "krige":
            args = ["krige", "--fit", str(write_params(tmp_path / "fit.csv", **args[1]))]
        inputs = {
            "krige": ["--data", str(dataset_csv), "--nx", "8"],
            "simulate": ["--nx", "8"],
            "fit": ["--data", str(dataset_csv)],
            "sample": ["--field", str(field_csv), "--n", "10"],
        }
        out = tmp_path / "out"
        assert exit_code([args[0], *inputs[args[0]], *args[1:], *output_flags(args[0], out)]) == 1
        assert capsys.readouterr().err == f"isiw: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, flags, rule", [
        ("m=0", ["--method", "vecchia", "--m", "0"], "must be >= 1, got 0"),
        ("threshold=-1", ["--method", "isiw-v:scott", "--threshold", "-1"],
         "must be nonnegative and finite, got -1.0"),
        ("methods=isiw-pm:CvL\npm_cutoff=-1", ["--method", "isiw-pm:CvL", "--cutoff", "-1"],
         "must be positive, got -1.0"),
        ("methods=isiw-pm:CvL\npm_cutoff=nan", ["--method", "isiw-pm:CvL", "--cutoff", "nan"],
         "must be positive, got nan"),
        ("methods=isiw-v:diggle\npm_cutoff=0.3", ["--method", "isiw-v:diggle", "--cutoff", "0.3"],
         "is read only by the isiw-pm methods, not by isiw-v"),
    ], ids=["zero-m", "negative-threshold", "negative-cutoff", "nan-cutoff", "cutoff-without-isiw-pm"])
    def test_invalid_fit_setting_refused_by_config_and_fit(self, config, flags, rule, dataset_csv, tmp_path,
                                                           capsys):
        # one rule, spelled as each caller spells the setting: the config key
        # or the fit flag, with a method that reads it
        key = config.splitlines()[-1].split("=")[0]
        with pytest.raises(ValueError) as refused:
            parse_config(config)
        assert str(refused.value) == f"{key} {rule}"
        out = tmp_path / "out"
        assert exit_code(["fit", "--data", str(dataset_csv), *flags, "--out", str(out / "fit.csv")]) == 1
        assert capsys.readouterr().err == f"isiw: {flags[-2]} {rule}\n"
        assert not out.exists()

    def test_config_refuses_a_plan_over_the_size_bound(self):
        # the largest n's Vecchia plan, checked at parse: 800 * 205^2 > 2^25
        with pytest.raises(ValueError, match="^Vecchia plan at n=800, m=204: 33620000 > 33554432 entries"):
            parse_config("n=100,800\nm=204")
        assert parse_config("n=100,800\nm=203").m == 203

    @pytest.mark.parametrize("command", ["simulate", "intensity", "krige"])
    def test_grid_over_budget_rejected(self, command, dataset_csv, fit_csv, tmp_path, capsys):
        # one cell over fields.EMBED_BUDGET: refused before any grid array exists
        inputs = {
            "simulate": [],
            "intensity": ["--points", str(dataset_csv)],
            "krige": ["--data", str(dataset_csv), "--fit", str(fit_csv)],
        }
        out = tmp_path / "out"
        argv = [command, "--nx", "1449", "--ny", "1449", *inputs[command], *output_flags(command, out)]
        assert exit_code(argv) == 1
        assert capsys.readouterr().err == "isiw: grid of 1449x1449 cells exceeds the budget of 2097152 cells\n"
        assert not out.exists()

    def test_simulate_grid_without_an_embedding_rejected(self, tmp_path, capsys):
        # 1000x1000 cells fit GridSpec, but no torus around them fits EMBED_BUDGET
        out = tmp_path / "out"
        assert exit_code(["simulate", "--nx", "1000", *output_flags("simulate", out)]) == 1
        assert capsys.readouterr().err == (
            "isiw: no circulant embedding of the 1000x1000 grid can fit: its smallest torus, 2000x2000, "
            "has 4000000 entries, over the budget of 2097152\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, dest, key", [
        *[(command, "nx", "grid_nx") for command in ("simulate", "intensity", "krige")],
        *[(command, "domain", "domain") for command in ("simulate", "intensity", "fit", "krige")],
        *[(command, "nu", "nu") for command in ("simulate", "fit")],
        *[(command, "threshold", "threshold") for command in ("intensity", "fit")],
        ("simulate", "sigma2", "sigma2"),
        ("sample", "beta", "beta"),
        ("sample", "parent_rate", "thomas_parent_rate"),
        ("sample", "offspring_scale", "thomas_offspring_scale"),
        ("fit", "m", "m"),
        *[(command, "seed", "seed") for command in ("simulate", "sample")],
    ])
    def test_default_is_the_config_default(self, command, dest, key):
        required = {
            "sample": ["--field", "f.csv", "--n", "5"],
            "intensity": ["--points", "p.csv"],
            "fit": ["--data", "d.csv"],
            "krige": ["--data", "d.csv", "--fit", "f.csv"],
        }
        args = build_parser().parse_args([command, *required.get(command, [])])
        _read_settings(args, {})  # what a command does with the flags it was not given
        assert getattr(args, dest) == getattr(ExperimentConfig(), key)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an effectively rank-one kriging system (phi >> domain, no nugget)
        rng = np.random.default_rng(5)
        from isiw import Dataset

        data = Dataset(locations=rng.random((30, 2)), values=rng.normal(size=30))
        io.write_dataset_csv(tmp_path / "d.csv", data)
        params = write_params(tmp_path / "fit.csv", mu=0.0, phi=1e9, tau2=0.0)
        code = cli_main([
            "krige", "--data", str(tmp_path / "d.csv"), "--fit", str(params),
            "--nx", "8", "--out", str(tmp_path / "surface.csv"),
        ])
        assert code == 2

    def test_each_subcommand_takes_its_flags(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        assert flags == {
            "simulate": sorted(["--seed", "--domain", "--nu", "--nx", "--ny", "--sigma2", "--phi", "--out"]),
            "sample": sorted(["--seed", "--field", "--sampler", "--n", "--beta", "--parent-rate",
                              "--offspring-scale", "--out"]),
            "intensity": sorted(["--out-dir", "--domain", "--threshold", "--points", "--nx", "--ny",
                                 "--selector", "--bandwidth"]),
            "fit": sorted(["--domain", "--threshold", "--nu", "--data", "--method", "--m", "--cutoff", "--out"]),
            "krige": sorted(["--domain", "--data", "--fit", "--nx", "--ny", "--out"]),
            "experiment": sorted(["--out-dir", "--config"]),
        }
        assert sum(map(len, flags.values())) == 40

    @pytest.mark.parametrize("argv", [
        ["fit", "--out-dir", "x"], ["fit", "--seed", "1"], ["simulate", "--out-dir", "x"],
        ["krige", "--mu", "4"], ["krige", "--nu", "1.5"], ["experiment", "--threads", "2"],
        ["experiment", "--seed", "3"],
    ], ids=["fit-out-dir", "fit-seed", "simulate-out-dir", "krige-mu", "krige-nu", "experiment-threads",
            "experiment-seed"])
    def test_removed_flag_is_unrecognized(self, argv, dataset_csv, fit_csv, tmp_path, capsys):
        # one path per output file; krige's parameters come from the fit CSV
        inputs = {"fit": ["--data", str(dataset_csv)], "krige": ["--data", str(dataset_csv), "--fit", str(fit_csv)]}
        out = tmp_path / "out"
        assert exit_code([argv[0], *inputs.get(argv[0], []), *argv[1:], *output_flags(argv[0], out)]) == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sample", "fit", "krige"])
    def test_out_creates_its_parent_directories(self, command, dataset_csv, field_csv, fit_csv, tmp_path, capsys):
        inputs = {
            "simulate": ["--nx", "8"],
            "sample": ["--field", str(field_csv), "--n", "10"],
            "fit": ["--data", str(dataset_csv)],
            "krige": ["--data", str(dataset_csv), "--fit", str(fit_csv), "--nx", "8"],
        }
        path = tmp_path / "a" / "b" / f"{command}.csv"
        assert cli_main([command, *inputs[command], "--out", str(path)]) == 0
        assert path.is_file()
        assert capsys.readouterr().out.endswith(f" to {path}\n")

    def test_fit_csv_holds_every_fit_result_field(self, dataset_csv, tmp_path):
        assert cli_main(["fit", "--data", str(dataset_csv), "--method", "vecchia",
                         "--out", str(tmp_path / "fit.csv")]) == 0
        row = read_fit(tmp_path / "fit.csv")
        assert ",".join(row) == ("mu,sigma2,phi,tau2,nu,kappa,nll,converged,iterations,evaluations,"
                                 "restarts_used,phi_capped,gradient_norm")
        config, data = ExperimentConfig(), io.read_dataset_csv(dataset_csv)
        res = method_fitter(data, config.domain, nu=config.nu, m=config.m, threshold=config.threshold,
                            pair_cutoff=None)(parse_method("vecchia"), 0)
        expected = {**res.psi_hat.as_dict(), "kappa": microergodic(res.psi_hat.theta)}
        expected.update((f.name, getattr(res, f.name)) for f in dataclasses.fields(FitResult) if f.name != "psi_hat")
        assert set(row) == set(expected)
        for name, value in expected.items():
            if isinstance(value, (bool, np.bool_)):
                assert row[name] == str(bool(value)), name
            elif isinstance(value, (int, np.integer)):
                assert int(row[name]) == value, name
            else:
                assert float(row[name]) == value, name

    def test_krige_reads_the_fit_that_fit_writes(self, dataset_csv, tmp_path):
        # the surface krige writes from the fit CSV is, byte for byte, the
        # one from the fit held in memory
        spec = "isiw-v:CvL.adaptive"
        fit_path, surface = tmp_path / "fit.csv", tmp_path / "surface.csv"
        assert cli_main(["fit", "--data", str(dataset_csv), "--method", spec, "--out", str(fit_path)]) == 0
        assert cli_main(["krige", "--data", str(dataset_csv), "--fit", str(fit_path), "--nx", "12",
                         "--out", str(surface)]) == 0
        config, data = ExperimentConfig(), io.read_dataset_csv(dataset_csv)
        res = method_fitter(data, config.domain, nu=config.nu, m=config.m, threshold=config.threshold,
                            pair_cutoff=None)(parse_method(spec), 0)
        assert io.read_fit_csv(fit_path) == res.psi_hat
        grid = GridSpec(config.domain, 12, 12)
        io.write_surface_csv(tmp_path / "expected.csv", krige(res.psi_hat, data, grid.cell_centers()))
        assert surface.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_krige_takes_nu_from_the_fit_csv(self, dataset_csv, tmp_path):
        params = write_params(tmp_path / "fit.csv", nu=1.5)
        surface = tmp_path / "surface.csv"
        assert cli_main(["krige", "--data", str(dataset_csv), "--fit", str(params), "--nx", "8",
                         "--out", str(surface)]) == 0
        psi = ModelParams.from_values(4.0, 1.0, 0.1, 0.1, nu=1.5)
        grid = GridSpec(ExperimentConfig().domain, 8, 8)
        io.write_surface_csv(tmp_path / "expected.csv", krige(psi, io.read_dataset_csv(dataset_csv), grid.cell_centers()))
        assert surface.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("text, reason", [
        ("mu,sigma2,phi,tau2,nu\n", "0 rows of parameters, not one"),
        ("mu,sigma2,phi,tau2,nu\n4,1,0.1,0.1,1\n4,1,0.2,0.1,1\n", "2 rows of parameters, not one"),
        ("mu,sigma2,phi,tau2\n4,1,0.1,0.1\n", "missing columns ['nu']"),
    ], ids=["no-row", "two-rows", "no-nu"])
    def test_krige_refuses_a_fit_csv_without_one_parameter_row(self, text, reason, dataset_csv, tmp_path, capsys):
        path = tmp_path / "fit.csv"
        path.write_text(text)
        out = tmp_path / "out"
        assert exit_code(["krige", "--data", str(dataset_csv), "--fit", str(path), *output_flags("krige", out)]) == 1
        assert capsys.readouterr().err == f"isiw: {path}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("pattern, argv, boundary", [
        ("uniform", ["--selector", "diggle"], True),
        ("clustered", ["--selector", "diggle"], False),
        ("uniform", ["--selector", "scott"], False),
        ("uniform", ["--bandwidth", "0.1"], False),
    ], ids=["diggle-uniform", "diggle-clustered", "scott", "fixed"])
    def test_intensity_prints_whether_the_selector_hit_its_grid_edge(self, pattern, argv, boundary, tmp_path,
                                                                     capsys):
        # the point sets of test_intensity's test_boundary_flag_mechanism:
        # LSCV runs to the top of its grid on uniform points and stops
        # inside it on five tight clusters; scott and a fixed h search none
        rng = np.random.default_rng(2)
        if pattern == "uniform":
            pts = rng.random((50, 2))
        else:
            centers = rng.uniform(0.2, 0.8, (5, 2))
            pts = np.clip(np.repeat(centers, 10, axis=0) + rng.normal(0, 0.02, (50, 2)), 0, 1)
        io.write_points_csv(tmp_path / "points.csv", pts)
        assert cli_main(["intensity", "--points", str(tmp_path / "points.csv"), *argv, "--nx", "8",
                         "--out-dir", str(tmp_path)]) == 0
        assert f" boundary={boundary} -> " in capsys.readouterr().out


# A setting that the run does not read, set in a config and given to a
# subcommand: (config keys and values, the key, the subcommand and flags
# that give the same setting, or None where no flag gives it).
UNREAD = [
    (dict(samplers=("lgcp",), thomas_parent_rate=30.0), "thomas_parent_rate",
     ["sample", "--sampler", "lgcp", "--parent-rate", "30"]),
    (dict(samplers=("lgcp", "scp"), thomas_offspring_scale=0.2), "thomas_offspring_scale",
     ["sample", "--sampler", "scp", "--offspring-scale", "0.2"]),
    (dict(methods=("mle",), n=(100,), m=5), "m", ["fit", "--method", "mle", "--m", "5"]),
    (dict(methods=("isiw-pm:CvL",), m=5), "m", ["fit", "--method", "isiw-pm:CvL", "--m", "5"]),
    (dict(methods=("mle", "vecchia"), threshold=0.5), "threshold",
     ["fit", "--method", "vecchia", "--threshold", "0.5"]),
    (dict(methods=("mle", "isiw-v:diggle"), pm_cutoff=0.3), "pm_cutoff",
     ["fit", "--method", "isiw-v:diggle", "--cutoff", "0.3"]),
]
UNREAD_IDS = [f"{key}-{'-'.join(str(v) for v in kwargs.get('samplers', kwargs.get('methods')))}"
              for kwargs, key, _ in UNREAD]


def config_text(settings: dict) -> str:
    return "\n".join(f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}" for k, v in settings.items())


class TestUnreadSettings:
    @pytest.mark.parametrize("settings, key, argv", UNREAD, ids=UNREAD_IDS)
    def test_config_refuses_unread_key(self, settings, key, argv):
        for refuse in (lambda: parse_config(config_text(settings)), lambda: ExperimentConfig(**settings)):
            with pytest.raises(ValueError, match=f"^{key} is read only by "):
                refuse()

    @pytest.mark.parametrize("settings, key, argv", [row for row in UNREAD if row[2]],
                             ids=[i for i, row in zip(UNREAD_IDS, UNREAD) if row[2]])
    def test_subcommand_refuses_unread_flag(self, settings, key, argv, dataset_csv, field_csv, tmp_path, capsys):
        inputs = {"fit": ["--data", str(dataset_csv)], "sample": ["--field", str(field_csv), "--n", "10"]}
        out = tmp_path / "out"
        assert exit_code([argv[0], *inputs[argv[0]], *argv[1:], *output_flags(argv[0], out)]) == 1
        assert capsys.readouterr().err.startswith(f"isiw: {argv[-2]} is read only by ")
        assert not out.exists()

    def test_config_refuses_m_for_mle_at_exact_max_n(self):
        # at EXACT_MLE_MAX_N points mle is still exact, as method_fitter's switch has it
        settings = dict(methods=("mle",), n=(EXACT_MLE_MAX_N,), m=5)
        message = f"^m is read only by .* not by mle at n={EXACT_MLE_MAX_N}$"
        for refuse in (lambda: parse_config(config_text(settings)), lambda: ExperimentConfig(**settings)):
            with pytest.raises(ValueError, match=message):
                refuse()

    def test_config_refuses_unread_key_at_its_default(self):
        # only a file can set a key to its default; the built config cannot tell
        text = "samplers=lgcp,scp\nthomas_offspring_scale=0.1"
        message = "thomas_offspring_scale is read only by the thomas sampler, not by lgcp, scp"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(text)
        assert ExperimentConfig(samplers=("lgcp", "scp"), thomas_offspring_scale=0.1).thomas_offspring_scale == 0.1

    @pytest.mark.parametrize("settings", [
        dict(samplers=("thomas",), methods=("mle",), beta=2.0),
        dict(samplers=("lgcp", "thomas"), methods=("mle",), thomas_parent_rate=30.0),
        dict(methods=("mle",), n=(100, 300), m=5),
        dict(methods=("mle",), n=(EXACT_MLE_MAX_N + 1,), m=5),
        dict(methods=("isiw-pm:CvL",), threshold=0.5, pm_cutoff=0.3),
    ], ids=["beta-thomas", "lgcp-thomas", "m-mle-above-max-n", "m-mle-just-above-max-n", "isiw-pm"])
    def test_read_settings_accepted(self, settings):
        config = parse_config(config_text(settings))
        assert config == ExperimentConfig(**settings)
        assert parse_config(format_config(config)) == config

    def test_format_writes_only_read_keys(self):
        keys = {line.split("=")[0] for line in format_config(ExperimentConfig()).splitlines()}
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} - keys == {
            "thomas_parent_rate", "thomas_offspring_scale", "pm_cutoff"}

    @pytest.mark.parametrize("argv", [
        ["sample", "--sampler", "thomas", "--beta", "2", "--parent-rate", "40", "--offspring-scale", "0.05"],
        ["sample", "--sampler", "lgcp", "--beta", "2"],
        ["sample", "--sampler", "scp", "--beta", "2"],
    ], ids=["thomas", "lgcp", "scp"])
    def test_sample_takes_flags_its_sampler_reads(self, argv, field_csv, tmp_path):
        assert cli_main([*argv, "--field", str(field_csv), "--n", "10", "--out", str(tmp_path / "points.csv")]) == 0
        assert len(io.read_points_csv(tmp_path / "points.csv")) == 10

    def test_sample_has_no_alpha_flag(self, field_csv, tmp_path, capsys):
        # conditioned on n, the lgcp intercept cancels from the sampling
        # probabilities, so no flag sets it
        out = tmp_path / "out"
        argv = ["sample", "--field", str(field_csv), "--n", "10", "--alpha", "1", "--out", str(out / "points.csv")]
        assert exit_code(argv) == 1
        assert "unrecognized arguments: --alpha 1" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_takes_m_for_mle_above_exact_max_n(self, tmp_path):
        io.write_dataset_csv(tmp_path / "data.csv", random_dataset(EXACT_MLE_MAX_N + 1))
        argv = ["fit", "--data", str(tmp_path / "data.csv"), "--method", "mle"]
        assert cli_main([*argv, "--m", "5", "--out", str(tmp_path / "m5.csv")]) == 0
        assert cli_main([*argv, "--out", str(tmp_path / "m20.csv")]) == 0
        # the Vecchia plan read --m: 5 conditioning points is not the default 20
        assert (tmp_path / "m5.csv").read_text() != (tmp_path / "m20.csv").read_text()
        # above the switch, mle is the unweighted Vecchia fit
        assert cli_main(["fit", "--data", str(tmp_path / "data.csv"), "--method", "vecchia",
                         "--out", str(tmp_path / "vecchia.csv")]) == 0
        assert (tmp_path / "m20.csv").read_bytes() == (tmp_path / "vecchia.csv").read_bytes()
