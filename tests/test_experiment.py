import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isiw
from isiw import (
    Domain,
    ModelParams,
    Scenario,
    param_metrics,
    parse_config,
    rmspe,
    run_experiment,
    run_replicate,
)
from isiw._linalg import blas_threads
from isiw.experiment import (
    ExperimentConfig,
    _average_ranks,
    _worker_pool,
    build_objective,
    estimated_weights,
    format_config,
    parse_method,
    summarize,
    vecchia_plan,
)
from isiw import Dataset, FitConfig, default_init, fit, io
from isiw.cli import main as cli_main


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
        # scenario passed to run_replicate directly still reaches the row guard
        config = tiny_config(methods=("mle", "isiw-v:known"), thomas_parent_rate=150.0)
        sc = Scenario(kind="thomas", n=40, phi=0.15)
        rows = run_replicate(config, sc, 0)
        by_method = {r.method: r for r in rows}
        assert math.isnan(by_method["isiw-v"].rmspe)
        assert by_method["isiw-v"].error is not None
        assert math.isfinite(by_method["mle"].rmspe)

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

    def test_wall_time_populated_when_timing(self):
        config = tiny_config(timing=True)
        rows = run_replicate(config, config.scenarios()[0], 0)
        assert all(r.seconds > 0 for r in rows)

    def test_scenario_labels(self):
        sc = Scenario(kind="lgcp", n=100, phi=0.15)
        assert sc.label == "lgcp-n100-phi0.15"
        assert Scenario(kind="scp", n=800, phi=0.02).label == "scp-n800-phi0.02"


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
        (tmp_path / "config.txt").write_text(format_config(tiny_config(**overrides)))
        for threads in (1, 2):
            run_cli_fresh(
                "experiment", "--config", str(tmp_path / "config.txt"), "--threads", str(threads),
                "--out-dir", str(tmp_path / f"threads{threads}"),
            )
        csv = lambda run: (tmp_path / run / "results.csv").read_bytes()
        assert csv("threads1") == csv("threads2")

    def test_pool_workers_run_single_threaded_blas(self):
        parent = blas_threads()
        if not parent:
            pytest.skip("this numpy/scipy build loads no OpenBLAS with a thread getter")
        with _worker_pool(2) as pool:
            workers = [pool.submit(blas_threads).result() for _ in range(4)]
        assert all(counts == {path: 1 for path in parent} for counts in workers)
        assert blas_threads() == parent  # the calling process is never pinned

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


def test_simulate_field_independent_of_blas_threads(tmp_path):
    for threads in ("1", "2"):
        run_cli_fresh(
            "simulate", "--seed", "3", "--out-dir", str(tmp_path), "--out", f"field{threads}.csv",
            OPENBLAS_NUM_THREADS=threads,
        )
    assert (tmp_path / "field1.csv").read_bytes() == (tmp_path / "field2.csv").read_bytes()


@pytest.mark.parametrize("seed", range(6))
def test_average_ranks_equal_rankdata(seed):
    from scipy.stats import rankdata

    rng = np.random.default_rng(seed)
    values = rng.choice([0.3, 0.7, 1.1, 2.0, 5.5], size=rng.integers(1, 15))  # with ties
    assert np.array_equal(_average_ranks(values), rankdata(values))
    distinct = rng.random(9)
    assert np.array_equal(_average_ranks(distinct), rankdata(distinct))


class TestConfigFormat:
    def test_round_trip(self):
        config = tiny_config(pm_cutoff=0.3, samplers=("lgcp", "scp"))
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
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("no_such_key=1")

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
    ], ids=["float", "int-list", "domain", "empty-int"])
    def test_bad_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="at least one method"):
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

    @pytest.mark.parametrize("text,message", [
        ("phi=0.15,-1", "phi must be positive, got -1.0"),
        ("phi=0", "phi must be positive, got 0.0"),
        ("n=100,0", "n must be >= 1, got 0"),
        ("m=0", "m must be >= 1, got 0"),
        ("threshold=-1", "threshold must be nonnegative, got -1.0"),
        ("grid_nx=1", "grid_nx, grid_ny: grid needs at least 2 cells per axis, got 1x48"),
        ("grid_ny=0", "grid_nx, grid_ny: grid needs at least 2 cells per axis, got 48x0"),
    ], ids=["negative-phi", "zero-phi", "zero-n", "zero-m", "negative-threshold", "one-column",
            "no-rows"])
    def test_run_sinking_value_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)

    @pytest.mark.parametrize("key", ["samplers", "n", "phi"])
    def test_empty_scenario_list_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must list at least one value"):
            ExperimentConfig(**{key: ()})


class TestMethodVocabulary:
    def test_parse_method(self):
        assert parse_method("mle") == ("mle", "")
        assert parse_method("isiw-pm:CvL.adaptive") == ("isiw-pm", "CvL.adaptive")
        for entry, message in [("isiw-v", "weight source"), ("vecchia:scott", "no weight source"),
                               ("exact", "unknown method")]:
            with pytest.raises(ValueError, match=message):
                parse_method(entry)

    @pytest.mark.parametrize("n,kind", [(ExperimentConfig.exact_mle_max_n, "exact"),
                                        (ExperimentConfig.exact_mle_max_n + 1, "vecchia")])
    def test_mle_switches_to_vecchia_above_exact_max_n(self, n, kind):
        rng = np.random.default_rng(2)
        data = Dataset(locations=rng.random((n, 2)), values=rng.normal(size=n))
        objective = build_objective(
            parse_method("mle"), data, plan=lambda: vecchia_plan(data, 5), weights=None,
            exact_mle_max_n=ExperimentConfig.exact_mle_max_n, pair_cutoff=None,
        )
        assert objective.kind == kind and objective.weights is None


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


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    from isiw import CovParams, GridSpec, SeedStream, simulate_field

    fld = simulate_field(GridSpec(Domain(0, 1, 0, 1), 16, 16), CovParams(1.5, 0.15, 1.0), SeedStream(8))
    rng = np.random.default_rng(8)
    locs = rng.random((80, 2))
    path = tmp_path_factory.mktemp("fit") / "data.csv"
    io.write_dataset_csv(path, Dataset(locations=locs, values=4.0 + fld.at(locs) + 0.3 * rng.normal(size=80)))
    return path


class TestCli:
    def test_pipeline(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main(["simulate", "--nx", "12", "--seed", "3", "--out-dir", out]) == 0
        assert cli_main([
            "sample", "--field", f"{out}/field.csv", "--sampler", "lgcp",
            "--n", "60", "--seed", "4", "--out-dir", out,
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
            "--m", "10", "--out-dir", out, "--out", "fit.txt",
        ]) == 0
        report = dict(
            line.split("=", 1) for line in Path(out, "fit.txt").read_text().splitlines()
        )
        assert float(report["sigma2"]) > 0
        assert cli_main([
            "krige", "--data", f"{out}/data.csv", "--mu", report["mu"],
            "--sigma2", report["sigma2"], "--phi", report["phi"],
            "--tau2", report["tau2"], "--nx", "12", "--out-dir", out,
        ]) == 0
        surface = io.read_surface_csv(f"{out}/surface.csv")
        assert surface.shape == (144, 4)
        assert np.all(surface[:, 3] >= 0)

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
        assert cli_main([
            "fit", "--data", str(dataset_csv), "--method", spec, "--seed", "11",
            "--out-dir", str(tmp_path), "--out", "fit.txt",
        ]) == 0
        report = dict(line.split("=", 1) for line in (tmp_path / "fit.txt").read_text().splitlines())

        config = ExperimentConfig()
        data = io.read_dataset_csv(dataset_csv)
        objective = build_objective(
            parse_method(spec), data,
            plan=lambda: vecchia_plan(data, config.m),
            weights=lambda src: estimated_weights(src, data.locations, config.domain, config.threshold),
            exact_mle_max_n=config.exact_mle_max_n, pair_cutoff=config.pm_cutoff,
        )
        res = fit(objective, data, default_init(data, config.domain, nu=config.nu),
                  FitConfig(domain=config.domain, restart_seed=11))
        expected = {**res.psi_hat.as_dict(), "nll": res.nll}
        for name in ("mu", "sigma2", "phi", "tau2", "nll"):
            assert float(report[name]) == expected[name], name

    @pytest.mark.parametrize("args,named", [
        (["fit", "--method", "isiw-v"], "isiw-v"),
        (["fit", "--method", "isiw-v:known"], "known"),
        (["fit", "--method", "exact"], "exact"),
        (["fit", "--weights", "diggle"], "--weights"),
        (["fit", "--bandwidth", "0.1"], "--bandwidth"),
        (["fit", "--method", "vecchia", "--cutoff", "0.2"], "--cutoff"),
        (["simulate", "--method", "mle"], "--method"),
        (["experiment", "--m", "3"], "--m"),
        (["experiment", "--threads", "0"], "threads"),
        (["intensity", "--selector", "diggle", "--bandwidth", "0.1"], "--bandwidth"),
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
        assert exit_code([*args, *inputs.get(args[0], []), "--out-dir", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_threads_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "replicates=1\ngrid_nx=8\ngrid_ny=8\nphi=0.15\nn=20\n"
            "methods=mle\nseed=2\ntiming=off\nthreads=2\n"
        )
        out = tmp_path / "results"
        assert cli_main(["experiment", "--config", str(cfg), "--threads", "1", "--out-dir", str(out)]) == 0
        assert "threads=1" in (out / "run_metadata.txt").read_text().splitlines()

    def test_usage_error_exit_code(self):
        assert cli_main(["fit", "--data", "/nonexistent.csv"]) == 1
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit"])  # missing required --data
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli_main(["no-such-command"])
        assert exc.value.code == 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an effectively rank-one kriging system (phi >> domain, no nugget)
        rng = np.random.default_rng(5)
        from isiw import Dataset

        data = Dataset(locations=rng.random((30, 2)), values=rng.normal(size=30))
        io.write_dataset_csv(tmp_path / "d.csv", data)
        code = cli_main([
            "krige", "--data", str(tmp_path / "d.csv"), "--mu", "0",
            "--sigma2", "1.0", "--phi", "1e9", "--tau2", "0",
            "--nx", "8", "--out-dir", str(tmp_path),
        ])
        assert code == 2
