"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -v -s`` or in captured output).

The replicated-comparison criteria share two full experiment runs executed
once per session with timing disabled (wall-clock is the one
nondeterministic output field; disabling it makes the byte-level
reproducibility check meaningful).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from isiw import (
    CovParams,
    Dataset,
    Domain,
    FitConfig,
    ModelParams,
    Objective,
    exact_nll,
    krige,
    matern_cov,
    maxmin_order,
    microergodic,
    nn_conditioning_sets,
    pairwise_marginal_nll,
    run_experiment,
    vecchia_nll,
    weights_from_intensity,
)
from isiw._linalg import cholesky_lower
from isiw.experiment import ExperimentConfig
from oracles import build_cov_matrix, fd_gradient, gaussian_kl, vecchia_implied_cov
from test_model import BESSEL_TABLE_NU1

UNIT = Domain(0.0, 1.0, 0.0, 1.0)
ACCEPTANCE_SEED = 7
LOG_2PI = math.log(2.0 * math.pi)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_dataset(rng, n, scale=1.0):
    return Dataset(locations=rng.random((n, 2)) * scale, values=rng.normal(4.0, 1.2, n))


def random_psi(rng):
    return ModelParams.from_values(
        rng.normal(0, 2), rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.5)
    )


# ---------------------------------------------------------------------------
# shared experiment runs (criteria 7, 9, 10)
# ---------------------------------------------------------------------------

def _headline_config():
    return ExperimentConfig(
        replicates=50,
        grid_nx=48,
        grid_ny=48,
        mu=4.0,
        sigma2=1.5,
        nu=1.0,
        tau2=0.1,
        phi=(0.02, 0.15),
        samplers=("lgcp",),
        beta=1.0,
        n=(100,),
        methods=("mle", "isiw-v:known", "isiw-v:diggle", "isiw-v:CvL.adaptive"),
        threshold=1e-2,
        m=20,
        seed=ACCEPTANCE_SEED,
        threads=2,
        timing=False,
    )


@pytest.fixture(scope="session")
def headline_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("headline")
    started = time.perf_counter()
    rows_a, _ = run_experiment(_headline_config(), base / "run_a")
    rows_b, _ = run_experiment(_headline_config(), base / "run_b")
    elapsed = time.perf_counter() - started
    print(f"\n[headline experiment] 2 runs x 100 replicate cells in {elapsed:.0f}s")
    return {"rows": rows_a, "dir_a": base / "run_a", "dir_b": base / "run_b"}


def _mean_rmspe(rows, scenario, method, variant=""):
    vals = [r.rmspe for r in rows if r.scenario == scenario and r.method == method and r.variant == variant]
    assert vals and all(math.isfinite(v) for v in vals)
    return float(np.mean(vals)), vals


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_covariance():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(500):
        h = rng.uniform(0.0, 5.0)
        sigma2 = rng.uniform(0.1, 4.0)
        phi = rng.uniform(0.02, 2.0)
        s_half = h / phi
        want_half = sigma2 * math.exp(-s_half)
        got_half = matern_cov(h, CovParams(sigma2, phi, 0.5))
        assert abs(got_half - want_half) < 1e-12 * max(1.0, sigma2)
        s32 = math.sqrt(3) * h / phi
        want_32 = sigma2 * (1 + s32) * math.exp(-s32)
        got_32 = matern_cov(h, CovParams(sigma2, phi, 1.5))
        assert abs(got_32 - want_32) < 1e-12 * max(1.0, sigma2)
        checked += 1
    worst = 0.0
    for h, sigma2, phi, expected in BESSEL_TABLE_NU1:
        got = matern_cov(h, CovParams(sigma2, phi, 1.0))
        worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - started
    report(
        1,
        checked == 500 and worst < 1e-10 and elapsed < 1.0,
        f"500 closed-form combos at 1e-12, Bessel table worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_likelihood_equivalences():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_vecchia = worst_pm = 0.0
    for trial in range(20):
        data = random_dataset(rng, 50)
        psi = random_psi(rng)
        order = maxmin_order(data.locations)
        full_plan = nn_conditioning_sets(data.locations, order, m=49)
        worst_vecchia = max(
            worst_vecchia, abs(vecchia_nll(psi, data, full_plan) - exact_nll(psi, data))
        )

        plan = nn_conditioning_sets(data.locations, order, m=10)
        ones = np.ones(50)
        assert vecchia_nll(psi, data, plan, ones) == vecchia_nll(psi, data, plan)
        assert pairwise_marginal_nll(psi, data, ones) == pairwise_marginal_nll(psi, data)

        w = rng.uniform(0.2, 2.0, 50)
        v = psi.theta.sigma2 + psi.tau2
        total = 0.0
        for i in range(50):
            for j in range(i + 1, 50):
                c = matern_cov(
                    float(np.linalg.norm(data.locations[i] - data.locations[j])), psi.theta
                )
                det = v * v - c * c
                a, b = data.values[i] - psi.mu, data.values[j] - psi.mu
                ll = -LOG_2PI - 0.5 * math.log(det) - 0.5 * (v * (a * a + b * b) - 2 * c * a * b) / det
                total -= w[i] * w[j] * ll
        worst_pm = max(worst_pm, abs(pairwise_marginal_nll(psi, data, w) - total))
    elapsed = time.perf_counter() - started
    report(
        2,
        worst_vecchia < 1e-8 and worst_pm < 1e-10,
        f"max |vecchia(m=n-1) - exact| {worst_vecchia:.2e}, max |pm - oracle| {worst_pm:.2e}, "
        f"unit-weight reductions exact, {elapsed:.1f}s",
    )


def test_criterion_03_kl_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_violation = 0.0
    worst_final = 0.0
    for trial in range(20):
        locs = rng.random((30, 2))
        psi = random_psi(rng)
        truth = build_cov_matrix(locs, psi.theta, psi.tau2)
        order = maxmin_order(locs)
        kls = []
        for m in (1, 2, 3, 5, 10, 15, 29):
            plan = nn_conditioning_sets(locs, order, m)
            kls.append(gaussian_kl(truth, vecchia_implied_cov(psi, plan)))
        for a, b in zip(kls, kls[1:]):
            worst_violation = max(worst_violation, b - a)
        worst_final = max(worst_final, abs(kls[-1]))
    elapsed = time.perf_counter() - started
    report(
        3,
        worst_violation <= 1e-10 and worst_final < 1e-10,
        f"worst monotonicity violation {worst_violation:.2e}, |KL(m=29)| max {worst_final:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_gradient_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 40)
    plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=10)
    objectives = {
        "exact": Objective(kind="exact"),
        "vecchia": Objective(kind="vecchia", plan=plan),
        "pairwise": Objective(kind="pairwise-marginal"),
    }
    worst = 0.0
    for name, obj in objectives.items():
        def f(x, obj=obj):
            psi = ModelParams.from_values(x[0], math.exp(x[1]), math.exp(x[2]), math.exp(x[3]))
            return obj.nll(psi, data)

        for _ in range(50):
            x = np.array(
                [
                    rng.normal(4, 1),
                    rng.normal(0.3, 0.4),
                    rng.normal(-2.0, 0.4),
                    rng.normal(-2.3, 0.4),
                ]
            )
            g = fd_gradient(f, x, 1e-5)
            refined = (4 * fd_gradient(f, x, 5e-6) - g) / 3
            rel = np.linalg.norm(g - refined) / max(np.linalg.norm(g), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(
        4,
        worst < 1e-3,
        f"worst Richardson disagreement {worst:.2e} over 3 objectives x 50 points, {elapsed:.1f}s",
    )


def test_criterion_05_kriging_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_interp = 0.0
    worst_var = 0.0
    worst_revert = 0.0
    psi0 = ModelParams.from_values(4.0, 1.5, 0.15, 0.0)
    for trial in range(5):
        locs = rng.random((100, 2))
        cov = build_cov_matrix(locs, psi0.theta, 0.0)
        y = psi0.mu + cholesky_lower(cov) @ rng.standard_normal(100)
        data = Dataset(locations=locs, values=y)
        out = krige(psi0, data, locs)
        worst_interp = max(worst_interp, float(np.max(np.abs(out.predictions - y))))
        worst_var = max(worst_var, float(np.max(out.variances)))

        psi_short = ModelParams.from_values(4.0, 1.5, 0.01, 0.1)
        corner = Dataset(locations=locs * 0.1, values=y)
        far = krige(psi_short, corner, np.array([[0.95, 0.95]]))
        worst_revert = max(
            worst_revert,
            abs(far.predictions[0] - 4.0),
            abs(far.variances[0] - 1.5),
        )

        v1 = krige(psi_short, Dataset(locations=locs, values=rng.normal(size=100)), locs * 0.5).variances
        v2 = krige(psi_short, Dataset(locations=locs, values=rng.normal(5, 3, 100)), locs * 0.5).variances
        assert np.array_equal(v1, v2)
    elapsed = time.perf_counter() - started
    report(
        5,
        worst_interp < 1e-8 and worst_var < 1e-8 and worst_revert < 1e-6,
        f"interpolation err {worst_interp:.2e}, interp var {worst_var:.2e}, "
        f"reversion err {worst_revert:.2e}, variance Y-independence bitwise, {elapsed:.1f}s",
    )


def test_criterion_06_weight_pipeline():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        lam = rng.lognormal(0.0, rng.uniform(0.1, 3.0), n)
        threshold = float(rng.choice([0.0, 1e-3, 1e-2, 0.1, 0.5]))
        w = weights_from_intensity(lam, threshold)
        worst_sum = max(worst_sum, abs(w.sum() - n))
    mono_ok = True
    for _ in range(200):
        lam = rng.lognormal(0.0, 2.0, 25)
        maxima = [weights_from_intensity(lam, t).max() for t in (0.0, 1e-3, 1e-2, 0.1, 0.5)]
        mono_ok &= all(a >= b - 1e-12 for a, b in zip(maxima, maxima[1:]))
    worked = weights_from_intensity(np.array([2.99, 0.005, 0.005]), 0.01)
    worked_err = float(np.max(np.abs(worked - np.array([0.00501, 1.49749, 1.49749]))))
    elapsed = time.perf_counter() - started
    report(
        6,
        worst_sum < 1e-9 and mono_ok and worked_err < 1e-4 and elapsed < 5.0,
        f"worst |sum - n| {worst_sum:.2e}, threshold monotonicity holds, "
        f"worked example err {worked_err:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_07_preferential_headline(headline_runs):
    rows = headline_runs["rows"]
    mle_hi, _ = _mean_rmspe(rows, "lgcp-n100-phi0.15", "mle")
    known_hi, _ = _mean_rmspe(rows, "lgcp-n100-phi0.15", "isiw-v", "known")
    margin = (mle_hi - known_hi) / mle_hi
    mle_lo, _ = _mean_rmspe(rows, "lgcp-n100-phi0.02", "mle")
    known_lo, _ = _mean_rmspe(rows, "lgcp-n100-phi0.02", "isiw-v", "known")
    report(
        7,
        margin >= 0.05 and known_lo < mle_lo,
        f"phi=0.15: known {known_hi:.4f} vs mle {mle_hi:.4f} (margin {margin:.1%}, need >=5%); "
        f"phi=0.02: known {known_lo:.4f} < mle {mle_lo:.4f}",
    )


@pytest.mark.slow
def test_criterion_08_no_preferential_sampling_control(tmp_path):
    started = time.perf_counter()
    config = ExperimentConfig(
        replicates=30,
        grid_nx=48,
        grid_ny=48,
        phi=(0.15,),
        samplers=("lgcp",),
        beta=0.0,
        n=(100,),
        methods=("mle", "isiw-v:known"),
        seed=ACCEPTANCE_SEED,
        threads=2,
        timing=False,
    )
    rows, _ = run_experiment(config, tmp_path)
    mle, _ = _mean_rmspe(rows, "lgcp-n100-phi0.15", "mle")
    known, _ = _mean_rmspe(rows, "lgcp-n100-phi0.15", "isiw-v", "known")
    gap = abs(known - mle) / mle
    elapsed = time.perf_counter() - started
    report(
        8,
        gap < 0.05,
        f"beta=0: known {known:.4f} vs mle {mle:.4f}, relative gap {gap:.2%} (< 5%), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_09_estimated_weight_variants(headline_runs):
    rows = headline_runs["rows"]
    scenario = "lgcp-n100-phi0.15"
    mle = {r.replicate: r.rmspe for r in rows if r.scenario == scenario and r.method == "mle"}
    rates = {}
    for variant in ("diggle", "CvL.adaptive"):
        v = {
            r.replicate: r.rmspe
            for r in rows
            if r.scenario == scenario and r.method == "isiw-v" and r.variant == variant
        }
        rates[variant] = float(np.mean([v[k] < mle[k] for k in mle]))
    report(
        9,
        all(rate >= 0.60 for rate in rates.values()),
        "win rates vs exact fit: "
        + ", ".join(f"{k} {v:.0%}" for k, v in rates.items())
        + " (need >= 60%)",
    )


@pytest.mark.slow
def test_criterion_10_byte_level_determinism(headline_runs):
    a = Path(headline_runs["dir_a"], "results.csv").read_bytes()
    b = Path(headline_runs["dir_b"], "results.csv").read_bytes()
    report(
        10,
        a == b,
        f"rerun of the headline experiment reproduced results.csv byte-for-byte ({len(a)} bytes)",
    )
