import math

import numpy as np
import pytest

from isiw import (
    CovParams,
    Dataset,
    Domain,
    FitConfig,
    GridSpec,
    ModelParams,
    NllValue,
    Objective,
    Profile,
    SeedStream,
    default_init,
    exact_nll,
    fit,
    maxmin_order,
    microergodic,
    nn_conditioning_sets,
    observe,
    simulate_field,
)
from isiw._linalg import blas_threads, cholesky_lower
from isiw.inference import RESTARTS
from oracles import build_cov_matrix, fd_gradient

UNIT = Domain(0.0, 1.0, 0.0, 1.0)
TRUTH = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)


def simulate_dataset(n, seed, psi=TRUTH):
    """Exact draw from the observation model at uniform (NPS) locations."""
    rng = np.random.default_rng(seed)
    locs = rng.random((n, 2))
    cov = build_cov_matrix(locs, psi.theta, psi.tau2)
    y = psi.mu + cholesky_lower(cov) @ rng.standard_normal(n)
    return Dataset(locations=locs, values=y)


def no_nugget_dataset():
    """100 observations without a nugget of a field drawn on the 48 x 48
    grid, at distinct cell centres, so they are an exact Matérn draw. Its
    likelihood peaks on the boundary tau2 = 0, as it does for about half of
    such draws (Self and Liang 1987)."""
    grid = GridSpec(UNIT, 48, 48)
    fld = simulate_field(grid, CovParams(1.5, 0.05, 1.0), SeedStream(0))
    centres = grid.cell_centers()[np.random.default_rng(0).choice(grid.ncells, 100, replace=False)]
    return observe(fld, centres, 4.0, 0.0, SeedStream(100))


class TestDefaultInit:
    def test_degenerate_values_floor(self):
        data = Dataset(locations=np.random.default_rng(0).random((4, 2)), values=np.zeros(4))
        init = default_init(data, UNIT)
        assert init.mu == 0.0
        assert init.theta.sigma2 == 1e-6

    def test_hand_example(self):
        s = math.sqrt(0.8)
        data = Dataset(
            locations=np.array([[0.2, 0.2], [0.8, 0.8]]), values=np.array([4 - s, 4 + s])
        )
        init = default_init(data, UNIT)  # sample variance is exactly 1.6
        assert init.mu == pytest.approx(4.0)
        assert init.theta.sigma2 == pytest.approx(1.44, rel=1e-12)
        assert init.theta.phi == pytest.approx(math.sqrt(2) / 10, rel=1e-12)
        assert init.tau2 == pytest.approx(0.16, rel=1e-12)

    def test_always_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            data = Dataset(locations=rng.random((n, 2)), values=rng.normal(0, 3, n))
            init = default_init(data, UNIT)
            assert init.theta.sigma2 > 0 and init.theta.phi > 0 and init.tau2 >= 0


class TestFdGradient:
    def test_quadratic_is_exact(self):
        g = fd_gradient(lambda x: float(x @ x), np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(g, [2.0, -4.0, 1.0], rtol=1e-9)

    def test_richardson_agreement_on_nll(self):
        data = simulate_dataset(30, 5)
        rng = np.random.default_rng(6)

        def f(x):
            psi = ModelParams.from_values(x[0], math.exp(x[1]), math.exp(x[2]), math.exp(x[3]))
            return exact_nll(psi, data)

        for _ in range(5):
            x = np.array([rng.normal(4, 1), rng.normal(0, 0.5), rng.normal(-2, 0.5), rng.normal(-2.3, 0.5)])
            g = fd_gradient(f, x, 1e-5)
            g_half = fd_gradient(f, x, 5e-6)
            refined = (4 * g_half - g) / 3
            np.testing.assert_allclose(g, refined, rtol=1e-3, atol=1e-8)


class TestFit:
    def test_gls_mean_oracle(self):
        # the exact objective's profile mu at the true covariance is the
        # generalized-least-squares mean
        data = simulate_dataset(60, 7)
        cov = build_cov_matrix(data.locations, TRUTH.theta, TRUTH.tau2)
        ones = np.ones(60)
        w = np.linalg.solve(cov, ones)
        gls = float(w @ data.values / (w @ ones))
        assert exact_nll(TRUTH, data).profile.mu == pytest.approx(gls, rel=1e-10)

    def test_stationary_start_converges_immediately(self):
        data = simulate_dataset(50, 8)
        first = fit(Objective(kind="exact"), data, default_init(data, UNIT), FitConfig(domain=UNIT))
        again = fit(Objective(kind="exact"), data, first.psi_hat, FitConfig(domain=UNIT))
        assert again.converged
        assert again.iterations <= 3
        moved = np.array(
            [
                again.psi_hat.mu - first.psi_hat.mu,
                again.psi_hat.theta.sigma2 - first.psi_hat.theta.sigma2,
                again.psi_hat.theta.phi - first.psi_hat.theta.phi,
                again.psi_hat.tau2 - first.psi_hat.tau2,
            ]
        )
        assert np.max(np.abs(moved)) < 1e-4

    def test_monotone_improvement_and_positivity(self):
        data = simulate_dataset(40, 9)
        init = default_init(data, UNIT)
        obj = Objective(kind="exact")
        res = fit(obj, data, init, FitConfig(domain=UNIT))
        assert res.nll <= obj.nll(init, data)
        assert res.psi_hat.theta.sigma2 > 0
        assert res.psi_hat.theta.phi > 0
        assert res.psi_hat.tau2 > 0

    def test_deterministic(self):
        data = simulate_dataset(35, 10)
        init = default_init(data, UNIT)
        a = fit(Objective(kind="exact"), data, init, FitConfig(domain=UNIT))
        b = fit(Objective(kind="exact"), data, init, FitConfig(domain=UNIT))
        assert a.psi_hat == b.psi_hat
        assert a.nll == b.nll
        assert a.iterations == b.iterations

    def test_shift_invariance(self):
        data = simulate_dataset(60, 11)
        shifted = Dataset(locations=data.locations, values=data.values + 2.5)
        cfg = FitConfig(domain=UNIT)
        a = fit(Objective(kind="exact"), data, default_init(data, UNIT), cfg)
        b = fit(Objective(kind="exact"), shifted, default_init(shifted, UNIT), cfg)
        assert b.psi_hat.mu - a.psi_hat.mu == pytest.approx(2.5, abs=1e-4)
        assert b.psi_hat.theta.sigma2 == pytest.approx(a.psi_hat.theta.sigma2, abs=1e-4)
        assert b.psi_hat.theta.phi == pytest.approx(a.psi_hat.theta.phi, abs=1e-4)
        assert b.psi_hat.tau2 == pytest.approx(a.psi_hat.tau2, abs=1e-4)

    def test_no_nugget_data_fit_to_zero_nugget_exactly(self):
        data = no_nugget_dataset()
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), 20)
        for objective in (Objective(kind="exact"), Objective(kind="vecchia", plan=plan)):
            counting = Counting(objective)
            res = fit(counting, data, default_init(data, UNIT), FitConfig(domain=UNIT))
            assert res.psi_hat.tau2 == 0.0, objective.kind
            assert res.converged and res.restarts_used == 0
            # the point it ends on was evaluated at no nugget, not at a floor
            assert 0.0 in counting.tau2s
            # the bound is the optimum: the profile rises into eta > 0
            assert objective.nll(res.psi_hat, data).profile.grad[1] > 0

    def test_phi_cap_recorded(self):
        # a linear trend reads as an ever-longer range; the cap must bind
        # and be flagged
        rng = np.random.default_rng(12)
        locs = rng.random((20, 2))
        data = Dataset(locations=locs, values=4.0 + locs[:, 0] + 0.001 * rng.random(20))
        init = ModelParams.from_values(4.0, 1e-6, 50.0, 1e-7)
        res = fit(Objective(kind="exact"), data, init, FitConfig(domain=UNIT))
        assert res.psi_hat.theta.phi <= 10 * UNIT.diameter * (1 + 1e-9)
        assert res.phi_capped

    def test_objective_must_be_finite_at_init(self):
        data = simulate_dataset(10, 13)
        bad_init = ModelParams.from_values(1e300, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError, match="finite"):
            fit(Objective(kind="exact"), data, bad_init, FitConfig(domain=UNIT))

    @pytest.mark.slow
    def test_microergodic_recovery(self):
        # fixed-domain theory: kappa = sigma2/phi^(2 nu) is the estimable
        # functional; at n=400 the exact fit should land within a factor
        # of 2 of the truth in at least 80% of replicates
        kappa_true = microergodic(TRUTH.theta)
        hits = 0
        for rep in range(20):
            data = simulate_dataset(400, 100 + rep)
            res = fit(Objective(kind="exact"), data, default_init(data, UNIT), FitConfig(domain=UNIT))
            ratio = microergodic(res.psi_hat.theta) / kappa_true
            hits += 0.5 <= ratio <= 2.0
        assert hits >= 16


def panel_objective(kind, data, seed):
    w = np.random.default_rng(seed).uniform(0.5, 1.5, data.n)
    plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), 10)
    return {
        "exact": Objective(kind="exact"),
        "vecchia": Objective(kind="vecchia", plan=plan),
        "vecchia-w": Objective(kind="vecchia", plan=plan, weights=w),
        "pairwise": Objective(kind="pairwise-marginal"),
        "pairwise-w-cut": Objective(kind="pairwise-marginal", weights=w, pair_cutoff=0.3),
    }[kind]


# (objective, n, seed, final NLL of the central-difference BFGS fit that
# L-BFGS-B with closed-form gradients replaced, from default_init with
# FitConfig(domain=UNIT))
FD_BFGS_PANEL = [
    ("exact", 80, 301, 102.1965619707271),
    ("exact", 80, 302, 84.03543683039345),
    ("exact", 80, 303, 104.16874024962621),
    ("vecchia", 150, 301, 170.9572195568773),
    ("vecchia", 150, 302, 152.15288769060624),
    ("vecchia", 150, 303, 153.26682752720035),
    ("vecchia-w", 150, 301, 172.4156074592084),
    ("vecchia-w", 150, 302, 154.51585376158732),
    ("vecchia-w", 150, 303, 152.43544895517837),
    ("pairwise", 60, 301, 6410.446890607531),
    ("pairwise", 60, 302, 5382.871003933144),
    ("pairwise", 60, 303, 6114.5682210439845),
    ("pairwise-w-cut", 80, 301, 1969.2096270503237),
    ("pairwise-w-cut", 80, 302, 1791.9437549629245),
    ("pairwise-w-cut", 80, 303, 2631.224871217856),
]


class WalledQuadratic:
    """0.5 |x - centre|^2 over the search coordinates x = (log phi, eta),
    with value +inf wherever eta exceeds ``wall``. Its profile keeps psi's
    mu and sigma2."""

    def __init__(self, wall, centre):
        self.wall = wall
        self.centre = np.asarray(centre, dtype=float)

    def nll(self, psi, data):
        x = np.array([math.log(psi.theta.phi), eta(psi)])
        value, grad = 0.5 * (x - self.centre) @ (x - self.centre), x - self.centre
        if x[1] > self.wall:
            value, grad = math.inf, np.full(2, math.nan)
        profile = Profile(psi.mu, psi.theta.sigma2, value, grad)
        return NllValue(value, profile)


def eta(psi):
    return psi.tau2 / psi.theta.sigma2


# eta starts at e^-3, below every wall
WALL_START = ModelParams.from_values(0.0, 1.0, 0.2, math.exp(-3.0))


class TestOptimizer:
    @pytest.mark.parametrize("kind,n,seed,fd_bfgs_nll", FD_BFGS_PANEL)
    def test_no_worse_than_fd_bfgs(self, kind, n, seed, fd_bfgs_nll):
        data = simulate_dataset(n, seed)
        res = fit(panel_objective(kind, data, seed), data, default_init(data, UNIT), FitConfig(domain=UNIT))
        assert res.converged
        assert res.nll <= fd_bfgs_nll + 1e-8 * abs(fd_bfgs_nll)

    @pytest.mark.parametrize("log_wall,log_centre", [(1.0, 2.0), (0.0, 5.0), (3.0, 3.5), (-2.5, 0.0)])
    def test_nonfinite_wall_never_converges_off_stationary(self, log_wall, log_centre):
        # the minimum lies beyond the wall, so no reachable point is stationary
        data = simulate_dataset(5, 14)
        objective = WalledQuadratic(math.exp(log_wall), [-1.0, math.exp(log_centre)])
        res = fit(objective, data, WALL_START, FitConfig(domain=UNIT))
        assert not res.converged
        assert eta(res.psi_hat) <= math.exp(log_wall)

    def test_nonfinite_wall_with_interior_minimum_converges(self):
        data = simulate_dataset(5, 15)
        objective = WalledQuadratic(math.e, [-1.0, 2.5])
        res = fit(objective, data, WALL_START, FitConfig(domain=UNIT))
        assert res.converged
        assert eta(res.psi_hat) == pytest.approx(2.5, abs=1e-6)

    def test_minimum_below_zero_ends_on_the_bound(self):
        # eta = 0 is a true bound: the fit lands on it, reports tau2 = 0
        # exactly and converges, rather than continuing below it
        data = simulate_dataset(5, 15)
        objective = Counting(WalledQuadratic(math.e, [-1.0, -0.5]))
        res = fit(objective, data, WALL_START, FitConfig(domain=UNIT))
        assert res.converged and res.restarts_used == 0
        assert res.psi_hat.tau2 == 0.0
        assert res.evaluations <= 10

    def test_start_on_the_bound_leaves_it(self):
        # a search from eta = 0 has no upper face in eta to stop on
        data = simulate_dataset(5, 15)
        start = ModelParams.from_values(0.0, 1.0, 0.2, 0.0)
        res = fit(WalledQuadratic(math.e, [-1.0, 2.5]), data, start, FitConfig(domain=UNIT))
        assert res.converged
        assert eta(res.psi_hat) == pytest.approx(2.5, abs=1e-6)

    def test_value_without_gradient_rejected(self):
        class PlainFloat:
            def nll(self, psi, data):
                return float(exact_nll(psi, data))

        data = simulate_dataset(10, 16)
        with pytest.raises(TypeError, match="gradient"):
            fit(PlainFloat(), data, default_init(data, UNIT), FitConfig(domain=UNIT))


class Counting:
    """Wraps an objective, counts its ``nll`` calls and records the tau2 of
    each."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.tau2s = []

    def nll(self, psi, data):
        self.calls += 1
        self.tau2s.append(psi.tau2)
        return self.inner.nll(psi, data)


class TestEvaluations:
    def test_counts_every_objective_call(self):
        data = simulate_dataset(40, 17)
        objective = Counting(Objective(kind="exact"))
        res = fit(objective, data, default_init(data, UNIT), FitConfig(domain=UNIT))
        assert res.restarts_used == 0
        assert res.evaluations == objective.calls > 0

    def test_sums_over_restarts(self):
        # the minimum lies beyond the wall, so every attempt runs
        data = simulate_dataset(5, 18)
        objective = Counting(WalledQuadratic(math.e, [-1.0, math.exp(2.0)]))
        res = fit(objective, data, WALL_START, FitConfig(domain=UNIT))
        assert res.restarts_used == RESTARTS
        assert res.evaluations == objective.calls


class TestBlasThreads:
    def test_objective_runs_on_one_thread(self, caller_blas_counts):
        seen = []

        class Recording:
            def nll(self, psi, data):
                seen.append(blas_threads())
                return exact_nll(psi, data)

        data = simulate_dataset(30, 19)
        fit(Recording(), data, default_init(data, UNIT), FitConfig(domain=UNIT))
        assert seen and all(counts == {path: 1 for path in caller_blas_counts} for counts in seen)
        assert blas_threads() == caller_blas_counts

    def test_counts_restored_when_fit_raises(self, caller_blas_counts):
        class PlainFloat:
            def nll(self, psi, data):
                return float(exact_nll(psi, data))

        data = simulate_dataset(10, 16)
        with pytest.raises(TypeError, match="gradient"):
            fit(PlainFloat(), data, default_init(data, UNIT), FitConfig(domain=UNIT))
        assert blas_threads() == caller_blas_counts
