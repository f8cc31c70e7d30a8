import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from isiw import (
    CovParams,
    Dataset,
    Domain,
    FitConfig,
    GridSpec,
    ModelParams,
    Objective,
    SeedStream,
    default_init,
    fit,
    krige,
    matern_cov,
    maxmin_order,
    nn_conditioning_sets,
    observe,
    rmspe,
    simulate_field,
)
from isiw._linalg import TARGET_BLOCK, NotPositiveDefiniteError, blas_threads, cholesky_lower
from oracles import build_cov_matrix
from test_inference import no_nugget_dataset

UNIT = Domain(0.0, 1.0, 0.0, 1.0)
PSI = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)


def random_dataset(n, seed, psi=PSI):
    rng = np.random.default_rng(seed)
    locs = rng.random((n, 2))
    cov = build_cov_matrix(locs, psi.theta, psi.tau2)
    y = psi.mu + cholesky_lower(cov) @ rng.standard_normal(n)
    return Dataset(locations=locs, values=y)


class TestKrigeProperties:
    def test_interpolates_noiseless_data(self):
        psi = ModelParams.from_values(4.0, 1.5, 0.15, 0.0)
        data = random_dataset(100, 1, psi)
        out = krige(psi, data, data.locations)
        np.testing.assert_allclose(out.predictions, data.values, atol=1e-8)
        assert np.all(out.variances < 1e-8)

    def test_interpolates_at_a_fitted_zero_nugget(self):
        data = no_nugget_dataset()
        psi = fit(Objective(kind="exact"), data, default_init(data, UNIT), FitConfig(domain=UNIT)).psi_hat
        assert psi.tau2 == 0.0
        out = krige(psi, data, data.locations)
        np.testing.assert_allclose(out.predictions, data.values, rtol=0, atol=1e-10)
        np.testing.assert_allclose(out.variances, 0.0, rtol=0, atol=1e-10)

    def test_prior_reversion_far_away(self):
        psi = ModelParams.from_values(4.0, 1.5, 0.01, 0.1)
        rng = np.random.default_rng(2)
        locs = rng.random((50, 2)) * 0.1  # data in a small corner
        data = Dataset(locations=locs, values=psi.mu + rng.normal(0, 1, 50))
        out = krige(psi, data, np.array([[0.95, 0.95]]))  # >> 10 phi away
        assert out.predictions[0] == pytest.approx(psi.mu, abs=1e-6)
        assert out.variances[0] == pytest.approx(psi.theta.sigma2, abs=1e-6)

    def test_single_point_hand_formula(self):
        psi = ModelParams.from_values(0.0, 1.0, 0.3, 0.0)
        y = 1.7
        data = Dataset(locations=np.array([[0.5, 0.5]]), values=np.array([y]))
        h = 0.2
        out = krige(psi, data, np.array([[0.5 + h, 0.5]]))
        c = matern_cov(h, psi.theta)
        assert out.predictions[0] == pytest.approx(c * y, rel=1e-12)
        assert out.variances[0] == pytest.approx(1 - c * c, rel=1e-12)

    def test_linear_in_observations(self):
        rng = np.random.default_rng(3)
        locs = rng.random((40, 2))
        y1, y2 = rng.normal(0, 1, 40), rng.normal(0, 1, 40)
        a, b = 0.7, -1.3
        targets = rng.random((15, 2))
        psi = ModelParams.from_values(0.0, 1.5, 0.15, 0.1)
        p1 = krige(psi, Dataset(locations=locs, values=y1), targets).predictions
        p2 = krige(psi, Dataset(locations=locs, values=y2), targets).predictions
        combo = krige(psi, Dataset(locations=locs, values=a * y1 + b * y2), targets).predictions
        np.testing.assert_allclose(combo, a * p1 + b * p2, atol=1e-9)

    def test_variance_independent_of_values(self):
        rng = np.random.default_rng(4)
        locs = rng.random((30, 2))
        targets = rng.random((10, 2))
        v1 = krige(PSI, Dataset(locations=locs, values=rng.normal(0, 1, 30)), targets).variances
        v2 = krige(PSI, Dataset(locations=locs, values=rng.normal(5, 9, 30)), targets).variances
        np.testing.assert_array_equal(v1, v2)

    def test_permutation_invariance(self):
        data = random_dataset(30, 5)
        perm = np.random.default_rng(6).permutation(30)
        shuffled = Dataset(locations=data.locations[perm], values=data.values[perm])
        targets = np.random.default_rng(7).random((12, 2))
        a = krige(PSI, data, targets)
        b = krige(PSI, shuffled, targets)
        np.testing.assert_allclose(a.predictions, b.predictions, atol=1e-10)
        np.testing.assert_allclose(a.variances, b.variances, atol=1e-10)

    def test_variance_bounded_by_sigma2(self):
        data = random_dataset(60, 8)
        targets = np.random.default_rng(9).random((200, 2))
        out = krige(PSI, data, targets)
        assert np.all(out.variances >= 0)
        assert np.all(out.variances <= PSI.theta.sigma2 + 1e-8)


class TestLazyVariances:
    def test_matches_eager_reference(self):
        # v = L^-1 c0 against every target at once, as krige once computed
        data = random_dataset(80, 10)
        targets = np.random.default_rng(11).random((300, 2))
        out = krige(PSI, data, targets)
        chol = cholesky_lower(build_cov_matrix(data.locations, PSI.theta, PSI.tau2))
        cross = matern_cov(cdist(data.locations, targets), PSI.theta)
        v = solve_triangular(chol, cross, lower=True)
        z = solve_triangular(chol, data.values - PSI.mu, lower=True)
        np.testing.assert_allclose(out.predictions, PSI.mu + v.T @ z, rtol=1e-12)
        assert "variances" not in vars(out)  # not computed until read
        np.testing.assert_allclose(out.variances, PSI.theta.sigma2 - np.sum(v * v, axis=0), rtol=1e-12)
        assert out.variances is out.variances


class TestKrigingOutput:
    def test_frozen_with_read_only_arrays(self):
        data = random_dataset(10, 9)
        targets = np.array([[0.2, 0.3], [0.7, 0.1]])
        out = krige(PSI, data, targets)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.predictions = np.zeros(2)
        for name in ("targets", "predictions", "chol", "locations", "variances"):
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                getattr(out, name)[0] = 0.0
        targets[:] = 0.0
        assert out.targets[0, 0] == 0.2

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.5, 0.8])
    @pytest.mark.parametrize("tau2", [0.0, 0.1])
    def test_factors_the_oracles_observation_covariance(self, nu, tau2):
        # kriging factors the exact likelihood's Sigma + tau2 I, built one way
        psi = ModelParams.from_values(4.0, 1.5, 0.15, tau2, nu=nu)
        data = random_dataset(60, 17)
        out = krige(psi, data, np.array([[0.5, 0.5]]))
        assert np.array_equal(out.chol, cholesky_lower(build_cov_matrix(data.locations, psi.theta, psi.tau2)))
        assert out.locations is data.locations


class TestTargetBlocks:
    @pytest.mark.parametrize(
        "ntargets", [1, TARGET_BLOCK - 1, TARGET_BLOCK, TARGET_BLOCK + 1, 2 * TARGET_BLOCK + 3, 2304]
    )
    def test_predictions_equal_unblocked(self, ntargets):
        # the whole n x T cross-covariance at once, as krige once computed it
        data = random_dataset(120, 14)
        targets = np.random.default_rng(15).random((ntargets, 2))
        chol = cholesky_lower(build_cov_matrix(data.locations, PSI.theta, PSI.tau2))
        alpha = cho_solve((chol, True), data.values - PSI.mu, check_finite=False)
        cross = matern_cov(cdist(data.locations, targets), PSI.theta)
        assert np.array_equal(krige(PSI, data, targets).predictions, PSI.mu + cross.T @ alpha)

    def test_memory_bounded_by_blocks(self):
        # n = 400 onto 48 x 48: the whole cross-covariance alone is 7.4 MB
        data = random_dataset(400, 16)
        targets = GridSpec(UNIT, 48, 48).cell_centers()
        krige(PSI, data, targets)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            krige(PSI, data, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBlasThreads:
    def test_counts_restored(self, caller_blas_counts):
        data = random_dataset(50, 12)
        out = krige(PSI, data, np.random.default_rng(13).random((40, 2)))
        assert blas_threads() == caller_blas_counts
        out.variances
        assert blas_threads() == caller_blas_counts

    def test_counts_restored_when_factor_fails(self, caller_blas_counts):
        # two points 1e-9 apart without a nugget: the covariance is singular
        # to double precision
        psi = ModelParams.from_values(0.0, 1.0, 0.5, 0.0)
        locs = np.array([[0.2, 0.2], [0.2 + 1e-9, 0.2], [0.6, 0.7]])
        with pytest.raises(NotPositiveDefiniteError, match="kriging system"):
            krige(psi, Dataset(locations=locs, values=np.zeros(3)), np.array([[0.5, 0.5]]))
        assert blas_threads() == caller_blas_counts


class TestPluginConsistency:
    def test_true_vs_fitted_parameters_similar_rmspe(self):
        # non-preferential n=800 sample: kriging with fitted parameters
        # scores within 5% of kriging with the truth
        grid = GridSpec(UNIT, 48, 48)
        fld = simulate_field(grid, PSI.theta, SeedStream(123))
        rng = np.random.default_rng(124)
        locs = rng.random((800, 2))
        data = observe(fld, locs, PSI.mu, PSI.tau2, SeedStream(125))
        truth_surface = PSI.mu + fld.values

        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), 20)
        res = fit(Objective(kind="vecchia", plan=plan), data, default_init(data, UNIT), FitConfig(domain=UNIT))
        r_true = rmspe(krige(PSI, data, grid.cell_centers()).predictions, truth_surface)
        r_fit = rmspe(krige(res.psi_hat, data, grid.cell_centers()).predictions, truth_surface)
        assert abs(r_fit - r_true) / r_true < 0.05
