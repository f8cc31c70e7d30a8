import dataclasses
import tracemalloc

import numpy as np
import pytest

from isiw import (
    CovParams,
    Domain,
    FieldRealization,
    GridSpec,
    SeedStream,
    matern_cov,
    observe,
    simulate_field,
)
from isiw.fields import EMBED_BUDGET, _embedding_root, check_embeddable, embedding_root

UNIT = Domain(0.0, 1.0, 0.0, 1.0)
THETA = CovParams(1.5, 0.15, 1.0)


class TestSeedStream:
    def test_same_key_same_sequence(self):
        a = SeedStream(42, (1, 2)).generator().random(10)
        b = SeedStream(42, (1, 2)).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = SeedStream(42, (1,)).generator().random(10)
        b = SeedStream(42, (2,)).generator().random(10)
        assert not np.array_equal(a, b)

    def test_child_extends_key(self):
        assert SeedStream(7).child(3, 4).key == (3, 4)
        assert SeedStream(7, (1,)).child(2).key == (1, 2)

    def test_negative_root_rejected(self):
        # numpy's SeedSequence would refuse it later without naming the seed
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SeedStream(-1)


def implied_grid_covariance_error(spec, theta):
    """Largest gap, over the offsets within the grid, between the covariance
    the cached embedding implies (the inverse transform of its eigenvalues)
    and the Matérn of the offset distances, in units of sigma2."""
    implied = np.fft.fft2(_embedding_root(spec, theta) ** 2)[: spec.ny, : spec.nx]
    hx = np.arange(spec.nx) * spec.dx
    hy = np.arange(spec.ny) * spec.dy
    direct = matern_cov(np.hypot(hx[None, :], hy[:, None]), theta)
    return np.max(np.abs(implied - direct)) / theta.sigma2


def full_torus_root(spec, theta):
    """:func:`embedding_root` as it evaluated the Matérn at every one of the
    M torus offsets, the reference of the folded evaluation."""
    mx, my = 2 * spec.nx, 2 * spec.ny
    while True:
        hx = np.minimum(np.arange(mx), mx - np.arange(mx)) * spec.dx
        hy = np.minimum(np.arange(my), my - np.arange(my)) * spec.dy
        lam = np.fft.fft2(matern_cov(np.hypot(hx[None, :], hy[:, None]), theta)).real
        if np.maximum(-lam, 0.0).sum() / lam.size <= 1e-12 * theta.sigma2:
            return np.sqrt(np.maximum(lam, 0.0) / lam.size)
        mx, my = 2 * mx, 2 * my


class TestGridSpec:
    def test_axis_centers_lay_out_cell_centers(self):
        grid = GridSpec(Domain(-1.0, 2.0, 0.5, 1.5), 3, 4)
        xs, ys = grid.axis_centers()
        np.testing.assert_array_equal(xs, [-0.5, 0.5, 1.5])
        np.testing.assert_array_equal(grid.cell_centers()[:, 0], np.tile(xs, 4))
        np.testing.assert_array_equal(grid.cell_centers()[:, 1], np.repeat(ys, 3))

    def test_cell_centers_layout(self):
        grid = GridSpec(UNIT, 2, 2)
        np.testing.assert_allclose(
            grid.cell_centers(),
            [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]],
        )

    def test_locate_containing_cell(self):
        grid = GridSpec(UNIT, 4, 4)
        idx = grid.locate(np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [1.0, 1.0]]))
        np.testing.assert_array_equal(idx, [0, 3, 12, 15])

    def test_locate_rejects_outside(self):
        grid = GridSpec(UNIT, 4, 4)
        with pytest.raises(ValueError):
            grid.locate(np.array([[1.5, 0.5]]))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(UNIT, 1, 4)

    def test_more_cells_than_the_budget_rejected(self):
        assert GridSpec(UNIT, 1448, 1448).ncells <= EMBED_BUDGET < 1449 * 1449
        assert GridSpec(UNIT, 2, EMBED_BUDGET // 2).ncells == EMBED_BUDGET
        for nx, ny in [(1449, 1449), (2, EMBED_BUDGET // 2 + 1)]:
            with pytest.raises(ValueError, match=f"grid of {nx}x{ny} cells exceeds the budget of {EMBED_BUDGET}"):
                GridSpec(UNIT, nx, ny)

    def test_grid_whose_smallest_torus_is_over_the_budget_rejected(self):
        check_embeddable(GridSpec(UNIT, 724, 724))  # a 1448x1448 torus fits
        with pytest.raises(ValueError, match=f"smallest torus, 1450x1448, has 2099600 entries, over the budget "
                                             f"of {EMBED_BUDGET}$"):
            embedding_root(GridSpec(UNIT, 725, 724), THETA)


class TestFieldRealization:
    def test_values_are_a_read_only_copy(self):
        values = np.arange(4.0)
        fld = FieldRealization(grid=GridSpec(UNIT, 2, 2), values=values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.values = np.zeros(4)
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            fld.values[0] = 1.0
        values[0] = 5.0
        assert fld.values[0] == 0.0


class TestSimulateField:
    def test_degenerate_variance_gives_zero_field(self):
        grid = GridSpec(UNIT, 8, 8)
        fld = simulate_field(grid, CovParams(1e-12, 0.15, 1.0), SeedStream(1))
        assert np.max(np.abs(fld.values)) < 1e-5

    @pytest.mark.parametrize(
        "spec, theta",
        [
            (GridSpec(UNIT, 48, 48), THETA),
            (GridSpec(Domain(-0.7, 1.9, -2.2, -0.4), 29, 17), CovParams(0.8, 0.4, 1.7)),
        ],
    )
    def test_implied_covariance_equals_matern(self, spec, theta):
        assert implied_grid_covariance_error(spec, theta) <= 1e-12

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.7, 2.5])
    @pytest.mark.parametrize("phi", [0.02, 0.15, 0.3])
    @pytest.mark.parametrize("spec", [
        GridSpec(UNIT, 48, 48), GridSpec(UNIT, 10, 10), GridSpec(Domain(0.0, 1.0, 0.0, 1.5), 24, 40),
    ], ids=["48x48", "10x10", "24x40"])
    def test_folded_embedding_and_one_noise_array_keep_the_bits(self, spec, phi, nu):
        theta = CovParams(1.5, phi, nu)
        root = embedding_root(spec, theta)
        assert root.tobytes() == full_torus_root(spec, theta).tobytes()
        seed = SeedStream(5, (2,))
        z = seed.generator().standard_normal((2,) + root.shape)
        draw = np.fft.fft2(root * (z[0] + 1j * z[1]))[: spec.ny, : spec.nx].real.ravel()
        assert simulate_field(spec, theta, seed).values.tobytes() == draw.tobytes()

    def test_first_draw_memory_peak(self):
        _embedding_root.cache_clear()
        tracemalloc.start()
        try:
            simulate_field(GridSpec(UNIT, 48, 48), THETA, SeedStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_cached_factor_read_only(self):
        grid = GridSpec(UNIT, 12, 12)
        before = simulate_field(grid, THETA, SeedStream(9, (5,))).values
        root = _embedding_root(grid, THETA)
        with pytest.raises(ValueError, match="read-only"):
            root[0, 0] = 0.0
        np.testing.assert_array_equal(simulate_field(grid, THETA, SeedStream(9, (5,))).values, before)

    def test_bit_identical_replay(self):
        grid = GridSpec(UNIT, 12, 12)
        a = simulate_field(grid, THETA, SeedStream(9, (4,)))
        b = simulate_field(grid, THETA, SeedStream(9, (4,)))
        np.testing.assert_array_equal(a.values, b.values)

    def test_cell_budget_enforced(self):
        # a grid whose embedding fits the budget simulates
        assert simulate_field(GridSpec(UNIT, 80, 80), THETA, SeedStream(0)).values.shape == (6400,)
        # a range three times the domain needs an embedding past the budget
        with pytest.raises(ValueError, match=r"48x48 grid .* phi=3\.0, nu=1\.0"):
            simulate_field(GridSpec(UNIT, 48, 48), CovParams(1.5, 3.0, 1.0), SeedStream(0))

    def test_marginal_variance_48x48(self):
        # per-cell sample variance over 500 draws should sit within 15% of
        # sigma2 for at least 95% of cells
        grid = GridSpec(UNIT, 48, 48)
        root = SeedStream(2024)
        draws = np.stack([simulate_field(grid, THETA, root.child(i)).values for i in range(500)])
        var = draws.var(axis=0, ddof=1)
        frac_ok = np.mean(np.abs(var - 1.5) <= 0.15 * 1.5)
        assert frac_ok >= 0.95

    def test_spatial_correlation_matches_model(self):
        # empirical correlation at lags of 1, 2, 4 cell widths vs the model
        grid = GridSpec(UNIT, 20, 20)
        root = SeedStream(77)
        draws = np.stack([simulate_field(grid, THETA, root.child(i)).values for i in range(500)])
        draws = draws.reshape(500, 20, 20)
        width = grid.dx
        for lag in (1, 2, 4):
            a = draws[:, :, :-lag].ravel()
            b = draws[:, :, lag:].ravel()
            emp = np.corrcoef(a, b)[0, 1]
            model = matern_cov(lag * width, THETA) / THETA.sigma2
            assert abs(emp - model) < 0.1, (lag, emp, model)

    def test_streams_are_uncorrelated(self):
        # low-range field so cells are nearly independent within one draw
        grid = GridSpec(UNIT, 16, 16)
        theta = CovParams(1.5, 0.02, 1.0)
        root = SeedStream(5150)
        fields = [simulate_field(grid, theta, root.child(i)).values for i in range(200)]
        center = np.array([f[128] for f in fields])
        rho_serial = np.corrcoef(center[:-1], center[1:])[0, 1]
        assert abs(rho_serial) < 0.1
        rho_cells = np.corrcoef(fields[0], fields[199])[0, 1]
        assert abs(rho_cells) < 0.1


class TestObserve:
    def setup_method(self):
        self.grid = GridSpec(UNIT, 16, 16)
        self.fld = simulate_field(self.grid, THETA, SeedStream(31))
        rng = np.random.default_rng(8)
        self.locs = rng.random((40, 2))

    def test_noiseless_identity(self):
        data = observe(self.fld, self.locs, mu=0.0, tau2=0.0, seed=SeedStream(31, (1,)))
        np.testing.assert_array_equal(data.values, self.fld.at(self.locs))

    def test_noiseless_with_mean(self):
        data = observe(self.fld, self.locs, mu=4.0, tau2=0.0, seed=SeedStream(31, (1,)))
        np.testing.assert_allclose(data.values - self.fld.at(self.locs), 4.0)

    def test_mean_recovery_clt(self):
        # pooled mean of Y - S over replicates stays within the single-
        # replicate 3-sigma band 3*sqrt(tau2/n)
        rng = np.random.default_rng(12)
        locs = rng.random((800, 2))
        diffs = []
        for rep in range(10):
            data = observe(self.fld, locs, mu=4.0, tau2=0.1, seed=SeedStream(99, (rep,)))
            diffs.append(np.mean(data.values - self.fld.at(locs)))
        assert abs(np.mean(diffs) - 4.0) < 3.0 * np.sqrt(0.1 / 800)

    def test_deterministic(self):
        a = observe(self.fld, self.locs, 4.0, 0.1, SeedStream(1, (2,)))
        b = observe(self.fld, self.locs, 4.0, 0.1, SeedStream(1, (2,)))
        np.testing.assert_array_equal(a.values, b.values)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            observe(self.fld, np.array([[2.0, 0.5]]), 0.0, 0.0, SeedStream(0))

    @pytest.mark.parametrize("tau2", [-0.1, np.inf, np.nan])
    def test_bad_nugget_rejected(self, tau2):
        with pytest.raises(ValueError, match=f"nugget must be nonnegative and finite, got {tau2}"):
            observe(self.fld, self.locs, 0.0, tau2, SeedStream(0))
