import numpy as np
import pytest
from scipy.stats import chi2

from isiw import (
    CovParams,
    Domain,
    FieldRealization,
    GridSpec,
    SamplerSpec,
    SeedStream,
    compute_intensity,
    sample_conditioned,
    sample_pattern,
    sample_thomas,
    simulate_field,
)
from isiw.pointprocess import POISSON_MEAN_MAX, BroodSizeError, IntensityOverflowError, SampleSizeError

UNIT = Domain(0.0, 1.0, 0.0, 1.0)


def constant_field(grid: GridSpec, value: float = 0.0) -> FieldRealization:
    return FieldRealization(grid=grid, values=np.full(grid.ncells, value))


class TestComputeIntensity:
    def test_lgcp_flat_field(self):
        grid = GridSpec(UNIT, 4, 4)
        spec = SamplerSpec(kind="lgcp", n=10, beta=1.0, alpha=0.0)
        lam = compute_intensity("lgcp", constant_field(grid), spec)
        np.testing.assert_allclose(lam, 1.0)

    def test_scp_flat_field_is_half(self):
        grid = GridSpec(UNIT, 4, 4)
        spec = SamplerSpec(kind="scp", n=10, beta=1.0)
        lam = compute_intensity("scp", constant_field(grid), spec)
        np.testing.assert_allclose(lam, 0.5)

    def test_lgcp_log2_cell_doubles(self):
        grid = GridSpec(UNIT, 2, 2)
        values = np.array([0.0, np.log(2.0), 0.0, 0.0])
        fld = FieldRealization(grid=grid, values=values)
        lam = compute_intensity("lgcp", fld, SamplerSpec(kind="lgcp", n=10, beta=1.0))
        assert lam[0] == pytest.approx(1.0)
        assert lam[1] == pytest.approx(2.0)

    def test_thomas_rejected(self):
        grid = GridSpec(UNIT, 2, 2)
        with pytest.raises(ValueError, match="Thomas"):
            compute_intensity("thomas", constant_field(grid), SamplerSpec(kind="thomas", n=10))

    @pytest.mark.parametrize("kind, spec_kind", [("scp", "lgcp"), ("lgcp", "scp"), ("lgpc", "lgcp")])
    def test_kind_other_than_the_specs_rejected(self, kind, spec_kind):
        # the spec checked its own kind's rules: an lgcp spec may hold the
        # negative beta that scp refuses, and scp read it silently
        spec = SamplerSpec(kind=spec_kind, n=5, beta=-1.0 if spec_kind == "lgcp" else 1.0)
        message = f"sampler kind {kind!r} differs from its spec's kind {spec_kind!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_intensity(kind, constant_field(GridSpec(UNIT, 2, 2)), spec)

    @pytest.mark.parametrize("kind, value, beta", [("lgcp", 4.0, 200.0), ("lgcp", -4.0, 200.0), ("scp", -800.0, 1.0)])
    def test_intensity_outside_double_range_raises(self, kind, value, beta):
        # exp(800) overflows to inf; exp(-800) and 1 / (1 + exp(800)) underflow to 0
        values = np.array([0.0, 0.0, value, 0.0])
        fld = FieldRealization(grid=GridSpec(UNIT, 2, 2), values=values)
        message = f"^{kind} intensity overflows or underflows double precision in 1 of 4 cells"
        with pytest.raises(IntensityOverflowError, match=message):
            compute_intensity(kind, fld, SamplerSpec(kind=kind, n=5, beta=beta))

    def test_intensity_near_the_double_range_kept(self):
        values = np.array([3.5, -3.7, 0.0, 1.0])
        fld = FieldRealization(grid=GridSpec(UNIT, 2, 2), values=values)
        lam = compute_intensity("lgcp", fld, SamplerSpec(kind="lgcp", n=5, beta=200.0))
        assert np.array_equal(lam, np.exp(200.0 * values))


class TestSampleConditioned:
    def test_exact_count_and_inside_domain(self):
        grid = GridSpec(UNIT, 8, 8)
        fld = constant_field(grid)
        pts = sample_conditioned(fld, np.ones(64), 137, SeedStream(3))
        assert pts.shape == (137, 2)
        assert np.all((pts > 0.0) & (pts < 1.0))

    def test_uniform_quadrant_counts(self):
        # each quadrant of a 2x2 grid holds n/4 +- 3 binomial sd points
        grid = GridSpec(UNIT, 2, 2)
        pts = sample_conditioned(constant_field(grid), np.ones(4), 10000, SeedStream(17))
        counts = np.bincount(grid.locate(pts), minlength=4)
        bound = 3 * np.sqrt(10000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) <= bound)

    def test_effectively_single_cell(self):
        # all mass on one cell puts every point there (intensities must stay
        # positive, so the other cells get a vanishing sliver)
        grid = GridSpec(UNIT, 2, 2)
        lam = np.array([1.0, 1e-300, 1e-300, 1e-300])
        pts = sample_conditioned(constant_field(grid), lam, 50, SeedStream(5))
        np.testing.assert_array_equal(grid.locate(pts), np.zeros(50, dtype=int))

    def test_three_to_one_ratio(self):
        # cells with intensity 3 vs 1 -> p = 0.75; count within 3 sigma
        grid = GridSpec(UNIT, 2, 2)
        lam = np.array([3.0, 1.0, 3.0, 1.0])
        pts = sample_conditioned(constant_field(grid), lam, 4000, SeedStream(23))
        counts = np.bincount(grid.locate(pts), minlength=4)
        heavy = counts[0] + counts[2]
        assert abs(heavy - 3000) <= 3 * np.sqrt(4000 * 0.75 * 0.25)

    def test_chi_square_goodness_of_fit(self):
        grid = GridSpec(UNIT, 4, 4)
        rng = np.random.default_rng(2)
        lam = rng.uniform(0.5, 3.0, 16)
        pts = sample_conditioned(constant_field(grid), lam, 5000, SeedStream(29))
        counts = np.bincount(grid.locate(pts), minlength=16)
        expected = 5000 * lam / lam.sum()
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, df=15)

    def test_deterministic(self):
        grid = GridSpec(UNIT, 6, 6)
        lam = np.linspace(0.2, 2.0, 36)
        a = sample_conditioned(constant_field(grid), lam, 80, SeedStream(4, (9,)))
        b = sample_conditioned(constant_field(grid), lam, 80, SeedStream(4, (9,)))
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_intensity_rejected(self):
        grid = GridSpec(UNIT, 2, 2)
        with pytest.raises(ValueError):
            sample_conditioned(constant_field(grid), np.array([1.0, 0.0, 1.0, 1.0]), 5, SeedStream(0))


class TestSampleThomas:
    def test_zero_beta_brood_mean_is_one(self):
        # with beta = 0 the offspring mean exp(beta * S) is exactly 1
        grid = GridSpec(UNIT, 8, 8)
        fld = simulate_field(grid, CovParams(1.5, 0.15, 1.0), SeedStream(1))
        assert np.all(np.exp(0.0 * fld.values) == 1.0)
        spec = SamplerSpec(kind="thomas", n=20, beta=0.0, parent_rate=200.0)
        pts = sample_thomas(fld, spec, SeedStream(2))
        assert pts.shape == (20, 2)

    def test_degenerate_scale_sticks_to_parents(self):
        grid = GridSpec(UNIT, 8, 8)
        fld = constant_field(grid, value=1.0)
        spec = SamplerSpec(kind="thomas", n=30, beta=1.0, parent_rate=100.0, offspring_scale=1e-9)
        pts = sample_thomas(fld, spec, SeedStream(6))
        # every offspring lies within 1e-6 of some other point's parent;
        # parents are recoverable as cluster representatives
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        # each point is either isolated (its own parent) or glued to a
        # sibling at the parent location
        assert np.all((d.min(axis=1) < 1e-6) | (d.min(axis=1) > 1e-3))

    def test_exact_count_and_inside(self):
        grid = GridSpec(UNIT, 8, 8)
        fld = simulate_field(grid, CovParams(1.5, 0.15, 1.0), SeedStream(10))
        spec = SamplerSpec(kind="thomas", n=100, beta=1.0, parent_rate=60.0)
        pts = sample_thomas(fld, spec, SeedStream(11))
        assert pts.shape == (100, 2)
        assert np.all((pts >= 0.0) & (pts <= 1.0))

    @pytest.mark.parametrize("value, message", [
        (50.0, r"brood mean exp\(beta S\) reaches 5.185e\+21, above 9.223e\+18, the largest Poisson mean"),
        (43.0, r"realization of 7.092e\+19 offspring exceeds the budget of 4194304"),  # over int64 max
        (40.0, r"realization of 3.531e\+18 offspring exceeds the budget of 4194304"),
    ], ids=["mean-over-numpys-limit", "total-over-int64", "total-over-budget"])
    def test_brood_too_large_to_draw_or_hold_raises(self, value, message):
        spec = SamplerSpec(kind="thomas", n=5, beta=1.0)
        with pytest.raises(BroodSizeError, match=message):
            sample_thomas(constant_field(GridSpec(UNIT, 8, 8), value), spec, SeedStream(1))

    def test_poisson_mean_max_is_numpys_limit(self):
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_MEAN_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(POISSON_MEAN_MAX, np.inf))

    def test_unreachable_count_raises_sample_size_error(self):
        grid = GridSpec(UNIT, 8, 8)
        spec = SamplerSpec(kind="thomas", n=100, beta=0.0, parent_rate=0.5)
        with pytest.raises(SampleSizeError, match="never reached 100 points"):
            sample_thomas(constant_field(grid), spec, SeedStream(3))

    def test_clustering_shrinks_nn_distance(self):
        # mean nearest-neighbor distance under Thomas sampling is smaller
        # than under constant-intensity sampling of the same size
        grid = GridSpec(UNIT, 16, 16)
        theta = CovParams(1.5, 0.15, 1.0)
        root = SeedStream(314)
        nn_thomas, nn_uniform = [], []
        for rep in range(200):
            fld = simulate_field(grid, theta, root.child(rep, 0))
            spec = SamplerSpec(kind="thomas", n=100, beta=1.0, parent_rate=150.0)
            try:
                pts = sample_thomas(fld, spec, root.child(rep, 1))
            except SampleSizeError:
                continue  # a very low field realization cannot reach n
            unif = sample_conditioned(fld, np.ones(grid.ncells), 100, root.child(rep, 2))
            for coll, pool in ((pts, nn_thomas), (unif, nn_uniform)):
                d = np.linalg.norm(coll[:, None, :] - coll[None, :, :], axis=-1)
                np.fill_diagonal(d, np.inf)
                pool.append(d.min(axis=1).mean())
        assert len(nn_thomas) >= 190
        assert np.mean(nn_thomas) < np.mean(nn_uniform)

    def test_deterministic(self):
        grid = GridSpec(UNIT, 8, 8)
        fld = simulate_field(grid, CovParams(1.5, 0.15, 1.0), SeedStream(21))
        spec = SamplerSpec(kind="thomas", n=50, beta=1.0, parent_rate=60.0)
        a = sample_thomas(fld, spec, SeedStream(22))
        b = sample_thomas(fld, spec, SeedStream(22))
        np.testing.assert_array_equal(a, b)

    def test_retry_budget_exhausted(self):
        grid = GridSpec(UNIT, 4, 4)
        fld = constant_field(grid, value=-3.0)  # brood mean exp(-3), tiny
        spec = SamplerSpec(kind="thomas", n=5000, beta=1.0, parent_rate=1.0)
        with pytest.raises(RuntimeError, match="never reached"):
            sample_thomas(fld, spec, SeedStream(1))


class TestSamplePattern:
    @pytest.mark.parametrize("kind", ["lgcp", "scp", "thomas"])
    def test_draws_what_the_kinds_sampler_draws(self, kind):
        fld = simulate_field(GridSpec(UNIT, 16, 16), CovParams(1.5, 0.15, 1.0), SeedStream(5))
        spec = SamplerSpec(kind=kind, n=40, beta=1.0)
        locs, intensity = sample_pattern(fld, spec, SeedStream(6, (1,)))
        if kind == "thomas":
            expected = sample_thomas(fld, spec, SeedStream(6, (1,)))
            assert intensity is None
        else:
            lam = compute_intensity(kind, fld, spec)
            expected = sample_conditioned(fld, lam, spec.n, SeedStream(6, (1,)))
            assert intensity.tobytes() == lam.tobytes()
        assert locs.tobytes() == expected.tobytes()


class TestSamplerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="strauss", n=10)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="lgcp", n=0)
