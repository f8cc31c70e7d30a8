import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import isiw

from isiw import (
    BandwidthSpec,
    CovParams,
    Domain,
    GridSpec,
    SeedStream,
    compute_intensity,
    estimate_intensity,
    sample_conditioned,
    select_bandwidth,
    simulate_field,
    weights_from_intensity,
)
from isiw._linalg import TARGET_BLOCK, one_blas_thread
from isiw.intensity import (
    _adaptive_bandwidths,
    _edge_mass,
    _exp_in_place,
    _floor_positive,
    _kernel_fits,
    _kernel_sum,
    bandwidth_search_grid,
    cvl_criterion,
    integral_sq,
    lscv_criterion,
    ppl_criterion,
    scott_bandwidth,
)
from isiw.pointprocess import SamplerSpec

UNIT = Domain(0.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# direct (slow) reimplementation of the estimator and criteria, used as an
# independent oracle for the vectorized production path
# ---------------------------------------------------------------------------

def oracle_lambda(x, points, h, domain):
    """lambda_hat(x) with a global bandwidth ``h`` or one per point."""
    total = 0.0
    for s, h in zip(points, np.broadcast_to(h, (len(points),))):
        d2 = (x[0] - s[0]) ** 2 + (x[1] - s[1]) ** 2
        mass_x = _phi((domain.x1 - s[0]) / h) - _phi((domain.x0 - s[0]) / h)
        mass_y = _phi((domain.y1 - s[1]) / h) - _phi((domain.y0 - s[1]) / h)
        total += math.exp(-d2 / (2 * h * h)) / (2 * math.pi * h * h) / (mass_x * mass_y)
    return total


def _phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def oracle_integral_sq(points, domain, h):
    """Integral of lambda^2 over the domain, one scalar pair at a time: per
    axis, the product of two normal densities of scale h centred at u and v
    is a normal density of scale sqrt(2) h in u - v times one of scale
    h / sqrt(2) about (u + v) / 2."""
    def mass(s):
        return (_phi((domain.x1 - s[0]) / h) - _phi((domain.x0 - s[0]) / h)) * (
            _phi((domain.y1 - s[1]) / h) - _phi((domain.y0 - s[1]) / h)
        )

    def axis(u, v, a, b):
        gap = math.exp(-((u - v) ** 2) / (4 * h * h)) / (2 * h * math.sqrt(math.pi))
        mid = (u + v) / 2
        return gap * (_phi((b - mid) * math.sqrt(2) / h) - _phi((a - mid) * math.sqrt(2) / h))

    total = 0.0
    for si in points:
        for sj in points:
            total += (
                axis(si[0], sj[0], domain.x0, domain.x1)
                * axis(si[1], sj[1], domain.y0, domain.y1)
                / (mass(si) * mass(sj))
            )
    return total


def oracle_criteria(points, domain, h):
    n = len(points)
    lam_pts = np.array([oracle_lambda(x, points, h, domain) for x in points])
    loo = np.array(
        [
            oracle_lambda(x, [s for j, s in enumerate(points) if j != i], h, domain)
            for i, x in enumerate(points)
        ]
    )
    # every edge-corrected kernel integrates to 1, so integral lambda = n
    lscv = oracle_integral_sq(points, domain, h) - 2 * loo.sum()
    ppl = np.log(np.maximum(loo, 1e-300)).sum() - n
    cvl = (np.sum(1.0 / lam_pts) - domain.area) ** 2
    return lscv, ppl, cvl


class TestEstimateIntensity:
    def test_far_point_decays(self):
        pts = np.random.default_rng(1).random((30, 2)) * 0.2  # cluster in a corner
        h = 0.02
        grid = GridSpec(UNIT, 10, 10)
        on_grid = estimate_intensity(
            pts, UNIT, BandwidthSpec(h=h), at=grid.cell_centers()
        )
        far_cell = grid.locate(np.array([[0.95, 0.95]]))[0]
        assert on_grid[far_cell] < 1e-6 * on_grid.max()

    def test_single_point_peak_value(self):
        # lone point at the domain center: edge mass ~ 1, peak = 1/(2 pi h^2)
        h = 0.05
        est = estimate_intensity(
            np.array([[0.5, 0.5]]), UNIT, BandwidthSpec(h=h)
        )
        assert est[0] == pytest.approx(1.0 / (2 * math.pi * h * h), rel=1e-6)

    def test_matches_oracle_at_points(self):
        rng = np.random.default_rng(42)
        pts = rng.random((25, 2))
        h = 0.08
        est = estimate_intensity(pts, UNIT, BandwidthSpec(h=h))
        expected = [oracle_lambda(x, pts, h, UNIT) for x in pts]
        np.testing.assert_allclose(est, expected, rtol=1e-10)

    def test_per_point_bandwidths(self):
        rng = np.random.default_rng(3)
        pts = rng.random((10, 2))
        hs = rng.uniform(0.05, 0.2, 10)
        est = estimate_intensity(
            pts, UNIT, BandwidthSpec(h=0.1, per_point_h=hs)
        )
        expected = np.zeros(10)
        for j, s in enumerate(pts):
            for i, x in enumerate(pts):
                expected[i] += oracle_lambda(x, [s], hs[j], UNIT)
        np.testing.assert_allclose(est, expected, rtol=1e-10)

    def test_bandwidth_is_frozen_with_a_private_copy(self):
        hs = np.full(3, 0.1)
        bw = BandwidthSpec(h=0.1, per_point_h=hs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bw.h = 0.2
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            bw.per_point_h[0] = 0.2
        hs[0] = 0.3
        assert bw.per_point_h[0] == 0.1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_per_point_bandwidths_positive_and_finite(self, bad):
        # a NaN or infinite bandwidth would give NaN rows in the estimate;
        # the first bad entry is named
        with pytest.raises(ValueError, match=f"^per-point bandwidth 1 is {re.escape(str(bad))}, not positive"):
            BandwidthSpec(h=0.1, per_point_h=[0.2, bad, np.nan])

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            estimate_intensity(np.empty((0, 2)), UNIT, BandwidthSpec(h=0.1))

    @pytest.mark.parametrize("n,ntargets", [
        (40, 1), (40, TARGET_BLOCK - 1), (40, TARGET_BLOCK), (40, TARGET_BLOCK + 1), (40, TARGET_BLOCK + 3),
        (40, 2 * TARGET_BLOCK + 4), (40, 2304), (257, None), (259, None), (513, None),
    ])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["global-h", "per-point-h"])
    def test_blocks_equal_one_product(self, n, ntargets, adaptive):
        # all targets in one kernel matrix, as estimate_intensity once computed
        # them; None targets the points themselves
        rng = np.random.default_rng(n)
        pts = rng.random((n, 2))
        at = pts if ntargets is None else rng.random((ntargets, 2))
        h = rng.uniform(0.05, 0.2, n) if adaptive else 0.1
        bw = BandwidthSpec(h=0.1, per_point_h=h) if adaptive else BandwidthSpec(h)
        with one_blas_thread():
            whole = _floor_positive(_kernel_sum(cdist(at, pts, "sqeuclidean"), pts, h, UNIT))
            blocked = estimate_intensity(pts, UNIT, bw, at=None if ntargets is None else at)
        assert np.array_equal(blocked, whole)

    def test_largest_grid_holds_no_targets_by_points_array(self):
        # 1448 x 1448, the largest grid GridSpec allows, from 80 points: one
        # whole targets x points array would take 1.34 GB. ru_maxrss is in KB
        script = (
            "import resource, numpy as np\n"
            "from isiw import BandwidthSpec, Domain, GridSpec, estimate_intensity\n"
            "grid = GridSpec(Domain(0, 1, 0, 1), 1448, 1448)\n"
            "pts = np.random.default_rng(0).random((80, 2))\n"
            "est = estimate_intensity(pts, grid.domain, BandwidthSpec(0.1), at=grid.cell_centers())\n"
            "assert est.shape == (1448 * 1448,)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(isiw.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) / 1024 < 500

    def test_unresolved_bandwidth_rejected(self):
        with pytest.raises(TypeError, match="'h'"):
            BandwidthSpec()


def test_exp_in_place_equals_numpy_exp_bit_for_bit():
    x = np.random.default_rng(5).uniform(-2000.0, 0.0, 1_000_000)
    edges = [-np.inf, -746.0, np.nextafter(-746.0, 0.0), -745.1332, -745.13321, -708.5, -1e-300, 0.0, np.nan]
    x = np.concatenate([x, edges])
    want = np.exp(x)
    got = _exp_in_place(x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestEdgeCorrection:
    def test_center_mass_is_one(self):
        mass = _edge_mass(np.array([[0.5, 0.5]]), 0.095, UNIT)[0]
        assert abs(mass - 1.0) < 1e-6

    def test_corner_mass_is_quarter(self):
        mass = _edge_mass(np.array([[0.0, 0.0]]), 0.05, UNIT)[0]
        assert abs(mass - 0.25) < 1e-3


class TestSelectBandwidth:
    def test_scott_hand_value(self):
        rng = np.random.default_rng(5)
        pts = rng.random((100, 2))
        # standardize both axes to sample sd exactly 0.25
        for k in range(2):
            col = pts[:, k]
            pts[:, k] = (col - col.mean()) / col.std(ddof=1) * 0.25 + 0.5
        h = scott_bandwidth(pts)
        assert h == pytest.approx(0.25 * 100 ** (-1 / 6), rel=1e-10)
        assert h == pytest.approx(0.11604, abs=1e-4)

    def test_needs_five_points(self):
        with pytest.raises(ValueError, match="point count for bandwidth selection must be >= 5, got 4"):
            select_bandwidth("scott", np.random.rand(4, 2), UNIT)

    def test_criteria_match_oracle(self):
        # vectorized production criteria vs the direct reimplementation
        rng = np.random.default_rng(9)
        pts = rng.random((60, 2))
        for h in (0.03, 0.1, 0.3):
            hs = np.array([h])
            got_lscv = lscv_criterion(pts, UNIT, hs)[0]
            got_ppl = ppl_criterion(pts, UNIT, hs)[0]
            got_cvl = cvl_criterion(pts, UNIT, hs)[0]
            want_lscv, want_ppl, want_cvl = oracle_criteria(pts, UNIT, h)
            assert got_lscv == pytest.approx(want_lscv, rel=1e-10)
            assert got_ppl == pytest.approx(want_ppl, rel=1e-10)
            assert got_cvl == pytest.approx(want_cvl, rel=1e-8)

    def test_per_point_cvl_matches_oracle(self):
        # the Campbell criterion at the adaptive bandwidths of a Scott pilot
        rng = np.random.default_rng(9)
        pts = rng.random((60, 2)) ** 2
        pilot = np.array([oracle_lambda(x, pts, scott_bandwidth(pts), UNIT) for x in pts])
        for h0 in (0.03, 0.1, 0.3):
            per_h = _adaptive_bandwidths(pilot, h0)
            lam = np.array([oracle_lambda(x, pts, per_h, UNIT) for x in pts])
            want = (np.sum(1.0 / lam) - UNIT.area) ** 2
            assert cvl_criterion(pts, UNIT, [per_h])[0] == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n", [100, 300])  # one and two target blocks
    def test_selectors_score_the_estimate_the_weights_use(self, n):
        # the fits that the pilot (Scott's h) and the Campbell criterion read
        # are estimate_intensity's values bit for bit, at a global h and at
        # CvL.adaptive's per-point bandwidths
        pts = np.random.default_rng(n).random((n, 2)) ** 2
        with one_blas_thread():
            for bw in (select_bandwidth("scott", pts, UNIT), select_bandwidth("CvL.adaptive", pts, UNIT)):
                h = bw.h if bw.per_point_h is None else bw.per_point_h
                est = estimate_intensity(pts, UNIT, bw)
                assert est.min() > 1e-12 * est.max()  # the floor does not bind
                assert np.array_equal(_kernel_fits(pts, UNIT, [h])[0], est)
                assert cvl_criterion(pts, UNIT, [h])[0] == (np.sum(1.0 / est) - UNIT.area) ** 2

    def test_boundary_flag_mechanism(self):
        # on uniform points LSCV runs to the largest candidate, a boundary
        rng = np.random.default_rng(2)
        pts = rng.random((50, 2))
        bw = select_bandwidth("diggle", pts, UNIT)
        assert bw.boundary
        assert bw.h == bandwidth_search_grid(UNIT, 50)[-1]
        # five tight clusters (sd 0.02) give an interior optimum
        rng = np.random.default_rng(2)
        centers = rng.uniform(0.2, 0.8, (5, 2))
        clustered = np.clip(np.repeat(centers, 10, axis=0) + rng.normal(0, 0.02, (50, 2)), 0, 1)
        assert not select_bandwidth("diggle", clustered, UNIT).boundary

    @pytest.mark.parametrize("method", ["CvL", "CvL.adaptive"])
    def test_cvl_cap_below_two_candidates_refused(self, method):
        # on a 100 x 1 strip the cap is 0.25 and every candidate lies above
        # it; the search used to fall back to the two smallest, h = 0.538
        domain = Domain(0.0, 100.0, 0.0, 1.0)
        pts = np.random.default_rng(0).random((100, 2)) * [100.0, 1.0]
        hs = bandwidth_search_grid(domain, 100)
        message = f"^{re.escape(method)} searches bandwidths up to .*, 0.25, .* the smallest two are {hs[0]:g} "
        with pytest.raises(ValueError, match=message):
            select_bandwidth(method, pts, domain)

    def test_cvl_cap_leaves_the_unit_square_search_whole(self):
        # the second candidate is under the cap at every n, so the search
        # always runs on the candidates up to the cap
        assert max(bandwidth_search_grid(UNIT, n)[1] for n in range(5, 5000)) < 0.25

    def test_integrals_match_fine_midpoint_quadrature(self):
        # On a lattice of spacing d the midpoint rule errs by c d^2 + O(d^4),
        # so Q(d) - Q(d/2) = (3/4) c d^2 and Q(d/2) - exact is
        # (Q(d) - Q(d/2)) / 3 to leading order. The O(d^4) remainder is of
        # relative order (d / h)^2 = 1/64 at h = 8 d (the coarse spacing),
        # hence the 5% tolerance on that prediction.
        domain = Domain(-1.0, 2.0, 0.5, 1.5)
        rng = np.random.default_rng(30)
        pts = np.column_stack([rng.uniform(-1.0, 2.0, 30), rng.uniform(0.5, 1.5, 30)])
        h = 0.1
        exact = {1: 30.0, 2: integral_sq(pts, domain, np.array([h]))[0]}

        def midpoint(power, nx, ny):
            grid = GridSpec(domain, nx, ny)
            on_grid = estimate_intensity(
                pts, domain, BandwidthSpec(h=h), at=grid.cell_centers()
            )
            return (on_grid**power).sum() * domain.area / grid.ncells

        for power in (1, 2):
            q_coarse, q_fine = midpoint(power, 240, 80), midpoint(power, 480, 160)
            predicted = (q_coarse - q_fine) / 3.0
            assert abs(predicted) > 1e-9 * exact[power]
            assert abs((q_fine - exact[power]) - predicted) < 0.05 * abs(predicted)


@pytest.fixture(scope="module")
def homogeneous_selection():
    rng = np.random.default_rng(5)
    pts = rng.random((2000, 2))
    bw = select_bandwidth("CvL", pts, UNIT)
    return pts, bw


class TestCvL:

    def test_mass_preservation(self, homogeneous_selection):
        pts, bw = homogeneous_selection
        total = np.sum(1.0 / estimate_intensity(pts, UNIT, bw))
        assert abs(total - UNIT.area) / UNIT.area < 0.10

    def test_optimum_beats_scaled_bandwidths(self, homogeneous_selection):
        pts, bw = homogeneous_selection
        crit = lambda h: cvl_criterion(pts, UNIT, np.array([h]))[0]
        assert crit(bw.h) < crit(bw.h / 3)
        assert crit(bw.h) < crit(3 * bw.h)
        assert not bw.boundary


class TestDiggleVsScott:
    def test_diggle_picks_smaller_bandwidth_on_clusters(self):
        # least-squares CV tracks the clustering scale; the normal-reference
        # rule sees only the near-uniform marginal spread
        grid = GridSpec(UNIT, 32, 32)
        theta = CovParams(1.5, 0.15, 1.0)
        root = SeedStream(271)
        smaller = 0
        for rep in range(100):
            fld = simulate_field(grid, theta, root.child(rep, 0))
            lam = compute_intensity("lgcp", fld, SamplerSpec(kind="lgcp", n=100, beta=1.0))
            pts = sample_conditioned(fld, lam, 100, root.child(rep, 1))
            h_diggle = select_bandwidth("diggle", pts, UNIT).h
            h_scott = scott_bandwidth(pts)
            smaller += h_diggle < h_scott
        assert smaller >= 90


class TestWeights:
    def test_uniform_intensity_gives_exact_ones(self):
        assert np.all(weights_from_intensity(np.full(11, 2.73), 0.01) == 1.0)

    def test_three_point_example_no_threshold(self):
        w = weights_from_intensity(np.array([2.0, 1.0, 1.0]), 0.0)
        np.testing.assert_allclose(w, [0.6, 1.2, 1.2], rtol=1e-12)

    def test_winsorized_worked_example(self):
        w = weights_from_intensity(np.array([2.99, 0.005, 0.005]), 0.01)
        np.testing.assert_allclose(w, [0.00501, 1.49749, 1.49749], atol=1e-4)

    def test_sum_is_n(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = rng.integers(2, 60)
            lam = rng.lognormal(0.0, rng.uniform(0.1, 3.0), n)
            threshold = rng.choice([0.0, 1e-3, 1e-2, 0.1, 0.5])
            w = weights_from_intensity(lam, threshold)
            assert abs(w.sum() - n) < 1e-9

    def test_max_weight_monotone_in_threshold(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            lam = rng.lognormal(0.0, 2.0, 30)
            maxima = [
                weights_from_intensity(lam, t).max()
                for t in (0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(maxima, maxima[1:]))

    def test_floored_intensity_estimate_accepted(self):
        est = estimate_intensity(
            np.array([[0.5, 0.5], [0.52, 0.5]]), UNIT, BandwidthSpec(h=0.01)
        )
        w = weights_from_intensity(est, 1e-2)
        assert abs(w.sum() - 2) < 1e-9

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            weights_from_intensity(np.ones(3), -0.1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="threshold must be nonnegative and finite"):
                weights_from_intensity(np.ones(3), bad)

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(ValueError):
            weights_from_intensity(np.array([1.0, 0.0]), 0.01)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="intensities must be positive and finite"):
                weights_from_intensity(np.array([1.0, bad]), 0.01)
