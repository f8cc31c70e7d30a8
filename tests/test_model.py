import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import gamma, k0, k1, kv

from isiw import CovParams, Dataset, Domain, build_cov_matrix, matern_cov, matern_cov_dlogphi, microergodic
from isiw._linalg import NotPositiveDefiniteError, cholesky_lower

# Reference values frozen from a 50-digit arbitrary-precision Bessel-K
# evaluation, computed independently of this package.
BESSEL_TABLE_NU1 = [
    # (h, sigma2, phi, expected)
    (0.01, 1.0, 1.0, 0.99951253312741721),
    (0.05, 1.0, 0.5, 0.974197443318119788),
    (0.1, 1.5, 0.15, 0.939413715363392028),
    (0.2, 1.5, 0.15, 0.460339769426670723),
    (0.5, 1.5, 0.15, 0.0393541197055117995),
    (0.02, 1.5, 0.02, 0.666513785448354062),
    (0.07, 1.5, 0.02, 0.0317575269879709158),
    (0.3, 2.0, 0.25, 0.713490507884304563),
    (1.0, 2.0, 0.25, 0.0221414681983236918),
    (2.0, 0.5, 0.8, 0.0377184049544560611),
    (5.0, 0.5, 0.8, 0.000281218640036243586),
    (0.001, 3.0, 0.1, 2.99853759938225163),
    (4.0, 1.0, 1.0, 0.0110707340991618459),
    (0.75, 1.2, 0.3, 0.0905241718906945467),
]
BESSEL_TABLE_GENERAL = [
    # (h, sigma2, phi, nu, expected), same provenance
    (0.1, 1.5, 0.15, 2.0, 1.06340259742773755),
    (0.4, 1.0, 0.2, 0.75, 0.138673838037171439),
    (0.05, 2.5, 0.1, 3.5, 2.11577016638335069),
]


class TestMaternCov:
    def test_zero_distance_is_sigma2(self):
        for sigma2, phi, nu in [(1.0, 1.0, 0.5), (1.5, 0.15, 1.0), (2.3, 0.7, 1.5), (0.4, 2.0, 2.2)]:
            assert matern_cov(0.0, CovParams(sigma2, phi, nu)) == sigma2

    def test_nu_half_closed_form(self):
        assert matern_cov(2.0, CovParams(1.0, 1.0, 0.5)) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_nu_three_halves_closed_form(self):
        expected = (1 + math.sqrt(3)) * math.exp(-math.sqrt(3))
        assert matern_cov(1.0, CovParams(1.0, 1.0, 1.5)) == pytest.approx(expected, rel=1e-12)

    def test_nu_one_against_reference_table(self):
        for h, sigma2, phi, expected in BESSEL_TABLE_NU1:
            got = matern_cov(h, CovParams(sigma2, phi, 1.0))
            assert got == pytest.approx(expected, rel=1e-12), (h, sigma2, phi)

    def test_general_nu_against_reference_table(self):
        for h, sigma2, phi, nu, expected in BESSEL_TABLE_GENERAL:
            got = matern_cov(h, CovParams(sigma2, phi, nu))
            assert got == pytest.approx(expected, rel=1e-11), (h, sigma2, phi, nu)

    def test_closed_forms_across_h_grid(self):
        hs = np.arange(0.01, 5.0, 0.01)
        for sigma2, phi in [(1.0, 1.0), (1.5, 0.15), (0.7, 2.5)]:
            s_half = hs / phi
            np.testing.assert_allclose(
                matern_cov(hs, CovParams(sigma2, phi, 0.5)),
                sigma2 * np.exp(-s_half),
                rtol=0, atol=1e-12 * sigma2,
            )
            s32 = math.sqrt(3) * hs / phi
            np.testing.assert_allclose(
                matern_cov(hs, CovParams(sigma2, phi, 1.5)),
                sigma2 * (1 + s32) * np.exp(-s32),
                rtol=0, atol=1e-12 * sigma2,
            )

    def test_strictly_decreasing_and_positive(self):
        for nu in (0.5, 1.0, 1.5, 2.0):
            theta = CovParams(1.5, 0.15, nu)
            hs = np.linspace(1e-4, 10 * theta.phi, 500)
            vals = matern_cov(hs, theta)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            matern_cov(-0.1, CovParams(1.0, 1.0, 1.0))

    def test_invalid_theta_rejected(self):
        for bad in [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -0.5)]:
            with pytest.raises(ValueError):
                CovParams(*bad)

    def test_array_shape_passthrough(self):
        theta = CovParams(1.0, 0.5, 1.0)
        out = matern_cov(np.array([[0.0, 0.1], [0.2, 0.3]]), theta)
        assert out.shape == (2, 2)
        assert out[0, 0] == 1.0


def reference_matern(h, theta, dlogphi):
    """The Matérn covariance (or its log-phi derivative) written as plain
    array expressions, one new array per operation, with the h = 0 limit
    substituted by ``np.where`` wherever Bessel K is not finite."""
    sigma2, nu = theta.sigma2, theta.nu
    s = math.sqrt(2.0 * nu) / theta.phi * np.atleast_1d(np.asarray(h, dtype=float))
    if nu == 0.5:
        return sigma2 * s * np.exp(-s) if dlogphi else sigma2 * np.exp(-s)
    if nu == 1.5:
        return sigma2 * s * s * np.exp(-s) if dlogphi else sigma2 * (1.0 + s) * np.exp(-s)
    if nu == 2.5:
        if dlogphi:
            return sigma2 * s * s * (1.0 + s) / 3.0 * np.exp(-s)
        return sigma2 * (1.0 + s + s * s / 3.0) * np.exp(-s)
    order = nu - 1.0 if dlogphi else nu
    bessel = k0(s) if order == 0.0 else k1(s) if abs(order) == 1.0 else kv(order, s)
    limit = ~np.isfinite(bessel)
    bessel = np.where(limit, 1.0, bessel)
    s = np.where(limit, 1.0, s)
    const = sigma2 * 2.0 ** (1.0 - nu) / gamma(nu)
    if dlogphi:
        out = sigma2 * s * s * bessel if nu == 1.0 else const * s ** (nu + 1.0) * bessel
    else:
        out = sigma2 * s * bessel if nu == 1.0 else const * s**nu * bessel
    return np.where(limit, 0.0 if dlogphi else sigma2, out)


@pytest.mark.parametrize("nu", [0.5, 0.8, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("phi", [0.02, 0.15, 3.0])
@pytest.mark.parametrize(
    "h",
    [
        np.array([0.0]),
        np.array([5e-324]),
        np.array([1e-320]),
        np.array([1e-300]),
        np.concatenate([[0.0, 5e-324, 1e-320, 1e-300], np.random.default_rng(0).uniform(0.0, 2.0, 500)]),
    ],
    ids=["0", "5e-324", "1e-320", "1e-300", "uniform"],
)
def test_in_place_kernel_equals_plain_expressions(nu, phi, h):
    # any warning, such as a 0 * inf left outside the kernel's errstate,
    # fails the test
    theta = CovParams(1.7, phi, nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(matern_cov(h, theta), reference_matern(h, theta, False))
        assert np.array_equal(matern_cov_dlogphi(h, theta), reference_matern(h, theta, True))
        assert matern_cov(float(h[-1]), theta) == reference_matern(h[-1], theta, False)[0]


class TestBuildCovMatrix:
    def test_single_point(self):
        cov = build_cov_matrix(np.array([[0.3, 0.4]]), CovParams(1.5, 0.15, 1.0), tau2=0.1)
        np.testing.assert_allclose(cov, [[1.6]])

    def test_equal_distances_give_equal_entries(self):
        # four points on a square: all side-pairs share one distance
        locs = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cov = build_cov_matrix(locs, CovParams(1.0, 0.8, 1.0))
        sides = [cov[0, 1], cov[1, 2], cov[2, 3], cov[0, 3]]
        assert max(sides) - min(sides) < 1e-15

    def test_entrywise_against_matern(self):
        rng = np.random.default_rng(11)
        locs = rng.random((5, 2))
        theta = CovParams(1.2, 0.3, 1.0)
        cov = build_cov_matrix(locs, theta, tau2=0.05)
        for i in range(5):
            for j in range(5):
                h = np.linalg.norm(locs[i] - locs[j])
                expected = matern_cov(h, theta) + (0.05 if i == j else 0.0)
                assert cov[i, j] == pytest.approx(expected, rel=1e-14)

    def test_cholesky_feasible_at_scale(self):
        rng = np.random.default_rng(3)
        locs = rng.random((500, 2))
        for nu in (0.5, 1.0, 1.5):
            cov = build_cov_matrix(locs, CovParams(1.5, 0.15, nu), tau2=1e-8)
            cholesky_lower(cov)  # must not raise

    @pytest.mark.parametrize("n", [2, 3, 100])
    @pytest.mark.parametrize("tau2", [0.0, 0.05])
    def test_equals_full_matrix_bit_for_bit(self, n, tau2):
        rng = np.random.default_rng(n)
        locs = rng.random((n, 2)) * 2.0 - 0.5
        for nu in (0.5, 1.0, 1.7, 2.5):
            theta = CovParams(1.3, 0.2, nu)
            expected = matern_cov(cdist(locs, locs), theta)
            expected[np.diag_indices_from(expected)] += tau2
            assert np.array_equal(build_cov_matrix(locs, theta, tau2), expected)

    def test_not_positive_definite_carries_pivot(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(bad)
        assert err.value.pivot == 2


class TestMicroergodic:
    def test_unit_values(self):
        for nu in (0.5, 1.0, 1.7):
            assert microergodic(CovParams(1.0, 1.0, nu)) == 1.0

    def test_hand_values(self):
        assert microergodic(CovParams(1.5, 0.15, 1.0)) == pytest.approx(1.5 / 0.0225, rel=1e-14)
        assert microergodic(CovParams(1.5, 0.02, 1.0)) == pytest.approx(3750.0, rel=1e-14)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sigma2, phi, nu = rng.uniform(0.1, 3, size=3)
            c = rng.uniform(0.2, 5)
            base = microergodic(CovParams(sigma2, phi, nu))
            scaled = microergodic(CovParams(c ** (2 * nu) * sigma2, c * phi, nu))
            assert scaled == pytest.approx(base, rel=1e-10)


class TestDataset:
    def test_rejects_duplicates(self):
        locs = np.array([[0.1, 0.1], [0.1, 0.1 + 1e-13], [0.5, 0.5]])
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(locations=locs, values=np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(locations=np.zeros((3, 2)), values=np.zeros(2))

    def test_distance_cache_matches_direct(self):
        rng = np.random.default_rng(0)
        data = Dataset(locations=rng.random((20, 2)), values=rng.random(20))
        d = data.pairwise_distances()
        assert d is data.pairwise_distances()
        i, j = 3, 11
        assert d[i, j] == pytest.approx(np.linalg.norm(data.locations[i] - data.locations[j]))
        # mirrored from the condensed distances, with cdist's exact +0.0
        # diagonal
        assert d.tobytes() == cdist(data.locations, data.locations).tobytes()
        assert np.array_equal(data.condensed_distances(), d[np.triu_indices(20, k=1)])

    @pytest.mark.parametrize("cutoff", [None, 0.3])
    def test_pairs_are_the_upper_triangle_of_cdist(self, cutoff):
        rng = np.random.default_rng(46)
        data = Dataset(locations=rng.random((30, 2)), values=rng.random(30))
        iu, ju, d = data.pairs(cutoff)
        full_iu, full_ju = np.triu_indices(30, k=1)
        full_d = cdist(data.locations, data.locations)[full_iu, full_ju]
        keep = full_d <= (np.inf if cutoff is None else cutoff)
        assert np.array_equal(iu, full_iu[keep]) and np.array_equal(ju, full_ju[keep])
        assert np.array_equal(d, full_d[keep])
        assert data.pairs(cutoff)[2] is d

    def test_distance_cache_is_not_a_constructor_argument(self):
        # a caller-supplied cache would silently replace the real distances
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="_dist"):
            Dataset(locations=rng.random((5, 2)), values=rng.random(5), _dist=np.zeros((5, 5)))


class TestDomain:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Domain(0.0, 0.0, 0.0, 1.0)

    def test_area_and_diameter(self):
        dom = Domain(0.0, 2.0, 0.0, 1.0)
        assert dom.area == 2.0
        assert dom.diameter == pytest.approx(math.sqrt(5))
