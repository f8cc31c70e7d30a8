"""Property tests of the likelihood objectives and their closed-form
gradients, over random data, parameters and smoothness orders, of the grid
covariance implied by the circulant embedding, and of the intensity
layer's exact selector integrals and weight normalization.

Examples are derandomized and bounded, so the file is deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fields import implied_grid_covariance_error
from test_intensity import oracle_integral_sq

from isiw import (
    CovParams,
    Dataset,
    Domain,
    GridSpec,
    ModelParams,
    exact_nll,
    fd_gradient,
    matern_cov,
    matern_cov_dlogphi,
    maxmin_order,
    nn_conditioning_sets,
    pairwise_marginal_nll,
    vecchia_nll,
    weights_from_intensity,
)
from isiw.intensity import _SelectorWorkspace

NUS = (0.5, 0.8, 1.0, 1.5, 2.5)
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
GRAD_RTOL = 1e-5


@st.composite
def cases(draw):
    """(data, weights, nu, x) with x = (mu, log sigma2, log phi, log tau2)."""
    n = draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset(locations=rng.random((n, 2)), values=rng.normal(4.0, 1.2, n))
    weights = rng.uniform(0.3, 2.0, n)
    nu = draw(st.sampled_from(NUS))
    x = np.array(
        [
            draw(st.floats(2.0, 6.0)),
            draw(st.floats(math.log(0.3), math.log(3.0))),
            draw(st.floats(math.log(0.05), math.log(0.5))),
            draw(st.floats(math.log(0.01), math.log(0.5))),
        ]
    )
    return data, weights, nu, x


def unpack(x, nu):
    return ModelParams.from_values(x[0], math.exp(x[1]), math.exp(x[2]), math.exp(x[3]), nu=nu)


def plans(data):
    order = maxmin_order(data.locations)
    return {m: nn_conditioning_sets(data.locations, order, m) for m in sorted({1, 5, data.n - 1})}


def median_pair_distance(data):
    return float(np.median(data.pairwise_distances()[np.triu_indices(data.n, k=1)]))


def objectives(data, weights):
    """Every objective variant, each a function of psi."""
    out = {"exact": lambda psi: exact_nll(psi, data)}
    for m, plan in plans(data).items():
        out[f"vecchia m={m}"] = lambda psi, plan=plan: vecchia_nll(psi, data, plan)
        out[f"vecchia m={m} weighted"] = lambda psi, plan=plan: vecchia_nll(psi, data, plan, weights)
    for cutoff in (None, median_pair_distance(data)):
        out[f"pairwise cutoff={cutoff}"] = lambda psi, c=cutoff: pairwise_marginal_nll(
            psi, data, cutoff=c
        )
        out[f"pairwise cutoff={cutoff} weighted"] = lambda psi, c=cutoff: pairwise_marginal_nll(
            psi, data, weights, c
        )
    return out


def richardson_gradient(func, x):
    coarse = fd_gradient(func, x, 1e-5)
    return (4.0 * fd_gradient(func, x, 5e-6) - coarse) / 3.0


@PROPERTY
@given(cases())
def test_analytic_gradient_matches_richardson(case):
    data, weights, nu, x = case
    for name, nll in objectives(data, weights).items():
        analytic = nll(unpack(x, nu)).grad
        reference = richardson_gradient(lambda y, nll=nll: float(nll(unpack(y, nu))), x)
        rel = np.linalg.norm(analytic - reference) / max(np.linalg.norm(reference), 1e-8)
        assert rel < GRAD_RTOL, f"{name} at nu={nu}: relative gradient error {rel:.2e}"


@PROPERTY
@given(cases())
def test_unit_weights_reproduce_unweighted_bit_for_bit(case):
    data, _, nu, x = case
    psi = unpack(x, nu)
    ones = np.ones(data.n)
    pairs = [
        (vecchia_nll(psi, data, plan), vecchia_nll(psi, data, plan, ones))
        for plan in plans(data).values()
    ]
    for cutoff in (None, median_pair_distance(data)):
        pairs.append(
            (pairwise_marginal_nll(psi, data, cutoff=cutoff), pairwise_marginal_nll(psi, data, ones, cutoff))
        )
    for unweighted, weighted in pairs:
        assert float(weighted) == float(unweighted)
        assert np.array_equal(weighted.grad, unweighted.grad)


@PROPERTY
@given(cases())
def test_full_conditioning_vecchia_equals_exact(case):
    data, _, nu, x = case
    psi = unpack(x, nu)
    plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), data.n - 1)
    vecchia, exact = vecchia_nll(psi, data, plan), exact_nll(psi, data)
    assert abs(float(vecchia) - float(exact)) < 1e-8
    np.testing.assert_allclose(vecchia.grad, exact.grad, rtol=1e-7, atol=1e-8)


@PROPERTY
@given(
    st.sampled_from(NUS),
    st.floats(0.3, 3.0),
    st.floats(0.05, 0.5),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
)
def test_matern_dlogphi_matches_richardson(nu, sigma2, phi, h):
    h = np.array(h)

    def cov_at(log_phi):
        return matern_cov(h, CovParams(sigma2, math.exp(log_phi[0]), nu))

    log_phi = np.array([math.log(phi)])
    reference = np.array(
        [richardson_gradient(lambda y, i=i: cov_at(y)[i], log_phi)[0] for i in range(h.size)]
    )
    analytic = matern_cov_dlogphi(h, CovParams(sigma2, phi, nu))
    assert np.all(np.isfinite(analytic))
    # the general-nu Bessel product carries ~1e-14 relative noise at tiny s,
    # which the 5e-6 difference step turns into ~1e-9 * sigma2 of noise in
    # the reference while the derivative itself tends to 0
    np.testing.assert_allclose(analytic, reference, rtol=1e-5, atol=1e-8 * sigma2)
    assert np.all(analytic[h == 0.0] == 0.0)


@PROPERTY
@given(st.sampled_from(NUS), st.floats(0.0, 1e-300), st.floats(1e-3, 1e3))
def test_matern_tiny_distances_reach_their_limits(nu, h, phi):
    # Bessel K overflows at subnormal arguments; both functions must still
    # return (up to the Bessel product's noise) their h = 0 limits there
    theta = CovParams(1.7, phi, nu)
    assert abs(matern_cov(h, theta) - 1.7) <= 1e-13
    assert abs(matern_cov_dlogphi(h, theta)) <= 1e-13


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_matern_rejects_non_finite_distances(nu, h):
    theta = CovParams(1.5, 0.15, nu)
    for func in (matern_cov, matern_cov_dlogphi):
        with pytest.raises(ValueError, match="finite"):
            func(h, theta)
        with pytest.raises(ValueError, match="finite"):
            func(np.array([0.0, 0.2, h]), theta)


@PROPERTY
@given(
    st.floats(-3.0, 3.0),
    st.floats(0.1, 4.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 4.0),
    st.integers(2, 64),
    st.integers(2, 64),
    st.sampled_from(NUS),
    st.floats(0.0, 1.0),
)
def test_lattice_grid_covariance_equals_direct(x0, width, y0, height, nx, ny, nu, phi_frac):
    # phi log-uniform in [0.01, half the shorter side]
    upper = 0.5 * min(width, height)
    phi = 0.01 * (upper / 0.01) ** phi_frac
    spec = GridSpec(Domain(x0, x0 + width, y0, y0 + height), nx, ny)
    assert implied_grid_covariance_error(spec, CovParams(1.3, phi, nu)) <= 1e-12


@PROPERTY
@given(
    st.integers(5, 25),
    st.integers(0, 2**32 - 1),
    st.floats(-2.0, 2.0),
    st.floats(0.2, 3.0),
    st.floats(-2.0, 2.0),
    st.floats(0.2, 3.0),
    st.floats(0.005, 1.0),
)
def test_integral_sq_matches_pair_oracle(n, seed, x0, width, y0, height, h_rel):
    domain = Domain(x0, x0 + width, y0, y0 + height)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(domain.x0, domain.x1, n), rng.uniform(domain.y0, domain.y1, n)])
    h = h_rel * max(width, height)
    got = _SelectorWorkspace(points, domain).integral_sq(np.array([h]))[0]
    assert got == pytest.approx(oracle_integral_sq(points, domain, h), rel=1e-10)


@PROPERTY
@given(
    st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=200),
    st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0]),
)
def test_weights_sum_to_n(intensities, threshold):
    n = len(intensities)
    weights = weights_from_intensity(np.array(intensities), threshold)
    assert abs(weights.sum() - n) <= 1e-12 * n
