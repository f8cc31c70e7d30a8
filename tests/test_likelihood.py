import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from isiw import (
    CovParams,
    Dataset,
    ModelParams,
    Objective,
    VecchiaPlan,
    build_cov_matrix,
    exact_nll,
    gaussian_kl,
    matern_cov,
    matern_cov_dlogphi,
    maxmin_order,
    nn_conditioning_sets,
    pairwise_marginal_nll,
    vecchia_implied_cov,
    vecchia_nll,
)
import isiw
from isiw._linalg import NotPositiveDefiniteError, cholesky_lower
from isiw.likelihood import PAIR_CHUNK

PSI = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
LOG_2PI = math.log(2 * math.pi)


def random_dataset(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Dataset(locations=rng.random((n, 2)) * scale, values=rng.normal(4.0, 1.2, n))


def random_psi(rng):
    return ModelParams.from_values(
        rng.normal(0, 2),
        rng.uniform(0.3, 3.0),
        rng.uniform(0.05, 0.5),
        rng.uniform(0.01, 0.5),
    )


def full_matrix_exact_nll(psi, data):
    """exact_nll with the Matérn and its derivative evaluated on every entry
    of the full ``cdist`` matrix rather than on the condensed pairs."""
    dist = cdist(data.locations, data.locations)
    matern = matern_cov(dist, psi.theta)
    cov = matern.copy()
    cov[np.diag_indices_from(cov)] += psi.tau2
    chol = cholesky_lower(cov)
    z = solve_triangular(chol, data.values - psi.mu, lower=True, check_finite=False)
    value = 0.5 * data.n * LOG_2PI + np.sum(np.log(np.diag(chol))) + 0.5 * z @ z
    alpha = solve_triangular(chol, z, lower=True, trans="T", check_finite=False)
    w = cho_solve((chol, True), np.eye(data.n), check_finite=False) - np.outer(alpha, alpha)
    grad = [
        -alpha.sum(),
        0.5 * np.sum(w * matern),
        0.5 * np.sum(w * matern_cov_dlogphi(dist, psi.theta)),
        0.5 * psi.tau2 * np.trace(w),
    ]
    return value, np.array(grad)


class TestExactNll:
    @pytest.mark.parametrize("n", [2, 3, 100])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.7])
    def test_condensed_equals_full_matrix_bit_for_bit(self, n, nu):
        data = random_dataset(n, 5 + n)
        psi = ModelParams.from_values(4.0, 1.5, 0.15, 0.1, nu=nu)
        got = exact_nll(psi, data)
        value, grad = full_matrix_exact_nll(psi, data)
        assert float(got) == value
        assert np.array_equal(got.grad, grad)

    def test_univariate_formula(self):
        data = Dataset(locations=np.array([[0.5, 0.5]]), values=np.array([5.3]))
        v = PSI.theta.sigma2 + PSI.tau2
        expected = 0.5 * math.log(2 * math.pi * v) + (5.3 - PSI.mu) ** 2 / (2 * v)
        assert exact_nll(PSI, data) == pytest.approx(expected, rel=1e-14)

    def test_independence_limit(self):
        # negligible range: the joint factorizes into univariate normals
        data = random_dataset(3, 1)
        psi = ModelParams.from_values(4.0, 1.5, 1e-8, 0.1)
        v = 1.5 + 0.1
        parts = sum(
            0.5 * math.log(2 * math.pi * v) + (y - 4.0) ** 2 / (2 * v) for y in data.values
        )
        assert exact_nll(psi, data) == pytest.approx(parts, abs=1e-6)

    def test_matches_dense_inverse_oracle(self):
        data = random_dataset(10, 2)
        cov = build_cov_matrix(data.locations, PSI.theta, PSI.tau2)
        r = data.values - PSI.mu
        expected = 0.5 * (
            10 * LOG_2PI + np.linalg.slogdet(cov)[1] + r @ np.linalg.inv(cov) @ r
        )
        assert exact_nll(PSI, data) == pytest.approx(expected, rel=1e-8)

    def test_permutation_invariance(self):
        data = random_dataset(25, 3)
        perm = np.random.default_rng(4).permutation(25)
        shuffled = Dataset(locations=data.locations[perm], values=data.values[perm])
        assert exact_nll(PSI, shuffled) == pytest.approx(exact_nll(PSI, data), rel=1e-12)


class TestMaxminOrder:
    def test_hand_example(self):
        locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.0]])
        np.testing.assert_array_equal(maxmin_order(locs), [2, 1, 0])

    def test_single_point(self):
        np.testing.assert_array_equal(maxmin_order(np.array([[0.3, 0.7]])), [0])

    def test_matches_greedy_reference(self):
        rng = np.random.default_rng(8)
        locs = rng.random((12, 2))
        # independent greedy reimplementation
        centroid = locs.mean(axis=0)
        first = min(range(12), key=lambda i: (np.linalg.norm(locs[i] - centroid), i))
        chosen = [first]
        remaining = set(range(12)) - {first}
        while remaining:
            best, best_d = None, -1.0
            for i in sorted(remaining):
                d = min(np.linalg.norm(locs[i] - locs[j]) for j in chosen)
                if d > best_d:
                    best, best_d = i, d
            chosen.append(best)
            remaining.discard(best)
        np.testing.assert_array_equal(maxmin_order(locs), chosen)


class TestConditioningSets:
    def test_full_conditioning_is_all_predecessors(self):
        data = random_dataset(9, 5)
        order = maxmin_order(data.locations)
        plan = nn_conditioning_sets(data.locations, order, m=8)
        for j in range(9):
            assert sorted(plan.neighbors[j].tolist()) == sorted(order[:j].tolist())

    def test_m1_collinear_chain(self):
        # equispaced points on a line ordered left-to-right: each point's
        # nearest predecessor is the previous one
        locs = np.column_stack([np.arange(4) / 4.0, np.zeros(4)])
        order = np.array([0, 1, 2, 3])
        plan = nn_conditioning_sets(locs, order, m=1)
        assert [q.tolist() for q in plan.neighbors] == [[], [0], [1], [2]]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(15)
        locs = rng.random((15, 2))
        order = maxmin_order(locs)
        plan = nn_conditioning_sets(locs, order, m=3)
        for j in range(15):
            prev = order[:j]
            if j == 0:
                continue
            d = [(np.linalg.norm(locs[i] - locs[order[j]]), i) for i in prev]
            want = [i for _, i in sorted(d)[: min(3, j)]]
            assert sorted(plan.neighbors[j].tolist()) == sorted(want)

    def test_invalid_order_rejected(self):
        locs = np.random.default_rng(0).random((5, 2))
        with pytest.raises(ValueError, match="permutation"):
            nn_conditioning_sets(locs, np.array([0, 1, 2, 3, 3]), m=2)

    def test_packed_blocks_are_not_a_constructor_argument(self):
        plan = nn_conditioning_sets(random_dataset(6, 1).locations, np.arange(6), m=2)
        with pytest.raises(TypeError, match="_packed"):
            VecchiaPlan(plan.order, plan.neighbors, plan.m, plan.locations, _packed={})


class TestVecchiaNll:
    def test_full_conditioning_equals_exact(self):
        data = random_dataset(50, 21)
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=49)
        assert vecchia_nll(PSI, data, plan) == pytest.approx(exact_nll(PSI, data), abs=1e-8)

    def test_unit_weights_bit_identical(self):
        data = random_dataset(40, 22)
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=10)
        unweighted = vecchia_nll(PSI, data, plan)
        weighted = vecchia_nll(PSI, data, plan, np.ones(40))
        assert weighted == unweighted

    def test_two_point_closed_form(self):
        locs = np.array([[0.2, 0.2], [0.7, 0.6]])
        data = Dataset(locations=locs, values=np.array([4.5, 3.1]))
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m=1)
        w = np.array([1.7, 0.3])
        v = PSI.theta.sigma2 + PSI.tau2
        c = matern_cov(np.linalg.norm(locs[0] - locs[1]), PSI.theta)

        def nll1(y):
            return 0.5 * math.log(2 * math.pi * v) + (y - PSI.mu) ** 2 / (2 * v)

        first = plan.order[0]
        second = plan.order[1]
        cov = np.array([[v, c], [c, v]])
        r = data.values[[first, second]] - PSI.mu
        joint = 0.5 * (2 * LOG_2PI + np.linalg.slogdet(cov)[1] + r @ np.linalg.inv(cov) @ r)
        expected = w[first] * nll1(data.values[first]) + w[second] * (
            joint - nll1(data.values[first])
        )
        assert vecchia_nll(PSI, data, plan, w) == pytest.approx(expected, rel=1e-10)

    def test_randomized_full_conditioning_sweep(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            n = int(rng.integers(5, 60))
            data = random_dataset(n, 1000 + trial)
            psi = random_psi(rng)
            plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=n - 1 if n > 1 else 1)
            assert vecchia_nll(psi, data, plan) == pytest.approx(exact_nll(psi, data), abs=1e-8)

    def test_failing_block_named(self):
        # two points 1e-9 apart with no nugget make the block of whichever
        # is ordered second (after the far point) exactly singular
        locs = np.array([[0.1, 0.1], [0.1 + 1e-9, 0.1], [0.5, 0.5]])
        data = Dataset(locations=locs, values=np.array([1.0, 2.0, 3.0]))
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m=2)
        assert plan.order[1] == 2
        psi = ModelParams.from_values(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(NotPositiveDefiniteError) as err:
            vecchia_nll(psi, data, plan)
        assert f"vecchia conditioning block 2 (point {plan.order[2]})" in str(err.value)
        assert err.value.pivot == 3

    def test_plan_data_mismatch_rejected(self):
        data = random_dataset(10, 30)
        other = random_dataset(10, 31)
        plan = nn_conditioning_sets(other.locations, maxmin_order(other.locations), m=3)
        with pytest.raises(ValueError, match="different locations"):
            vecchia_nll(PSI, data, plan)


class TestPairwiseMarginalNll:
    def test_two_points_equals_exact(self):
        data = random_dataset(2, 40)
        assert pairwise_marginal_nll(PSI, data) == pytest.approx(exact_nll(PSI, data), rel=1e-12)

    def test_unit_weights_bit_identical(self):
        data = random_dataset(12, 41)
        assert pairwise_marginal_nll(PSI, data) == pairwise_marginal_nll(PSI, data, np.ones(12))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        data = random_dataset(6, 42)
        w = rng.uniform(0.2, 2.0, 6)
        total = 0.0
        v = PSI.theta.sigma2 + PSI.tau2
        for i in range(6):
            for j in range(i + 1, 6):
                c = matern_cov(np.linalg.norm(data.locations[i] - data.locations[j]), PSI.theta)
                cov = np.array([[v, c], [c, v]])
                r = np.array([data.values[i] - PSI.mu, data.values[j] - PSI.mu])
                ll = -LOG_2PI - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * r @ np.linalg.inv(cov) @ r
                total -= w[i] * w[j] * ll
        assert pairwise_marginal_nll(PSI, data, w) == pytest.approx(total, abs=1e-10)

    def test_infinite_cutoff_equals_unrestricted(self):
        data = random_dataset(15, 43)
        assert pairwise_marginal_nll(PSI, data, cutoff=np.inf) == pairwise_marginal_nll(PSI, data)

    def test_cutoff_restricts_pairs(self):
        data = random_dataset(15, 44)
        d = data.pairwise_distances()
        cut = np.median(d[np.triu_indices(15, 1)])
        assert pairwise_marginal_nll(PSI, data, cutoff=cut) != pairwise_marginal_nll(PSI, data)

    def test_no_pairs_within_cutoff(self):
        data = random_dataset(5, 45)
        with pytest.raises(ValueError, match="cutoff"):
            pairwise_marginal_nll(PSI, data, cutoff=1e-9)


def whole_array_pairwise_nll(psi, data, weights=None, cutoff=None):
    """pairwise_marginal_nll with every per-pair expression evaluated on
    the whole pair list at once, unsliced."""
    iu, ju, d = data.pairs(cutoff)
    c = matern_cov(d, psi.theta)
    v = psi.theta.sigma2 + psi.tau2
    det = v * v - c * c
    a = data.values[iu] - psi.mu
    b = data.values[ju] - psi.mu
    squares, cross = a * a + b * b, a * b
    quad = (v * squares - 2.0 * c * cross) / det
    d_v = (v + 0.5 * squares - quad * v) / det
    d_c = (quad * c - c - cross) / det
    terms = np.stack(
        [
            LOG_2PI + 0.5 * np.log(det) + 0.5 * quad,
            -(a + b) * (v - c) / det,
            psi.theta.sigma2 * d_v + c * d_c,
            matern_cov_dlogphi(d, psi.theta) * d_c,
            psi.tau2 * d_v,
        ]
    )
    if weights is not None:
        terms *= weights[iu] * weights[ju]
    total = terms.sum(axis=1)
    return total[0], total[1:]


def assert_matches_whole_array(data, weights, cutoff):
    psi = ModelParams.from_values(3.7, 1.1, 0.08, 0.2)
    got = pairwise_marginal_nll(psi, data, weights, cutoff)
    value, grad = whole_array_pairwise_nll(psi, data, weights, cutoff)
    assert float(got).hex() == float(value).hex()
    assert got.grad.tobytes() == grad.tobytes()


class TestPairwiseChunks:
    """Slicing the pair list changes no bit of the value or the gradient,
    whatever the pair count is against ``PAIR_CHUNK``."""

    @pytest.mark.parametrize("n", [100, 300])  # 4950 and 44850 pairs
    @pytest.mark.parametrize("weighted", [False, True])
    def test_all_pairs(self, n, weighted):
        data = random_dataset(n, 46)
        weights = np.random.default_rng(n).uniform(0.2, 3.0, n) if weighted else None
        assert_matches_whole_array(data, weights, None)

    @pytest.mark.parametrize(
        "pairs", [PAIR_CHUNK - 1, PAIR_CHUNK, PAIR_CHUNK + 1, 4 * PAIR_CHUNK + 3]
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_pairs_within_cutoff(self, pairs, weighted):
        data = random_dataset(300, 47)
        cutoff = float(np.sort(data.condensed_distances())[pairs - 1])
        assert data.pairs(cutoff)[2].size == pairs
        weights = np.random.default_rng(pairs).uniform(0.2, 3.0, 300) if weighted else None
        assert_matches_whole_array(data, weights, cutoff)


_FAULTS_SCRIPT = """
import json, resource, sys
import numpy as np
from isiw import Dataset, ModelParams, pairwise_marginal_nll

psi = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
out = {}
for n, calls in ((400, 60), (800, 20)):
    rng = np.random.default_rng(n)
    data = Dataset(locations=rng.random((n, 2)), values=rng.normal(4.0, 1.2, n))
    weights = rng.uniform(0.2, 3.0, n)
    for _ in range(3):
        pairwise_marginal_nll(psi, data, weights)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        pairwise_marginal_nll(psi, data, weights)
    out[n] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
print(json.dumps(out))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or platform.libc_ver()[0] != "glibc"
    or "LD_PRELOAD" in os.environ,
    reason="the fault bound assumes glibc's malloc, whose mmap threshold the pair slices stay under",
)
def test_pairwise_nll_reuses_its_memory():
    # A fresh interpreter, so the allocator state is that of a real run. The
    # whole-array evaluation re-faults its pair-length temporaries on every
    # call: about 2,900 minor faults at n=400 and 9,300 at n=800.
    env = {**os.environ, "PYTHONPATH": str(Path(isiw.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    faults = json.loads(out.stdout)
    assert all(per_call < 100 for per_call in faults.values()), faults


class TestVecchiaImpliedCov:
    def test_full_conditioning_recovers_joint(self):
        data = random_dataset(12, 50)
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=11)
        implied = vecchia_implied_cov(PSI, plan)
        expected = build_cov_matrix(data.locations, PSI.theta, PSI.tau2)
        np.testing.assert_allclose(implied, expected, atol=1e-8)

    def test_two_points_exact(self):
        locs = np.array([[0.1, 0.1], [0.6, 0.4]])
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m=1)
        np.testing.assert_allclose(
            vecchia_implied_cov(PSI, plan),
            build_cov_matrix(locs, PSI.theta, PSI.tau2),
            atol=1e-12,
        )

    def test_density_cross_check(self):
        # the implied Gaussian's density must reproduce exp(-vecchia_nll)
        rng = np.random.default_rng(51)
        locs = rng.random((8, 2))
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m=2)
        implied = vecchia_implied_cov(PSI, plan)
        sign, logdet = np.linalg.slogdet(implied)
        assert sign > 0
        inv = np.linalg.inv(implied)
        for _ in range(20):
            y = rng.normal(4.0, 1.0, 8)
            data = Dataset(locations=locs, values=y)
            r = y - PSI.mu
            logpdf = -0.5 * (8 * LOG_2PI + logdet + r @ inv @ r)
            assert -vecchia_nll(PSI, data, plan) == pytest.approx(logpdf, abs=1e-8)


class TestGaussianKl:
    def test_identical_is_zero(self):
        data = random_dataset(10, 60)
        cov = build_cov_matrix(data.locations, PSI.theta, PSI.tau2)
        assert gaussian_kl(cov, cov) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_hand_value(self):
        got = gaussian_kl(np.array([[1.0]]), np.array([[2.0]]))
        assert got == pytest.approx(0.5 * (0.5 - 1 + math.log(2)), rel=1e-12)

    def test_nonincreasing_in_m(self):
        rng = np.random.default_rng(61)
        locs = rng.random((30, 2))
        truth = build_cov_matrix(locs, PSI.theta, PSI.tau2)
        order = maxmin_order(locs)
        kls = []
        for m in (1, 2, 5, 10, 29):
            plan = nn_conditioning_sets(locs, order, m)
            kls.append(gaussian_kl(truth, vecchia_implied_cov(PSI, plan)))
        assert all(a >= b - 1e-10 for a, b in zip(kls, kls[1:]))
        assert abs(kls[-1]) < 1e-10
        assert kls[0] > 0

    def test_non_pd_rejected_with_pivot(self):
        good = np.eye(3)
        bad = np.eye(3)
        bad[2, 2] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            gaussian_kl(good, bad)
        assert err.value.pivot == 3


class TestObjective:
    def test_plan_requirement(self):
        with pytest.raises(ValueError):
            Objective(kind="vecchia")
        with pytest.raises(ValueError):
            Objective(kind="exact", plan="anything")

    @pytest.mark.parametrize("kind,option,extra", [
        ("exact", "weights", {"weights": np.full(30, 2.0)}),
        ("exact", "pair_cutoff", {"pair_cutoff": 0.1}),
        ("vecchia", "pair_cutoff", {"pair_cutoff": 0.1}),
    ])
    def test_unread_option_rejected(self, kind, option, extra):
        plan = None
        if kind == "vecchia":
            data = random_dataset(30, 71)
            plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=5)
        with pytest.raises(ValueError, match=f"'{kind}' takes no {option}"):
            Objective(kind=kind, plan=plan, **extra)

    def test_dispatch_matches_functions(self):
        data = random_dataset(15, 70)
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=5)
        assert Objective(kind="exact").nll(PSI, data) == exact_nll(PSI, data)
        assert Objective(kind="vecchia", plan=plan).nll(PSI, data) == vecchia_nll(PSI, data, plan)
        assert Objective(kind="pairwise-marginal").nll(PSI, data) == pairwise_marginal_nll(PSI, data)
