import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from isiw import (
    CovParams,
    Dataset,
    ModelParams,
    Objective,
    Profile,
    VecchiaPlan,
    exact_nll,
    matern_cov,
    matern_cov_and_dlogphi,
    maxmin_order,
    nn_conditioning_sets,
    pairwise_marginal_nll,
    vecchia_nll,
)
import isiw
from isiw._linalg import NotPositiveDefiniteError, backward_solve_batched, cholesky_lower, forward_solve_batched
from isiw.likelihood import PAIR_CHUNK, PLAN_MAX_ENTRIES, _pair_rows, check_plan_size
from oracles import (
    build_cov_matrix,
    farthest_point_order,
    gaussian_kl,
    pairwise_reference,
    vecchia_implied_cov,
    vecchia_plan_reference,
)

PSI = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
LOG_2PI = math.log(2 * math.pi)


def nearest_earlier_oracle(locs, order, m):
    """Each ordered point's m nearest earlier points, nearest first with
    distance ties to the lowest index, by a plain scan in the plan's
    floating-point arithmetic."""
    out = []
    for j, target in enumerate(order):
        tx, ty = locs[target]
        scored = sorted((math.sqrt((tx - x) * (tx - x) + (ty - y) * (ty - y)), int(i))
                        for i, (x, y) in zip(order[:j], locs[order[:j]]))
        out.append([i for _, i in scored[:m]])
    return out


@st.composite
def point_sets(draw):
    """1 to 40 uniform points, or lattice points 0.125 apart, duplicates
    included, whose tied distances are exact."""
    n = draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="lattice"):
        return rng.integers(0, draw(st.integers(1, 7), label="side"), (n, 2)) * 0.125
    return rng.random((n, 2))


def conditioning_sets(plan):
    """Each ordered point's conditioning set, as lists: ``idx[j, :k[j]]``."""
    return [plan.idx[j, : plan.k[j]].tolist() for j in range(plan.n)]


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
    """exact_nll's value and profile with the Matérn and its derivative
    evaluated on every entry of the full ``cdist`` matrix rather than on the
    condensed pairs, in exact_nll's order of operations."""
    n, theta = data.n, psi.theta
    dist = cdist(data.locations, data.locations)
    cov = matern_cov(dist, theta)
    cov[np.diag_indices_from(cov)] += psi.tau2
    chol = cholesky_lower(cov)
    log_det = np.sum(np.log(np.diag(chol)))
    z = solve_triangular(chol, data.values - psi.mu, lower=True, check_finite=False)
    value = 0.5 * n * LOG_2PI + log_det + 0.5 * z @ z
    ones = solve_triangular(chol, np.ones(n), lower=True, check_finite=False)
    shift = (ones @ z) / (ones @ ones)
    resid = z - shift * ones
    ratio = (resid @ resid) / n
    alpha = solve_triangular(chol, resid, lower=True, trans="T", check_finite=False)
    w = cho_solve((chol, True), np.eye(n), check_finite=False) - np.outer(alpha, alpha) / ratio
    profile = Profile(
        psi.mu + shift,
        theta.sigma2 * ratio,
        log_det + 0.5 * n * (LOG_2PI + 1.0 + np.log(ratio)),
        np.array([0.5 * np.sum(w * matern_cov_and_dlogphi(dist, theta)[1]), 0.5 * theta.sigma2 * np.trace(w)]),
    )
    return value, profile


class TestExactNll:
    @pytest.mark.parametrize("n", [2, 3, 100])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.7])
    def test_condensed_equals_full_matrix_bit_for_bit(self, n, nu):
        data = random_dataset(n, 5 + n)
        psi = ModelParams.from_values(4.0, 1.5, 0.15, 0.1, nu=nu)
        got = exact_nll(psi, data)
        value, profile = full_matrix_exact_nll(psi, data)
        assert float(got).hex() == float(value).hex()
        assert got.profile[:3] == profile[:3]
        assert got.profile.grad.tobytes() == profile.grad.tobytes()

    def test_peak_memory_at_most_five_squares(self):
        # the weight matrix is built in the outer product's buffer and the
        # derivative matrix only once the factor is dropped, so the peak is
        # about 4 n x n doubles at n = 200
        n = 200
        data = random_dataset(n, 23)
        exact_nll(PSI, data)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            exact_nll(PSI, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * n * 8

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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(point_sets())
    def test_matches_farthest_point_oracle(self, locs):
        assert maxmin_order(locs).tolist() == farthest_point_order(locs)


class TestConditioningSets:
    def test_full_conditioning_is_all_predecessors(self):
        data = random_dataset(9, 5)
        order = maxmin_order(data.locations)
        plan = nn_conditioning_sets(data.locations, order, m=8)
        for j in range(9):
            assert sorted(conditioning_sets(plan)[j]) == sorted(order[:j].tolist())

    def test_m1_collinear_chain(self):
        # equispaced points on a line ordered left-to-right: each point's
        # nearest predecessor is the previous one
        locs = np.column_stack([np.arange(4) / 4.0, np.zeros(4)])
        order = np.array([0, 1, 2, 3])
        plan = nn_conditioning_sets(locs, order, m=1)
        assert conditioning_sets(plan) == [[], [0], [1], [2]]

    def test_plan_size_is_bounded(self):
        # each n x w x w index array, w = min(m, n - 1) + 1, holds at most 2^25
        # entries (256 MiB of int64); sizes only, no refused plan is built
        assert PLAN_MAX_ENTRIES == 2**25
        for n, m in ((800, 203), (400, 288)):
            check_plan_size(n, m)
            with pytest.raises(ValueError, match=f"^Vecchia plan at n={n}, m={m + 1}: "):
                check_plan_size(n, m + 1)
        check_plan_size(800, 20)  # the default n=800 plan: 352,800 entries
        locs = np.random.default_rng(0).random((800, 2))
        tracemalloc.start()
        with pytest.raises(ValueError, match="^Vecchia plan at n=800, m=799: 512000000 > 33554432 entries"):
            VecchiaPlan(locs, np.arange(800), 799)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 800 * 800 * 8  # refused before its n x n distance matrix

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_search(self, data):
        # exact order, nearest first with ties to the lowest index, on
        # uniform points and on lattices whose tied distances are exact
        n = data.draw(st.integers(1, 40), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="lattice"):
            side = int(math.ceil(math.sqrt(n)))
            cells = rng.permutation(side * side)[:n]
            locs = np.column_stack([cells % side, cells // side]) * 0.125
        else:
            locs = rng.random((n, 2))
        order = maxmin_order(locs) if data.draw(st.booleans(), label="maxmin") else rng.permutation(n)
        m = data.draw(st.integers(1, n + 2), label="m")
        plan = nn_conditioning_sets(locs, order, m)
        assert conditioning_sets(plan) == nearest_earlier_oracle(locs, order, m)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(point_sets(), st.integers(1, 8))
    def test_pair_distances_are_cdist_entries(self, locs, m):
        # every real block entry's distance is the cdist entry of its two
        # points, bit for bit
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m)
        real = plan.pair_index < plan.pair_dists.size
        rows = np.broadcast_to(plan.idx[:, :, None], real.shape)[real]
        cols = np.broadcast_to(plan.idx[:, None, :], real.shape)[real]
        got = plan.pair_dists[plan.pair_index[real]]
        assert got.tobytes() == cdist(locs, locs)[rows, cols].tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "lattice"])
    @pytest.mark.parametrize("n", [21, 22, 100, 400, 801])
    def test_packed_arrays_equal_whole_sort_reference(self, n, kind):
        # dtype, shape and bytes of every packed array against full stable
        # argsorts and np.unique, in maxmin and random order; m = n - 1 and
        # n + 2 only up to n = 100, since pair_index holds about n^3 entries
        rng = np.random.default_rng(n)
        if kind == "lattice":
            side = int(math.ceil(math.sqrt(n)))
            cells = rng.permutation(side * side)[:n]
            locs = np.column_stack([cells % side, cells // side]) * 0.125
        else:
            locs = rng.random((n, 2)) ** (3 if kind == "clustered" else 1)
        tied = set()
        for order in (maxmin_order(locs), rng.permutation(n)):
            earlier = cdist(locs[order], locs[order])
            earlier[np.triu_indices(n)] = np.inf
            earlier.sort(axis=1)
            for m in [1, 20, n - 1, n + 2] if n <= 100 else [1, 20]:
                if m < n - 1 and np.any(earlier[m + 1 :, m - 1] == earlier[m + 1 :, m]):
                    tied.add(m)  # some point's m-th and (m+1)-th nearest earlier points tie
                plan = nn_conditioning_sets(locs, order, m)
                for name, want in vecchia_plan_reference(locs, order, m).items():
                    got = getattr(plan, name)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, m)
                    assert got.tobytes() == want.tobytes(), (name, m)
        if kind == "lattice":
            assert tied == {m for m in (1, 20) if m < n - 1}

    def test_peak_memory_at_most_four_pair_index_arrays(self):
        # the whole-row argsort and np.unique peaked at 11.4 MB, eight
        # pair_index arrays, at n = 400 and m = 20
        locs = random_dataset(400, 24).locations
        order = maxmin_order(locs)
        plan = nn_conditioning_sets(locs, order, 20)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            nn_conditioning_sets(locs, order, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * plan.pair_index.nbytes

    def test_non_finite_location_rejected(self):
        locs = np.random.default_rng(0).random((5, 2))
        locs[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite coordinates"):
            nn_conditioning_sets(locs, np.arange(5), m=2)

    def test_invalid_order_rejected(self):
        locs = np.random.default_rng(0).random((5, 2))
        with pytest.raises(ValueError, match="permutation"):
            nn_conditioning_sets(locs, np.array([0, 1, 2, 3, 3]), m=2)

    def test_packed_blocks_are_not_a_constructor_argument(self):
        plan = nn_conditioning_sets(random_dataset(6, 1).locations, np.arange(6), m=2)
        for name in ("idx", "k", "pair_index"):
            with pytest.raises(TypeError, match=name):
                VecchiaPlan(plan.locations, plan.order, plan.m, **{name: getattr(plan, name)})

    def test_plan_is_frozen(self):
        locs = random_dataset(8, 2).locations
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.m = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.idx = plan.idx.copy()
        for name in ("idx", "pair_index", "pair_dists", "locations", "order"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name).flat[0] = 0

    def test_caller_arrays_stay_writeable_and_unshared(self):
        locs = random_dataset(8, 3).locations.copy()
        order = maxmin_order(locs)
        plan = nn_conditioning_sets(locs, order, m=3)
        built = plan.idx.copy()
        locs[:] = 0.0
        order[:] = 0
        np.testing.assert_array_equal(plan.idx, built)
        assert sorted(plan.order.tolist()) == list(range(8))

    def test_padding_entries_use_the_two_slots(self):
        locs = random_dataset(7, 4).locations
        plan = nn_conditioning_sets(locs, maxmin_order(locs), m=3)
        slots = np.append(np.zeros(plan.pair_dists.size), (0.0, 1.0))[plan.pair_index]
        for j in range(plan.n):
            pad = np.arange(plan.idx.shape[1]) > plan.k[j]
            np.testing.assert_array_equal(slots[j][pad][:, pad], np.eye(pad.sum()))
            assert np.all(slots[j][~pad][:, pad] == 0) and np.all(slots[j][pad][:, ~pad] == 0)
            real = plan.pair_index[j][~pad][:, ~pad]
            assert np.all(real < plan.pair_dists.size)
            pts = plan.idx[j][~pad]
            np.testing.assert_array_equal(
                plan.pair_dists[real], np.linalg.norm(locs[pts][:, None] - locs[pts][None], axis=2)
            )


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


class TestBatchedSolves:
    def test_stacked_right_hand_sides_solve_as_each_alone(self):
        rng = np.random.default_rng(48)
        a = rng.normal(size=(30, 6, 6))
        chol = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 6 * np.eye(6))
        rhs = rng.normal(size=(2, 30, 6))
        for solve, trans in ((forward_solve_batched, "N"), (backward_solve_batched, "T")):
            stacked = solve(chol, rhs)
            for c in range(2):
                alone = solve(chol, rhs[c])
                assert np.array_equal(stacked[c], alone)
                reference = [solve_triangular(chol[b], rhs[c, b], lower=True, trans=trans) for b in range(30)]
                np.testing.assert_allclose(alone, reference, rtol=1e-12, atol=1e-12)


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

    @staticmethod
    def reference_case(n, weighted, median_cutoff):
        """(psi, data, weights, cutoff) of one case of the reference tests."""
        data = random_dataset(n, 49)
        weights = np.random.default_rng(n).uniform(0.2, 3.0, n) if weighted else None
        cutoff = float(np.median(data.condensed_distances())) if median_cutoff else None
        return ModelParams.from_values(3.7, 1.1, 0.08, 0.2), data, weights, cutoff

    @pytest.mark.parametrize("n", [2, 30, 300])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("median_cutoff", [False, True])
    def test_equals_reference_bit_for_bit(self, n, weighted, median_cutoff):
        psi, data, weights, cutoff = self.reference_case(n, weighted, median_cutoff)
        got = pairwise_marginal_nll(psi, data, weights, cutoff)
        value, profile, _ = pairwise_reference(psi, data, weights, cutoff)
        assert float(got).hex() == float(value).hex()
        assert [float(x).hex() for x in got.profile[:3]] == [float(x).hex() for x in profile[:3]]
        assert got.profile.grad.tobytes() == profile.grad.tobytes()

    @pytest.mark.parametrize("n", [2, 30, 300])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("median_cutoff", [False, True])
    def test_rows_equal_reference_bit_for_bit(self, n, weighted, median_cutoff):
        # a sum over many pairs hides a one-ulp change in a few summands,
        # so the per-pair rows are compared before they are summed
        psi, data, weights, cutoff = self.reference_case(n, weighted, median_cutoff)
        iu, ju, d = data.pairs(cutoff)
        rows = np.empty((13, d.size))
        _pair_rows(rows, psi, data.values - psi.mu, weights, iu, ju, d)
        summands = pairwise_reference(psi, data, weights, cutoff)[2]
        assert len(summands) == len(rows)
        for k, (row, summand) in enumerate(zip(rows, summands)):
            assert row.tobytes() == summand.tobytes(), f"row {k} differs"


def assert_matches_whole_array(data, weights, cutoff):
    """The sliced evaluation equals one with the whole pair list in a
    single slice, value and profile, bit for bit."""
    psi = ModelParams.from_values(3.7, 1.1, 0.08, 0.2)
    got = pairwise_marginal_nll(psi, data, weights, cutoff)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isiw.likelihood, "PAIR_CHUNK", data.pairs(cutoff)[2].size)
        whole = pairwise_marginal_nll(psi, data, weights, cutoff)
    assert float(got).hex() == float(whole).hex()
    assert got.profile[:3] == whole.profile[:3]
    assert got.profile.grad.tobytes() == whole.profile.grad.tobytes()


class TestPairwiseChunks:
    """Slicing the pair list changes no bit of the value or the profile,
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
from isiw import Dataset, ModelParams, maxmin_order, nn_conditioning_sets, pairwise_marginal_nll, vecchia_nll

m = int(sys.argv[1])  # 0 for the pairwise NLL, else the Vecchia NLL's neighbour count
psi = ModelParams.from_values(4.0, 1.5, 0.15, 0.1)
out = {}
for n, calls in json.loads(sys.argv[2]):
    rng = np.random.default_rng(n)
    data = Dataset(locations=rng.random((n, 2)), values=rng.normal(4.0, 1.2, n))
    weights = rng.uniform(0.2, 3.0, n)
    if m:
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m)
        def nll():
            vecchia_nll(psi, data, plan, weights)
    else:
        def nll():
            pairwise_marginal_nll(psi, data, weights)
    for _ in range(3):
        nll()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        nll()
    out[n] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
print(json.dumps(out))
"""


def minor_faults_per_call(m, cases):
    """Minor page faults per NLL call for each (n, calls) case, measured in
    a fresh interpreter, so the allocator state is that of a real run."""
    env = {**os.environ, "PYTHONPATH": str(Path(isiw.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT, str(m), json.dumps(cases)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


GLIBC_MALLOC = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or platform.libc_ver()[0] != "glibc"
    or "LD_PRELOAD" in os.environ,
    reason="the fault bound assumes glibc's malloc and its mmap and trim thresholds",
)


@GLIBC_MALLOC
def test_pairwise_nll_reuses_its_memory():
    # The whole-array evaluation re-faults its pair-length temporaries on
    # every call: about 2,900 minor faults at n=400 and 9,300 at n=800.
    faults = minor_faults_per_call(0, [(400, 60), (800, 20)])
    assert all(per_call < 100 for per_call in faults.values()), faults


@GLIBC_MALLOC
@pytest.mark.parametrize("m", [20, 30])
def test_vecchia_nll_reuses_its_memory(m):
    # A block-sized copy of the plan's read-only index array in each gather
    # lifts a call's heap peak past glibc's trim threshold when the blocks
    # share one two-array allocation: about 1,350 minor faults per call at
    # m=20 and 1,950 at m=30.
    faults = minor_faults_per_call(m, [(400, 20)])
    assert all(per_call < 100 for per_call in faults.values()), faults


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_non_positive_or_non_finite_weight_rejected(bad):
    data = random_dataset(10, 32)
    plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=3)
    w = np.ones(10)
    w[4] = bad
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        vecchia_nll(PSI, data, plan, w)
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        pairwise_marginal_nll(PSI, data, w)


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

    def test_kind_cannot_change_after_its_checks(self):
        # a weighted pairwise objective must not turn into an exact one
        objective = Objective(kind="pairwise-marginal", weights=np.full(15, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            objective.kind = "exact"
        assert objective.kind == "pairwise-marginal"

    def test_weights_are_a_private_copy(self):
        data = random_dataset(15, 72)
        weights = np.linspace(0.5, 2.0, 15)
        objective = Objective(kind="pairwise-marginal", weights=weights)
        before = objective.nll(PSI, data)
        weights[:] = 1.0
        assert objective.nll(PSI, data) == before
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            objective.weights[0] = 1.0

    def test_dispatch_matches_functions(self):
        data = random_dataset(15, 70)
        plan = nn_conditioning_sets(data.locations, maxmin_order(data.locations), m=5)
        assert Objective(kind="exact").nll(PSI, data) == exact_nll(PSI, data)
        assert Objective(kind="vecchia", plan=plan).nll(PSI, data) == vecchia_nll(PSI, data, plan)
        assert Objective(kind="pairwise-marginal").nll(PSI, data) == pairwise_marginal_nll(PSI, data)
