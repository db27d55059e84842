"""Bridge construction: sorting, closed-form parameters, histogram estimators."""

import numpy as np
import pytest

from markov_bridge import (
    ProductDistribution,
    UnsolvableSupportError,
    estimate_marginals,
    evolve_rows,
    exact_rate_matrices,
    permutation_from_data,
)
from markov_bridge.core import state_frequencies
from markov_bridge.reference import materialize_dense

from oracles import random_positive_vector, taylor_expm

LN2 = np.log(2.0)


def row(probs):
    """One probability vector as a one-row product distribution."""
    return ProductDistribution(np.asarray(probs, dtype=np.float64)[None, :])


def sorted_chain(p, q):
    """The cumulative-ratio chain of the one-row pair (p, q) under its sort."""
    perm = permutation_from_data(p, q)[0]
    return perm, np.cumsum(p.probs[0][perm]) / np.cumsum(q.probs[0][perm])


def solve(p, q):
    """The rate matrix of a one-row pair, as a one-chain object."""
    return exact_rate_matrices(p, q)


class TestSortPermutation:
    def test_three_state_example(self):
        # ratios (3.5, 0.2, 0.667) sort to order (1, 2, 0)
        perm, chain = sorted_chain(row([0.7, 0.1, 0.2]), row([0.2, 0.5, 0.3]))
        assert list(perm) == [1, 2, 0]
        assert np.allclose(chain, [0.2, 0.375, 1.0], atol=1e-12)

    def test_equal_distributions_identity(self):
        p = row([0.3, 0.3, 0.4])
        assert list(permutation_from_data(p, p)[0]) == [0, 1, 2]

    def test_two_state(self):
        assert list(permutation_from_data(row([0.25, 0.75]), row([0.5, 0.5]))[0]) == [0, 1]

    def test_unsolvable_support(self):
        with pytest.raises(UnsolvableSupportError):
            permutation_from_data(row([0.5, 0.5]), row([0.0, 1.0]))

    def test_zero_zero_placed_first(self):
        assert permutation_from_data(row([0.0, 0.4, 0.6]), row([0.0, 0.5, 0.5]))[0, 0] == 0

    def test_chain_nondecreasing_fuzz(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(2, 33))
            _, chain = sorted_chain(row(random_positive_vector(rng, n)), row(random_positive_vector(rng, n)))
            assert np.all(np.diff(chain) >= -1e-12)
            assert chain[-1] == pytest.approx(1.0, abs=1e-12)


class TestExactRateMatrix:
    def test_half_life_example(self):
        Q = solve(row([0.25, 0.75]), row([0.5, 0.5]))
        assert list(Q.perm[0]) == [0, 1]
        assert Q.a[0, 0] == pytest.approx(LN2, abs=1e-12)
        # cross-check against the dense series oracle
        recovered = np.array([0.5, 0.5]) @ taylor_expm(materialize_dense(Q)[0])
        assert np.abs(recovered - [0.25, 0.75]).max() <= 1e-12

    def test_identical_distributions_zero_matrix(self):
        p = row([0.2, 0.5, 0.3])
        assert np.all(solve(p, p).a == 0.0)

    def test_round_trip_n8(self):
        rng = np.random.default_rng(103)
        p = row(random_positive_vector(rng, 8))
        q = row(random_positive_vector(rng, 8))
        Q = solve(p, q)
        assert np.abs(evolve_rows(q.probs, Q, 1.0)[0, 0] - p.probs[0]).max() <= 1e-9

    def test_round_trip_property(self):
        rng = np.random.default_rng(107)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 33))
            p = row(random_positive_vector(rng, n))
            q = row(random_positive_vector(rng, n))
            Q = solve(p, q)
            worst = max(worst, float(np.abs(evolve_rows(q.probs, Q, 1.0)[0, 0] - p.probs[0]).max()))
        assert worst <= 1e-9

    def test_parameters_nonnegative(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            n = int(rng.integers(2, 17))
            Q = solve(row(random_positive_vector(rng, n)), row(random_positive_vector(rng, n)))
            assert Q.a.min() >= 0.0

    def test_single_parameter_perturbation_breaks_round_trip(self):
        # the n-1 parameters are a minimal set: nudging any one of them by
        # 1e-3 must move the recovered target measurably
        rng = np.random.default_rng(113)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            p = row(random_positive_vector(rng, n, floor_scale=0.3))
            q = row(random_positive_vector(rng, n, floor_scale=0.3))
            Q = solve(p, q)
            k = int(rng.integers(0, n - 1))
            bumped = Q.a.copy()
            bumped[0, k] += 1e-3
            residual = np.abs(evolve_rows(q.probs, Q.replace_a(bumped), 1.0)[0, 0] - p.probs[0]).max()
            assert residual > 1e-5

    def test_zero_zero_prefix_contributes_zero_rate(self):
        p = row([0.0, 0.4, 0.6])
        q = row([0.0, 0.5, 0.5])
        Q = solve(p, q)
        assert Q.a[0, 0] == 0.0
        assert np.abs(evolve_rows(q.probs, Q, 1.0)[0, 0] - p.probs[0]).max() <= 1e-12

    def test_zero_target_prefix_rejected(self):
        # moving all mass out of a state needs an unbounded rate
        with pytest.raises(UnsolvableSupportError):
            exact_rate_matrices(row([0.0, 1.0]), row([0.5, 0.5]))


class TestEstimateMarginals:
    def test_counting(self):
        dist = estimate_marginals(state_frequencies(np.array([[0], [0], [1], [1]]), 2))
        assert np.allclose(dist.probs[0], [0.5, 0.5], atol=1e-6)

    def test_smoothing_two_dims(self):
        dist = estimate_marginals(state_frequencies(np.array([[0, 1], [0, 1]]), 2))
        delta = 1e-6 / (1.0 + 2e-6)
        assert np.allclose(dist.probs[0], [1.0 - delta, delta], atol=1e-12)
        assert np.allclose(dist.probs[1], [delta, 1.0 - delta], atol=1e-12)

    def test_single_sample_three_states(self):
        dist = estimate_marginals(state_frequencies(np.array([[2]]), 3))
        delta = 1e-6 / (1.0 + 3e-6)
        assert np.allclose(dist.probs[0], [delta, delta, 1.0 - 2 * delta], atol=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            estimate_marginals(state_frequencies(np.empty((0, 2), dtype=np.int64), 4))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            estimate_marginals(state_frequencies(np.array([[5]]), 4))


class TestPermutationFromData:
    def test_matches_single_dim_results(self):
        mu = ProductDistribution([[0.7, 0.1, 0.2], [0.7, 0.1, 0.2]])
        term = ProductDistribution([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
        perms = permutation_from_data(mu, term)
        assert [list(p) for p in perms] == [[1, 2, 0], [1, 2, 0]]

    def test_pair_of_another_shape_refused(self):
        with pytest.raises(ValueError, match="share"):
            permutation_from_data(ProductDistribution.uniform(4, 3), ProductDistribution.uniform(4, 2))

    def test_identity_when_equal(self):
        mu = ProductDistribution.uniform(4, 3)
        perms = permutation_from_data(mu, mu)
        assert all(list(p) == [0, 1, 2, 3] for p in perms)

    def test_single_dim(self):
        mu = ProductDistribution([[0.7, 0.1, 0.2]])
        term = ProductDistribution([[0.2, 0.5, 0.3]])
        assert list(permutation_from_data(mu, term)[0]) == [1, 2, 0]

    def test_rows_match_one_row_calls_bit_for_bit(self):
        # ties, zero-zero states and a row that needs no sorting, solved
        # together and one row at a time
        rng = np.random.default_rng(127)
        p = np.array([
            [0.0, 0.3, 0.3, 0.4, 0.0],
            [0.1, 0.1, 0.2, 0.2, 0.4],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            *[random_positive_vector(rng, 5) for _ in range(3)],
        ])
        q = np.array([
            [0.0, 0.25, 0.25, 0.5, 0.0],
            [0.2, 0.2, 0.1, 0.1, 0.4],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            *[random_positive_vector(rng, 5) for _ in range(3)],
        ])
        p_all, q_all = ProductDistribution(p), ProductDistribution(q)
        perms = permutation_from_data(p_all, q_all)
        Q = exact_rate_matrices(p_all, q_all)
        assert perms.shape == (6, 5) and Q.d == 6
        for i in range(6):
            one = exact_rate_matrices(row(p[i]), row(q[i]))
            assert np.array_equal(perms[i], permutation_from_data(row(p[i]), row(q[i]))[0])
            assert np.array_equal(Q.perm[i], one.perm[0]) and np.array_equal(Q.perm[i], perms[i])
            assert Q.a[i].tobytes() == one.a[0].tobytes()
