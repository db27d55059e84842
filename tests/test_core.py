"""Core types and kernels: frozen examples, oracle equivalence, invariants."""

import numpy as np
import pytest

from markov_bridge import (
    DivergenceError,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    evolve_rows,
    kernel_rows,
    kl_divergence,
    transition_kernel,
)
from markov_bridge import core
from markov_bridge.checkpoint import Checkpoint
from markov_bridge.core import row_kl_sum, sample_categorical, state_frequencies
from markov_bridge.data import Dataset
from markov_bridge.matrix_learning import init_rate_matrices, jq_grad
from markov_bridge.reference import materialize_dense
from markov_bridge.score_learning import ScoreBatch

from oracles import kernel_longdouble, step_probs, taylor_expm

LN2 = np.log(2.0)


def random_matrix(rng, n=None, n_max=16, a_max=3.0):
    """A one-chain rate matrix."""
    n = int(rng.integers(2, n_max + 1)) if n is None else n
    return FactorizedRateMatrix(rng.permutation(n)[None, :], rng.uniform(0.0, a_max, (1, n - 1)))


def init_chain(rng, n, d, scheme):
    """d rate matrices of an init scheme, each under its own random permutation."""
    return init_rate_matrices(np.stack([rng.permutation(n) for _ in range(d)]), scheme)


class TestProductDistribution:
    def test_mismatched_n_rejected(self):
        # marginals of different state counts make a ragged array
        with pytest.raises(ValueError):
            ProductDistribution([[0.5, 0.5], [0.2, 0.3, 0.5]])

    @pytest.mark.parametrize("bad", [
        [[0.5, 0.5], [np.nan, 1.0]],
        [[0.5, 0.5], [np.inf, 1.0]],
        [[1.0, -np.inf, np.inf]],
        [[0.5, 0.5], [-0.1, 1.1]],
        [[0.5, 0.5], [0.5, 0.6]],  # the second row sums to 1.1
        [0.5, 0.5],  # one row, not a (d, n) array
        np.empty((0, 2)),
    ])
    def test_invalid_rows_rejected(self, bad):
        with pytest.raises(ValueError):
            ProductDistribution(bad)

    def test_immutable(self):
        dist = ProductDistribution.uniform(2, 2)
        with pytest.raises(ValueError):
            dist.probs[0, 0] = 1.0

    def test_uniform(self):
        dist = ProductDistribution.uniform(4, 3)
        assert dist.d == 3 and dist.n == 4
        assert np.allclose(dist.probs, 0.25)


class TestFactorizedRateMatrix:
    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            FactorizedRateMatrix([[0, 1]], [[-0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_a_rejected(self, bad):
        with pytest.raises(ValueError):
            FactorizedRateMatrix([[0, 1, 2]], [[0.5, bad]])

    def test_bad_inverse_rejected(self):
        # a perm with no inverse on 0..n-1, or whose n disagrees with a
        for perm in ([[0, 0]], [[1, 2]], [[[0, 1]]], [[0, 1, 2]]):
            with pytest.raises(ValueError):
                FactorizedRateMatrix(perm, [[1.0]])

    def test_derived_fields(self):
        Q = FactorizedRateMatrix([[2, 0, 1]], [[1.0, 2.0]])
        assert Q.n == 3 and Q.d == 1 and list(Q.inv_perm[0]) == [1, 2, 0]
        with pytest.raises(TypeError):
            FactorizedRateMatrix([[0, 1]], [[1.0]], n=2)

    def test_lambdas(self):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 2.0]])
        assert np.allclose(Q.lambdas[0], [-3.0, -2.0, 0.0])

    @pytest.mark.parametrize("perm, a", [
        ([[0, 1, 2], [2, 0, 2]], [[1.0, 1.0], [1.0, 1.0]]),  # only row 1 is no permutation
        ([[0, 1, 2], [2, 0, 1]], [[1.0, 1.0]]),  # perm holds two chains, a one
        ([0, 1, 2], [1.0, 1.0]),  # one chain, not a (d, n) array
        ([[0, 1, 2], [2, 0, 1]], [[1.0, 1.0], [1.0, np.nan]]),  # a non-finite rate in row 1
    ])
    def test_bad_rows_rejected(self, perm, a):
        with pytest.raises(ValueError):
            FactorizedRateMatrix(perm, a)


class TestChainsMatchOneRowObjects:
    """Each chain of a d-row object computes what its one-row slice computes."""

    @pytest.fixture(params=["absorbing_text", "uniform_small", "random"])
    def system(self, request):
        rng = np.random.default_rng(47)
        n, d, B = 7, 5, 64
        perms = np.stack([rng.permutation(n) for _ in range(d)])
        if request.param == "random":
            Q = FactorizedRateMatrix(perms, rng.uniform(0.0, 2.0, (d, n - 1)))
        else:
            Q = init_rate_matrices(perms, request.param)
        slices = [FactorizedRateMatrix(Q.perm[i:i + 1], Q.a[i:i + 1]) for i in range(d)]
        return rng, Q, slices, B

    def test_kernels_and_marginals_bit_for_bit(self, system):
        rng, Q, slices, B = system
        betas = rng.uniform(0.0, 4.0, B)
        states = rng.integers(0, Q.n, size=(B, Q.d))
        p = rng.dirichlet(np.ones(Q.n), size=Q.d)
        rows = kernel_rows(Q, betas, states)
        marginals = evolve_rows(p, Q, betas)
        for i, one in enumerate(slices):
            assert np.array_equal(rows[:, i], kernel_rows(one, betas, states[:, i:i + 1])[:, 0])
            assert np.array_equal(marginals[:, i], evolve_rows(p[i:i + 1], one, betas)[:, 0])

    def test_gradient_rows_and_row_kl_sum(self, system):
        # one pass over all chains sums in another order than one call per chain
        rng, Q, slices, B = system
        p0 = ProductDistribution(rng.dirichlet(np.ones(Q.n), size=Q.d))
        freqs = state_frequencies(rng.integers(0, Q.n, size=(B, Q.d)), Q.n)
        schedule = NoiseSchedule(sigma_min=0.4, sigma_max=2.0)
        grads = jq_grad(Q, p0, freqs, schedule)[1]
        kl = row_kl_sum(Q, 1.3, freqs, p0.probs)[0]
        kl_parts = 0.0
        for i, one in enumerate(slices):
            p0_i = ProductDistribution(p0.probs[i:i + 1])
            grad_i = jq_grad(one, p0_i, freqs[i:i + 1], schedule)[1]
            np.testing.assert_allclose(grads[i], grad_i[0], rtol=1e-12, atol=1e-12 * np.abs(grad_i).max())
            kl_parts += row_kl_sum(one, 1.3, freqs[i:i + 1], p0.probs[i:i + 1])[0]
        assert kl == pytest.approx(kl_parts, rel=1e-12, abs=0.0)


class TestNoiseSchedule:
    def test_beta_at_zero(self):
        assert NoiseSchedule(sigma_min=0.1, sigma_max=10.0).beta(0.0) == 0.0

    def test_beta_closed_form(self):
        # integral of the linear sigma: 0.1 + 9.9/2
        assert NoiseSchedule(sigma_min=0.1, sigma_max=10.0).beta(1.0) == pytest.approx(5.05, abs=1e-12)

    def test_constant_sigma(self):
        assert NoiseSchedule(sigma_min=1.0, sigma_max=1.0).beta(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error(self):
        schedule = NoiseSchedule()
        for t in (-0.1, 1.5, float("nan"), [0.5, float("nan")]):
            with pytest.raises(ValueError):
                schedule.beta(t)
            with pytest.raises(ValueError):
                schedule.sigma(t)

    @pytest.mark.parametrize("sigmas", [(0.0, 1.0), (2.0, 1.0), (0.1, np.inf), (np.inf, np.inf), (0.1, np.nan)])
    def test_invalid_sigmas_refused(self, sigmas):
        # an infinite sigma_max once gave sigma(0.0) = nan
        with pytest.raises(ValueError, match="sigma_min <= sigma_max < inf"):
            NoiseSchedule(*sigmas)

    def test_monotone(self):
        schedule = NoiseSchedule(sigma_min=0.2, sigma_max=4.0)
        grid = np.linspace(0.0, 1.0, 101)
        assert np.all(np.diff(schedule.beta(grid)) > 0)


class TestTransitionKernel:
    def test_half_life_example(self):
        Q = FactorizedRateMatrix([[0, 1]], [[LN2]])
        assert np.allclose(transition_kernel(Q, 1.0)[0], [[0.5, 0.5], [0.0, 1.0]], atol=1e-12)

    def test_zero_beta_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Q = random_matrix(rng)
            assert np.allclose(transition_kernel(Q, 0.0)[0], np.eye(Q.n), atol=1e-15)

    def test_absorbing_limit(self):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[0.0, 1.0]])
        K = transition_kernel(Q, 80.0)[0]
        assert np.allclose(K, np.tile([0.0, 0.0, 1.0], (3, 1)), atol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            Q = random_matrix(rng)
            beta = rng.uniform(0.0, 5.0)
            err = np.abs(transition_kernel(Q, beta)[0] - taylor_expm(beta * materialize_dense(Q)[0])).max()
            worst = max(worst, float(err))
        assert worst <= 1e-8

    def test_row_stochastic(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            Q = random_matrix(rng)
            K = transition_kernel(Q, rng.uniform(0.0, 5.0))[0]
            assert np.abs(K.sum(axis=1) - 1.0).max() <= 1e-10
            assert K.min() >= 0.0

    def test_semigroup(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            Q = random_matrix(rng, n_max=10)
            b1, b2 = rng.uniform(0.0, 2.5, 2)
            lhs = transition_kernel(Q, b1)[0] @ transition_kernel(Q, b2)[0]
            assert np.abs(lhs - transition_kernel(Q, b1 + b2)[0]).max() <= 1e-8

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            transition_kernel(FactorizedRateMatrix([[0, 1]], [[1.0]]), -0.5)

    @pytest.mark.parametrize("beta", [-1.0, np.nan, np.inf])
    def test_rows_and_marginals_refuse_bad_beta(self, beta):
        # beta = -1 gave rows like [3.32, -1.31, -1.01], and NaN gave NaN rows
        Q = FactorizedRateMatrix([[2, 0, 1]], [[0.7, 1.2]])
        for betas in (beta, [0.5, beta]):
            with pytest.raises(ValueError, match="beta"):
                kernel_rows(Q, betas, [[0], [1]])
            with pytest.raises(ValueError, match="beta"):
                evolve_rows([[0.2, 0.3, 0.5]], Q, betas)
        with pytest.raises(ValueError, match="beta"):
            transition_kernel(Q, beta)
        with pytest.raises(ValueError, match="beta"):
            row_kl_sum(Q, beta, [[0.2, 0.3, 0.5]], [[0.3, 0.3, 0.4]])


class TestKernelRows:
    def test_matches_full_kernel(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            Q = random_matrix(rng, n_max=10)
            betas = rng.uniform(0.0, 4.0, 8)
            states = rng.integers(0, Q.n, 8)
            rows = kernel_rows(Q, betas, states[:, None])[:, 0]
            for b, (beta, x) in enumerate(zip(betas, states)):
                assert np.allclose(rows[b], transition_kernel(Q, beta)[0, x], atol=1e-13)

    def test_evolve_rows_refuses_rows_of_another_shape(self):
        Q = FactorizedRateMatrix([[2, 0, 1], [0, 1, 2]], [[0.7, 1.2], [0.3, 0.4]])
        for p in ([[0.2, 0.3, 0.5]], np.full((2, 4), 0.25)):
            with pytest.raises(ValueError, match="shape"):
                evolve_rows(p, Q, 0.5)

    @pytest.mark.parametrize("p", [[[np.nan, 0.5, 0.5]], [[-0.5, 1.0, 0.5]], [[np.inf, 0.0, 0.0]]])
    def test_evolve_rows_refuses_bad_masses(self, p):
        # these gave [[nan, nan, 0.193]], [[-0.193, 1, 0.193]] and [[inf, inf, 0]]
        Q = FactorizedRateMatrix([[2, 0, 1]], [[0.7, 1.2]])
        with pytest.raises(ValueError, match="masses"):
            evolve_rows(p, Q, 0.5)

    def test_evolve_rows_matches_evolve(self):
        # the telescoped marginals equal p pushed through the full kernel
        rng = np.random.default_rng(19)
        for _ in range(50):
            Q = random_matrix(rng, n_max=10)
            p = rng.dirichlet(np.ones(Q.n))
            betas = rng.uniform(0.0, 4.0, 5)
            rows = evolve_rows(p[None, :], Q, betas)[:, 0]
            for b, beta in enumerate(betas):
                assert np.allclose(rows[b], p @ transition_kernel(Q, beta)[0], atol=1e-13)

    @pytest.mark.parametrize("states", [[[-1]], [[3]], [[0, 1]], [0]])
    def test_states_outside_the_chain_refused(self, states):
        # -1 would otherwise read state n-1's row; a row must be d states wide
        Q = FactorizedRateMatrix([[2, 0, 1]], [[0.5, 1.0]])
        with pytest.raises(ValueError):
            kernel_rows(Q, 0.3, states)

    @pytest.mark.parametrize("a", [1e-6, 1e-10, 0.0])
    def test_tiny_rates_match_extended_precision(self, a):
        # the rates uniform_small and absorbing_text start from: a difference
        # of exponentials keeps only about 1e-16 / (beta * a) of such an entry
        n = 6
        perm = np.array([[3, 0, 5, 1, 4, 2], [1, 4, 0, 2, 5, 3]])
        rates = np.array([[a, a, a, a, 1.0], [a, a, a, a, a]])
        Q = FactorizedRateMatrix(perm, rates)
        for beta in (1e-3, 0.3, 2.0, 9.0):
            rows = kernel_rows(Q, beta, np.broadcast_to(np.arange(n)[:, None], (n, 2)))
            for i in range(2):
                ref = kernel_longdouble(perm[i], rates[i], beta)
                err = np.abs(rows[:, i].astype(np.longdouble) - ref)
                assert np.all(err <= 1e-13 * ref), float((err / np.where(ref > 0, ref, 1)).max())

    def test_bit_identical_across_block_counts(self, monkeypatch):
        rng = np.random.default_rng(23)
        n, d, B = 7, 5, 200
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.0, 2.0, (d, n - 1)))
        betas = rng.uniform(0.0, 4.0, B)
        states = rng.integers(0, n, size=(B, d))
        one = kernel_rows(Q, betas, states)
        for rows_per_block in (1, 7, 64):
            monkeypatch.setattr(core, "BLOCK_ELEMENTS", rows_per_block * d * n)
            assert len(core.row_blocks(B, d * n)) >= 3
            assert np.array_equal(kernel_rows(Q, betas, states), one)

    def test_shared_beta_matches_per_row_betas(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            Q = random_matrix(rng, n_max=10)
            beta = rng.uniform(0.0, 4.0)
            states = rng.integers(0, Q.n, 8)
            shared = kernel_rows(Q, beta, states[:, None])
            assert np.allclose(shared, kernel_rows(Q, np.full(8, beta), states[:, None]), rtol=0.0, atol=1e-15)


class TestMaterializeDense:
    def test_two_state_example(self):
        Q = FactorizedRateMatrix([[0, 1]], [[1.0]])
        assert np.allclose(materialize_dense(Q)[0], [[-1.0, 1.0], [0.0, 0.0]], atol=0)

    def test_zero_parameters(self):
        Q = FactorizedRateMatrix(np.arange(5)[None, :], np.zeros((1, 4)))
        assert np.all(materialize_dense(Q) == 0.0)

    def test_permuted_three_state(self):
        # swapping states 0 and 2 conjugates the upper-triangular generator
        Q = FactorizedRateMatrix([[2, 1, 0]], [[1.0, 2.0]])
        expected = np.array([[0.0, 0.0, 0.0], [2.0, -2.0, 0.0], [2.0, 1.0, -3.0]])
        assert np.allclose(materialize_dense(Q)[0], expected, atol=0)

    def test_rate_matrix_properties_any_permutation(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            Q = random_matrix(rng)
            dense = materialize_dense(Q)[0]
            assert np.abs(dense.sum(axis=1)).max() <= 1e-12 * Q.n
            off = dense - np.diag(np.diag(dense))
            assert off.min() >= 0.0


class TestEvolve:
    def test_half_life_mixture(self):
        Q = FactorizedRateMatrix([[0, 1]], [[LN2]])
        out = evolve_rows([[0.5, 0.5]], Q, 1.0)[0, 0]
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_zero_beta_identity(self):
        rng = np.random.default_rng(29)
        Q = random_matrix(rng, n=6)
        p = rng.dirichlet(np.ones(6))
        assert np.allclose(evolve_rows(p[None, :], Q, 0.0)[0, 0], p, atol=1e-15)

    def test_absorbing_concentrates_on_permuted_last(self):
        perm = np.array([3, 0, 2, 1])
        a = np.zeros(3)
        a[-1] = 1.0
        Q = FactorizedRateMatrix(perm[None, :], a[None, :])
        start = np.zeros(4)
        start[0] = 1.0
        out = evolve_rows(start[None, :], Q, 60.0)[0, 0]
        assert out[perm[-1]] == pytest.approx(1.0, abs=1e-12)

    def test_conservation_fuzz(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(10000):
            Q = random_matrix(rng, n_max=12)
            scale = rng.uniform(0.1, 3.0)
            v = rng.uniform(0.0, scale, Q.n)
            out = evolve_rows(v[None, :], Q, rng.uniform(0.0, 5.0))[0, 0]
            worst = max(worst, abs(float(out.sum() - v.sum())))
        assert worst <= 1e-12


class TestReverseRateRow:
    """The reversed row refuses a negative ratio; the rates into the current
    state are checked against dense generator columns in the score loss's tests."""

    def test_negative_ratio_rejected(self):
        Q = FactorizedRateMatrix([[0, 1]], [[1.0]])
        schedule = NoiseSchedule(sigma_min=1.0, sigma_max=1.0)
        with pytest.raises(DivergenceError):
            step_probs(np.array([[1]]), 0.5, 0.4, np.array([[[-1.0, 1.0]]]), Q, schedule)


class TestSmallHelpers:
    def test_kl_divergence_zero_and_example(self):
        p = np.array([0.5, 0.5])
        assert kl_divergence(p, p) == 0.0
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)

    def test_sample_categorical_deterministic_and_in_range(self):
        rng = np.random.default_rng(41)
        rows = rng.dirichlet(np.ones(4), size=1000)
        draws = sample_categorical(np.moveaxis(rows, -1, 0).copy(), np.random.default_rng(5).random(1000))
        again = sample_categorical(np.moveaxis(rows, -1, 0).copy(), np.random.default_rng(5).random(1000))
        assert np.array_equal(draws, again)
        assert draws.min() >= 0 and draws.max() < 4

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small"])
    def test_sample_categorical_stack_matches_calls_in_turn(self, scheme):
        # the sampler's one draw per step on the (B, d, n) reverse-step rows, with
        # uniforms drawn dimension-major as one draw per dimension would
        rng = np.random.default_rng(45)
        n, d, B = 7, 5, 300
        Q = init_chain(rng, n, d, scheme)
        xt = rng.integers(0, n, size=(B, d))
        # looked up by (dimension, state), as repeated states must share their ratios
        ratios = rng.uniform(0.0, 4.0, size=(d, n, n))[np.arange(d), xt]
        rows = step_probs(xt, 0.8, 0.5, ratios, Q, NoiseSchedule())
        once = sample_categorical(np.moveaxis(rows, -1, 0).copy(), np.random.default_rng(7).random((d, B)).T)
        gen = np.random.default_rng(7)
        in_turn = [sample_categorical(np.moveaxis(rows[:, i], -1, 0).copy(), gen.random(B)) for i in range(d)]
        assert once.shape == (B, d)
        assert np.array_equal(once, np.stack(in_turn, axis=1))

    @pytest.mark.parametrize("n, d, B", [(7, 5, 300), (27, 3, 40), (2, 1, 9)])
    def test_sample_categorical_matches_cumsum_in_every_chunking(self, n, d, B):
        # the row-major cumsum form the state-major slabs replace, u taken
        # times each row's total, with rows that sum to a little under 1
        rng = np.random.default_rng(47)
        rows = rng.dirichlet(np.ones(n), size=(B, d)) * (1.0 - 1e-9)
        rows[rng.random((B, d)) < 0.2] *= rng.integers(0, 2, size=n)
        u = rng.random((d, B)).T
        u[0, 0] = np.nextafter(1.0, 0.0)
        sums = np.cumsum(rows, axis=-1)
        want = np.minimum((sums <= (u * sums[..., -1])[..., None]).sum(axis=-1), n - 1)
        assert np.array_equal(sample_categorical(np.moveaxis(rows, -1, 0).copy(), u), want)

    def test_sample_categorical_never_draws_a_state_of_mass_zero(self):
        # the right-sided rule of rng.choice: count the cumulative sums <= u
        assert sample_categorical(np.array([[0.0], [0.0], [1.0]]), np.array([0.0]))[0] == 2
        slabs = np.tile([[0.25], [0.0], [0.75]], (1, 3))
        assert np.array_equal(sample_categorical(slabs, np.array([0.0, 0.25, 0.5])), [0, 2, 2])
        # a row whose sum rounds under 1, at the largest uniform: u alone
        # would pass every running sum and land on the trailing 0
        top = np.nextafter(1.0, 0.0)
        assert sample_categorical(np.array([[0.25], [0.7499999999999998], [0.0]]), np.array([top]))[0] == 1

    def test_no_state_of_mass_zero_at_any_uniform(self):
        # rows with zeros in every place, some summing a little off 1, at
        # uniforms spread over [0, 1) and at both of its ends
        rng = np.random.default_rng(49)
        n, rows_count = 6, 4000
        rows = rng.dirichlet(np.ones(n), size=rows_count)
        rows *= rng.random((rows_count, n)) < 0.6
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        rows *= 1.0 + rng.uniform(-1e-12, 1e-12, (rows_count, 1))
        for u in (rng.random(rows_count), np.zeros(rows_count), np.full(rows_count, np.nextafter(1.0, 0.0))):
            draws = sample_categorical(rows.T.copy(), u)
            assert np.all(rows[np.arange(rows_count), draws] > 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_categorical_refuses_non_finite_rows_and_uniforms(self, bad):
        slabs = np.full((3, 6), 1.0 / 3.0)
        u = np.linspace(0.1, 0.9, 6)
        slabs[1, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sample_categorical(slabs.copy(), u)
        slabs[1, 4] = 1.0 / 3.0
        u[2] = bad
        with pytest.raises(ValueError, match="uniforms"):
            sample_categorical(slabs, u)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [-0.5, 0.25, 0.0]])
    def test_sample_categorical_refuses_a_row_without_positive_total(self, row):
        # no state can be drawn in proportion to masses that total 0 or less
        slabs = np.full((3, 2), 1.0 / 3.0)
        slabs[:, 1] = row
        with pytest.raises(ValueError, match="non-positive total"):
            sample_categorical(slabs, np.array([0.3, 0.9]))

    def test_sample_categorical_needs_one_uniform_per_row(self):
        with pytest.raises(ValueError, match="one uniform per row"):
            sample_categorical(np.full((3, 6), 1.0 / 3.0), np.full(5, 0.5))

    def test_sample_categorical_frequencies(self):
        slabs = np.tile([[0.1], [0.2], [0.7]], (1, 30000))
        draws = sample_categorical(slabs, np.random.default_rng(43).random(30000))
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.abs(freq - [0.1, 0.2, 0.7]).max() < 0.02


class TestKernelDraw:
    """x_t drawn as the first sorted slot k >= pos(x0) with exp(beta lambda_k) > u."""

    @staticmethod
    def chains():
        # a zero rate, a 1e-9 rate, an absorbing chain and a generic one
        perm = np.array([[2, 0, 3, 1], [1, 3, 0, 2], [3, 1, 2, 0], [0, 2, 1, 3]])
        a = np.array([[0.7, 0.0, 1.3], [1e-9, 0.9, 0.4], [0.0, 0.0, 1.0], [0.5, 1.1, 2.0]])
        return FactorizedRateMatrix(perm, a)

    @pytest.mark.parametrize("beta", [0.05, 0.7, 3.0])
    def test_frequencies_match_kernel_rows(self, beta):
        Q = self.chains()
        rng = np.random.default_rng(61)
        B = 100_000  # one x0 per state and chain: 400k draws a chain
        K = transition_kernel(Q, beta)
        worst = 0.0
        for x in range(Q.n):
            draws = core.kernel_draw(Q, beta, np.full((B, Q.d), x), rng.random((B, Q.d)))
            freq = state_frequencies(draws, Q.n)
            p = K[:, x]
            # a state of mass 0 is never drawn; elsewhere a binomial z-score
            assert np.all(freq[p == 0.0] == 0.0)
            se = np.sqrt(p * (1.0 - p) / B)
            z = np.abs(freq - p)[p > 0.0] / np.maximum(se[p > 0.0], 1e-300)
            worst = max(worst, float(z.max()))
        assert worst <= 4.0

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_extreme_uniforms_never_draw_a_state_of_mass_zero(self, u):
        rng = np.random.default_rng(63)
        n, d = 7, 40
        a = rng.uniform(0.0, 3.0, (d, n - 1))
        a[rng.random(a.shape) < 0.3] = 0.0
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), a)
        for beta in (1e-12, 0.3, 5.0, 800.0):
            x0 = np.tile(np.arange(n), (d, 1)).T
            draws = core.kernel_draw(Q, beta, x0, np.full(x0.shape, u))
            rows = kernel_rows(Q, beta, x0)
            assert np.all(np.take_along_axis(rows, draws[:, :, None], axis=2) > 0.0)

    def test_zero_beta_returns_x0(self):
        rng = np.random.default_rng(65)
        Q = FactorizedRateMatrix(np.stack([rng.permutation(9) for _ in range(5)]), rng.uniform(0.0, 2.0, (5, 8)))
        x0 = rng.integers(0, 9, size=(300, 5))
        u = rng.random(x0.shape)
        u[0] = np.nextafter(1.0, 0.0)
        assert np.array_equal(core.kernel_draw(Q, 0.0, x0, u), x0)

    def test_bit_identical_across_chunkings(self, monkeypatch):
        rng = np.random.default_rng(67)
        n, d, B = 6, 5, 200
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.0, 2.0, (d, n - 1)))
        betas, x0, u = rng.uniform(0.0, 4.0, B), rng.integers(0, n, size=(B, d)), rng.random((B, d))
        one = core.kernel_draw(Q, betas, x0, u)
        for chunk_rows in (1, 7, B):
            monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk_rows * d * n)
            assert np.array_equal(core.kernel_draw(Q, betas, x0, u), one)

    @pytest.mark.parametrize("u", [1.0, -0.1, np.nan, "shape"])
    def test_bad_uniforms_refused(self, u):
        Q = self.chains()
        x0 = np.zeros((3, Q.d), dtype=np.int64)
        uniforms = np.full((2, Q.d), 0.5) if u == "shape" else np.full(x0.shape, u)
        with pytest.raises(ValueError, match="uniforms"):
            core.kernel_draw(Q, 1.0, x0, uniforms)


ARRAY_RECORDS = {
    "ProductDistribution": lambda: ProductDistribution.uniform(2, 2),
    "FactorizedRateMatrix": lambda: FactorizedRateMatrix([[1, 0]], [[0.5]]),
    "ScoreBatch": lambda: ScoreBatch(t=[0.5], x0=[[0]], xt=[[0]], eps_t=1e-3),
    "Dataset": lambda: Dataset(samples=np.zeros((2, 1), dtype=np.int64), n=2),
    "Checkpoint": lambda: Checkpoint(
        config_text="n = 2\n", epoch=1, perms=np.array([[0, 1]]), a=np.ones((1, 1)),
        p0_estimate=np.full((1, 2), 0.5), score_weights=[np.ones((2, 2))], score_biases=[np.ones(2)],
        rng_state="{}", epoch_history=np.zeros((1, 4)),
    ),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_RECORDS))
def test_array_records_compare_by_identity(kind):
    # a field-wise == over ndarrays would raise; equal values are not enough
    first, second = ARRAY_RECORDS[kind](), ARRAY_RECORDS[kind]()
    assert first == first and first != second
    assert len({first, second, first}) == 2
