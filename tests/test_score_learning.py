"""Score network, score-entropy loss, oracle ratios, gradients, training loop."""

import itertools

import numpy as np
import pytest

from markov_bridge import (
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    ScoreBatch,
    ScoreModel,
    make_score_batch,
    oracle_ratio_fn,
    score_entropy_loss,
    score_learning_loop,
    score_loss_and_grad,
    transition_kernel,
)
from markov_bridge import evaluation, score_learning
from markov_bridge.score_learning import sample_xt_batch

LN2 = np.log(2.0)
SCHEDULE_UNIT = NoiseSchedule(sigma_min=1.0, sigma_max=1.0, horizon=1.0)


def point_mass(n, x):
    row = np.zeros(n)
    row[x] = 1.0
    return ProductDistribution.from_array(row[None, :])


def random_chain(rng, n, d=1, a_lo=0.2, a_hi=2.0):
    return [
        FactorizedRateMatrix.from_parts(rng.permutation(n), rng.uniform(a_lo, a_hi, n - 1))
        for _ in range(d)
    ]


class TestSampleXt:
    def test_t_zero_returns_x0(self):
        rng = np.random.default_rng(301)
        Q = random_chain(rng, 5, d=3)
        x0 = rng.integers(0, 5, size=(20, 3))
        xt, r = sample_xt_batch(x0, Q, SCHEDULE_UNIT, 0.0, rng)
        assert np.array_equal(xt, x0)
        # the identity kernel: r is the one-hot row of x0
        assert np.array_equal(r, np.eye(5)[x0])

    def test_half_life_frequencies(self):
        Q = [FactorizedRateMatrix.with_identity_perm([LN2])]
        rng = np.random.default_rng(303)
        draws, _ = sample_xt_batch(np.zeros((100000, 1), dtype=np.int64), Q, SCHEDULE_UNIT, 1.0, rng)
        freq = float(np.mean(draws == 0))
        # binomial 3 sigma around 0.5 at 1e5 draws
        assert abs(freq - 0.5) <= 3.0 * 0.5 / np.sqrt(100000)

    def test_absorbing_limit(self):
        a = np.zeros(3)
        a[-1] = 1.0
        perm = np.array([1, 3, 0, 2])
        Q = [FactorizedRateMatrix.from_parts(perm, a)]
        schedule = NoiseSchedule(sigma_min=60.0, sigma_max=60.0, horizon=1.0)
        rng = np.random.default_rng(307)
        draws, _ = sample_xt_batch(np.full((200, 1), 3, dtype=np.int64), Q, schedule, 1.0, rng)
        assert np.all(draws == perm[-1])


class TestOneKernelRowPass:
    """A score batch carries the ratio target of the rows its xt was drawn
    from; the loss and the bound build no kernel rows of their own."""

    def test_ratio_target_matches_dense_kernel(self):
        rng = np.random.default_rng(401)
        schedule = NoiseSchedule(sigma_min=0.3, sigma_max=3.0, horizon=1.0)
        for _ in range(10):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            Q = random_chain(rng, n, d=d)
            x0 = rng.integers(0, n, size=(32, d))
            batch = make_score_batch(x0, Q, schedule, rng)
            for b, i in itertools.product(range(batch.size), range(d)):
                row = transition_kernel(Q[i], schedule.beta(batch.t[b]))[x0[b, i]]
                np.testing.assert_allclose(batch.r[b, i], row / row[batch.xt[b, i]], rtol=1e-12, atol=0.0)

    def test_kernel_rows_built_once_per_dimension(self, monkeypatch):
        calls = []
        real = score_learning.kernel_rows
        monkeypatch.setattr(score_learning, "kernel_rows", lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(409)
        n, d = 5, 3
        Q = random_chain(rng, n, d=d)
        model = ScoreModel(n, d, hidden=(8,), rng=rng)
        batch = make_score_batch(rng.integers(0, n, size=(16, d)), Q, SCHEDULE_UNIT, rng)
        assert len(calls) == d
        score_loss_and_grad(model, batch, Q, SCHEDULE_UNIT)
        score_entropy_loss(model.forward_batch, batch, Q, SCHEDULE_UNIT)
        assert len(calls) == d
        # the bound draws its chunks the same way: d calls per chunk
        monkeypatch.setattr(evaluation, "_CHUNK", 40)
        data = rng.integers(0, n, size=(50, d))
        evaluation.elbo_estimate(model.forward_batch, data, Q, SCHEDULE_UNIT,
                                 ProductDistribution.uniform(n, d), 100, rng)
        assert len(calls) == d + 3 * d


class TestScoreForward:
    def test_fresh_model_outputs_one(self):
        model = ScoreModel(4, 2, hidden=(16,), rng=np.random.default_rng(0))
        out = model.forward_batch([[1, 3]], 0.5)
        assert out.shape == (1, 2, 4)
        assert np.all(out == 1.0)

    def test_positive_and_finite(self):
        rng = np.random.default_rng(311)
        model = ScoreModel(5, 3, hidden=(32, 32), rng=rng)
        for w in model.weights[:-1]:
            w += rng.normal(0, 0.3, w.shape)
        model.weights[-1] += rng.normal(0, 0.3, model.weights[-1].shape)
        out = model.forward_batch([[0, 4, 2], [1, 1, 1]], [0.73, 0.2])
        assert np.all(out > 0.0) and np.all(np.isfinite(out))

    def test_deterministic(self):
        model = ScoreModel(4, 2, rng=np.random.default_rng(5))
        model.weights[-1] += 0.1
        a = model.forward_batch([[1, 2]], 0.3)
        b = model.forward_batch([[1, 2], [0, 3]], 0.3)
        assert np.array_equal(a[0], b[0])


class TestExactScoreOracle:
    def test_point_mass_reduces_to_conditional_ratio(self):
        rng = np.random.default_rng(313)
        Q = random_chain(rng, 6)
        x0 = 2
        t = 0.6
        row = transition_kernel(Q[0], SCHEDULE_UNIT.beta(t))[x0]
        for xt in range(6):
            if row[xt] <= 0:
                continue
            out = oracle_ratio_fn(point_mass(6, x0), Q, SCHEDULE_UNIT)([[xt]], t)
            assert np.allclose(out[0, 0], row / row[xt], atol=1e-12)

    def test_early_time_self_ratio(self):
        rng = np.random.default_rng(317)
        mu = ProductDistribution.from_array(rng.dirichlet(np.ones(4), size=1) * 0.9 + 0.1 / 4)
        Q = random_chain(rng, 4)
        out = oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)([[1]], 1e-6)[0]
        target = mu.marginals[0].probs / mu.marginals[0].probs[1]
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out[0], target, rtol=1e-4)

    def test_degenerate_state_error(self):
        from markov_bridge import DegenerateStateError

        mu = point_mass(3, 0)
        Q = [FactorizedRateMatrix.with_identity_perm([0.0, 0.0])]
        with pytest.raises(DegenerateStateError):
            oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)([[2]], 1e-3)


class TestScoreEntropyLoss:
    def test_exact_ratio_gives_zero(self):
        # point-mass data distribution: the oracle returns the per-sample
        # conditional ratio, so the Bregman integrand vanishes pointwise
        rng = np.random.default_rng(331)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            Q = random_chain(rng, n)
            x0_val = int(rng.integers(0, n))
            mu = point_mass(n, x0_val)
            batch = make_score_batch(np.full((16, 1), x0_val, dtype=np.int64), Q, SCHEDULE_UNIT, rng)
            loss = score_entropy_loss(oracle_ratio_fn(mu, Q, SCHEDULE_UNIT), batch, Q, SCHEDULE_UNIT)
            assert 0.0 <= loss <= 1e-10

    def test_scaled_ratio_contribution(self):
        # s = e * r shifts every active term to rate * r * (e - 2)
        rng = np.random.default_rng(337)
        n = 5
        Q = random_chain(rng, n)
        x0_val = int(Q[0].perm[0])  # sorted-first state: its row has full support
        mu = point_mass(n, x0_val)
        batch = make_score_batch(np.full((64, 1), x0_val, dtype=np.int64), Q, SCHEDULE_UNIT, rng)
        oracle = oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)
        scaled = lambda xt, t: np.e * oracle(xt, t)
        loss = score_entropy_loss(scaled, batch, Q, SCHEDULE_UNIT)
        # independent accumulation of rate * r * (e - 2)
        from markov_bridge.core import materialize_dense

        dense = materialize_dense(Q[0])
        expected = 0.0
        eps_t = 1e-3
        for b in range(batch.size):
            t = batch.t[b]
            row = transition_kernel(Q[0], SCHEDULE_UNIT.beta(t))[x0_val]
            xt = batch.xt[b, 0]
            r = row / max(row[xt], 1e-12)
            c = SCHEDULE_UNIT.sigma(t) * dense[:, xt]
            c[xt] = 0.0
            expected += float(np.sum(c * r * (np.e - 2.0))) * (1.0 - eps_t)
        expected /= batch.size
        assert loss == pytest.approx(expected, rel=1e-9)
        assert loss > 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ScoreBatch(t=np.empty(0), xt=np.empty((0, 1), dtype=np.int64), r=np.empty((0, 1, 2)))

    def test_pointwise_bregman_nonnegative(self):
        # the integrand term s - r + r (ln r - ln s) is a Bregman divergence:
        # nonnegative for any s > 0, zero only at s = r
        r = np.array([1e-6, 0.01, 0.5, 1.0, 3.0, 40.0])
        s = np.geomspace(1e-6, 100.0, 400)[:, None]
        vals = s - r[None, :] + r[None, :] * (np.log(r[None, :]) - np.log(s))
        assert vals.min() >= 0.0
        at_r = r - r + r * 0.0
        assert np.all(at_r == 0.0)
        off = np.abs(np.log(s) - np.log(r[None, :])) > 1e-8
        assert np.all(vals[off] > 0.0)

    def test_mixture_oracle_is_minimizer_for_generic_mu(self):
        # for a non-degenerate mu the oracle leaves a strictly positive
        # irreducible loss but beats any multiplicative perturbation of itself
        rng = np.random.default_rng(347)
        n = 4
        Q = random_chain(rng, n)
        mu = ProductDistribution.from_array(rng.dirichlet(np.ones(n), size=1) * 0.8 + 0.2 / n)
        x0 = rng.choice(n, size=(4096, 1), p=mu.marginals[0].probs).astype(np.int64)
        batch = make_score_batch(x0, Q, SCHEDULE_UNIT, rng)
        oracle = oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)
        base = score_entropy_loss(oracle, batch, Q, SCHEDULE_UNIT)
        up = score_entropy_loss(lambda xt, t: np.e * oracle(xt, t), batch, Q, SCHEDULE_UNIT)
        down = score_entropy_loss(lambda xt, t: oracle(xt, t) / np.e, batch, Q, SCHEDULE_UNIT)
        assert base > 0.0
        assert up > base and down > base

    def test_time_sampling_unbiased(self):
        # two independent million-sample estimates agree within 3 combined SEs
        rng1 = np.random.default_rng(349)
        rng2 = np.random.default_rng(353)
        n = 4
        Q = random_chain(np.random.default_rng(9), n)
        mu = point_mass(n, 1)
        model = ScoreModel(n, 1, hidden=(8,), rng=np.random.default_rng(1))
        model.weights[-1] += np.random.default_rng(2).normal(0, 0.05, model.weights[-1].shape)

        def estimate(rng, chunks=50, chunk=20000):
            means = []
            for _ in range(chunks):
                batch = make_score_batch(np.full((chunk, 1), 1, dtype=np.int64), Q, SCHEDULE_UNIT, rng)
                means.append(score_entropy_loss(model.forward_batch, batch, Q, SCHEDULE_UNIT))
            means = np.asarray(means)
            return means.mean(), means.std(ddof=1) / np.sqrt(chunks)

        m1, se1 = estimate(rng1)
        m2, se2 = estimate(rng2)
        assert abs(m1 - m2) <= 3.0 * np.hypot(se1, se2)


class TestScoreGrad:
    def test_zero_gradient_when_targets_match_fresh_model(self):
        # uniform kernel row makes every true ratio 1, which is exactly what a
        # zero-initialized model outputs, so the gradient vanishes
        Q = [FactorizedRateMatrix.with_identity_perm([LN2])]
        model = ScoreModel(2, 1, hidden=(8,), rng=np.random.default_rng(3))
        batch = ScoreBatch(t=np.ones(8), xt=np.array([[0], [1]] * 4, dtype=np.int64), r=np.ones((8, 1, 2)))
        _, grad_w, grad_b = score_loss_and_grad(model, batch, Q, SCHEDULE_UNIT)
        assert max(np.abs(g).max() for g in grad_w) <= 1e-14
        assert max(np.abs(g).max() for g in grad_b) <= 1e-14

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(359)
        h = 1e-4
        for _ in range(20):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            Q = random_chain(rng, n, d=d)
            model = ScoreModel(n, d, hidden=(8,), rng=rng)
            for w in model.weights:
                w += rng.normal(0, 0.2, w.shape)
            batch = make_score_batch(rng.integers(0, n, size=(4, d)), Q, SCHEDULE_UNIT, rng)
            _, grad_w, grad_b = score_loss_and_grad(model, batch, Q, SCHEDULE_UNIT)
            flat_params = model.weights + model.biases
            flat_grads = grad_w + grad_b
            worst_abs, scale = 0.0, 0.0
            for param, grad in zip(flat_params, flat_grads):
                it = np.nditer(param, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + h
                    up = score_entropy_loss(model.forward_batch, batch, Q, SCHEDULE_UNIT)
                    param[idx] = orig - h
                    down = score_entropy_loss(model.forward_batch, batch, Q, SCHEDULE_UNIT)
                    param[idx] = orig
                    fd = (up - down) / (2 * h)
                    worst_abs = max(worst_abs, abs(fd - grad[idx]))
                    scale = max(scale, abs(fd))
                    it.iternext()
            assert worst_abs <= 1e-3 * max(scale, 1e-6)

    def test_duplicated_rows_match_single_row(self):
        rng = np.random.default_rng(367)
        Q = random_chain(rng, 4)
        model = ScoreModel(4, 1, hidden=(8,), rng=rng)
        model.weights[-1] += rng.normal(0, 0.1, model.weights[-1].shape)
        row = transition_kernel(Q[0], SCHEDULE_UNIT.beta(0.7))[2]
        r = row / max(row[1], 1e-12)
        single = ScoreBatch(t=[0.7], xt=[[1]], r=[[r]])
        tripled = ScoreBatch(t=[0.7] * 3, xt=[[1]] * 3, r=[[r]] * 3)
        _, gw1, gb1 = score_loss_and_grad(model, single, Q, SCHEDULE_UNIT)
        _, gw3, gb3 = score_loss_and_grad(model, tripled, Q, SCHEDULE_UNIT)
        for g1, g3 in zip(gw1 + gb1, gw3 + gb3):
            assert np.allclose(g1, g3, atol=1e-14)


def _batch_stream(rng, n, d, Q, mu, size, schedule=SCHEDULE_UNIT):
    probs = mu.as_array()
    while True:
        x0 = np.stack([rng.choice(n, size=size, p=probs[i]) for i in range(d)], axis=1)
        yield make_score_batch(x0.astype(np.int64), Q, schedule, rng)


class TestScoreLearningLoop:
    def test_step_cap(self):
        rng = np.random.default_rng(373)
        Q = random_chain(rng, 4)
        mu = ProductDistribution.uniform(4, 1)
        model = ScoreModel(4, 1, hidden=(8,), rng=rng)
        before = [w.copy() for w in model.weights]
        stream = _batch_stream(rng, 4, 1, Q, mu, 16)
        score_learning_loop(model, stream, Q, SCHEDULE_UNIT, max_step=5, eps_score=0.0)
        changed = any(not np.array_equal(b, w) for b, w in zip(before, model.weights))
        assert changed

    def test_lr_zero_leaves_parameters(self):
        rng = np.random.default_rng(379)
        Q = random_chain(rng, 4)
        mu = ProductDistribution.uniform(4, 1)
        model = ScoreModel(4, 1, hidden=(8,), rng=rng)
        before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
        stream = _batch_stream(rng, 4, 1, Q, mu, 16)
        score_learning_loop(
            model, stream, Q, SCHEDULE_UNIT, max_step=10, eps_score=0.0,
            lr=0.0,
        )
        after = model.weights + model.biases
        assert all(np.array_equal(b, a) for b, a in zip(before, after))

    def test_early_exit_below_threshold(self):
        rng = np.random.default_rng(383)
        Q = random_chain(rng, 3)
        mu = point_mass(3, 1)
        model = ScoreModel(3, 1, hidden=(8,), rng=rng)
        before = [w.copy() for w in model.weights]
        stream = _batch_stream(rng, 3, 1, Q, mu, 8)
        # a huge eps_score stops before the first update
        score_learning_loop(model, stream, Q, SCHEDULE_UNIT, max_step=50, eps_score=1e9)
        assert all(np.array_equal(b, w) for b, w in zip(before, model.weights))

    def test_converges_near_oracle_floor(self):
        # width-64 net on an n=8 toy must land within 10% of the oracle loss
        rng = np.random.default_rng(389)
        n = 8
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=10.0, horizon=1.0)
        Q = random_chain(rng, n, a_lo=0.3, a_hi=1.5)
        mu = ProductDistribution.from_array(rng.dirichlet(2 * np.ones(n), size=1) * 0.8 + 0.2 / n)
        model = ScoreModel(n, 1, hidden=(64, 64), rng=np.random.default_rng(11))

        eval_rng = np.random.default_rng(397)
        oracle = oracle_ratio_fn(mu, Q, schedule)

        def big_loss(fn):
            losses = [
                score_entropy_loss(fn, next(_batch_stream(eval_rng, n, 1, Q, mu, 16384, schedule)), Q, schedule)
                for _ in range(4)
            ]
            return float(np.mean(losses))

        floor = big_loss(oracle)
        stream = _batch_stream(rng, n, 1, Q, mu, 256, schedule)
        reached = None
        for _ in range(20):  # up to 20k steps in 1k chunks, stop early once close
            score_learning_loop(model, stream, Q, schedule, max_step=1000, eps_score=0.0,
                                lr=1e-3)
            current = big_loss(model.forward_batch)
            if current <= 1.10 * floor:
                reached = current
                break
        assert reached is not None, f"never reached 1.1x oracle floor {floor:.4f}"
