"""Reverse sampling by exact kernel steps, the mu estimator, and the TV metric."""


import numpy as np
import pytest

from markov_bridge import (
    DivergenceError,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    ScoreModel,
    estimate_mu,
    evolve_rows,
    generate,
    oracle_ratio_fn,
)
from markov_bridge import core, sampler, score_learning
from markov_bridge.core import draw_columns, sample_categorical
from markov_bridge.data import synthetic_ground_truth
from markov_bridge.matrix_learning import predict_terminal
from markov_bridge.reference import materialize_dense
from markov_bridge.solver import exact_rate_matrices

from oracles import peak_traced_bytes, random_chain_arrays, step_probs, taylor_expm, tv_distance

SCHEDULE_UNIT = NoiseSchedule(sigma_min=1.0, sigma_max=1.0)

# (rate, n): finite ratios of 1e308 into the sorted-last state overflow the
# row total of the step from T to 0.5 though no weight does, each being its
# ratio times -expm1(-0.5 * rate) < 1: a few large weights, or many small ones.
# The row would come out all zero.
OVERFLOW = [(2.5, 4), (0.3, 16)]


def distinct(states):
    """The distinct rows of a (B, d) state array, in lexicographic order."""
    return np.unique(states, axis=0)


def row_by_row(terminal, Q, schedule, ratio_fn, rng, count, steps, eps_t, batches, average_last=False):
    """generate's draws, or with ``average_last`` estimate_mu's p0, with each
    step's whole batch scored in one ratio call and appended to ``batches``,
    and each row stepped as a batch of its own, in which no state repeats."""
    dt = (1.0 - eps_t) / steps
    x = draw_columns(terminal.probs, count, rng)
    total = np.zeros((Q.n, Q.d))
    for k in range(steps):
        t, s = 1.0 - k * dt, 1.0 - (k + 1) * dt
        batches.append(x.copy())
        ratios = ratio_fn(x, s)
        last = average_last and k == steps - 1
        u = None if last else rng.random((Q.d, count)).T
        for b in range(count):
            ((_, rows),) = sampler._step_chunks(x[b : b + 1], t, s, lambda states, time: ratios[b : b + 1], Q, schedule)
            if last:
                total = total + (rows / rows.sum(axis=0))[:, 0]
            else:
                x[b] = sample_categorical(rows, u[b : b + 1])[0]
    if not average_last:
        return x
    p0 = total.T.copy()
    return p0 / p0.sum(axis=1, keepdims=True)


def oracle_system(rng, n, sigma_max=10.0):
    """Ground-truth factorized system: mu, bridged Q, terminal at t = 1."""
    mu = ProductDistribution(rng.dirichlet(2 * np.ones(n), size=1) * 0.8 + 0.2 / n)
    schedule = NoiseSchedule(sigma_min=0.1, sigma_max=sigma_max)
    # bridge mu to uniform over the full time budget
    Q_unit = exact_rate_matrices(ProductDistribution.uniform(n, 1), mu)
    Q = Q_unit.replace_a(Q_unit.a / schedule.beta(1.0))
    terminal = ProductDistribution(evolve_rows(mu.probs, Q, schedule.beta(1.0))[0])
    return mu, Q, schedule, terminal


def table_ratio_fn(rng, n, d):
    """Ratios looked up by (dimension, state): any row block gets the same
    values. About a fifth of them are 0."""
    table = rng.uniform(0.0, 3.0, (d, n, n)) * (rng.random((d, n, n)) >= 0.2)
    return lambda xt, t: table[np.arange(d), xt]


class TestSamplerArguments:
    def test_validation(self):
        # an empty grid, or one that does not end inside (0, 1), is refused
        # before the first step asks for ratios
        terminal = ProductDistribution.uniform(3, 1)
        Q = FactorizedRateMatrix([[0, 1, 2]], [[0.5, 1.0]])
        calls = []
        ratios = lambda xt, t: calls.append(t) or np.ones((xt.shape[0], 1, 3))
        for run in (generate, estimate_mu):
            for steps, eps_t in [(0, 1e-3), (-1, 1e-3), (4, 0.0), (4, -1e-3), (1, 1.5), (4, 1.0), (4, np.nan)]:
                with pytest.raises(ValueError):
                    run(terminal, Q, SCHEDULE_UNIT, ratios, np.random.default_rng(0), 4, steps, eps_t)
            # so is an empty batch of trajectories
            with pytest.raises(ValueError, match="at least one trajectory"):
                run(terminal, Q, SCHEDULE_UNIT, ratios, np.random.default_rng(0), 0, 4, 1e-3)
        assert calls == []


class TestEulerReverseStep:
    """The batched categoricals of one exact reverse step. The class keeps the
    name of the first-order step it used to test, so that test ids stay."""

    def test_dt_zero_returns_xt(self):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 0.5]])
        xt = np.arange(3)[:, None]
        probs = step_probs(xt, 0.5, 0.5, np.ones((3, 1, 3)), Q, SCHEDULE_UNIT)
        assert np.array_equal(probs[:, 0, :], np.eye(3))

    def test_two_state_move_probability(self):
        # column 1 of exp(0.5 Q) is (1 - e^-0.5, 1): with unit ratios the
        # step from 1 to 0.5 weights a move by -expm1(-0.5) against 1 to stay
        Q = FactorizedRateMatrix([[0, 1]], [[1.0]])
        probs = step_probs(np.array([[1]]), 1.0, 0.5, np.ones((1, 1, 2)), Q, SCHEDULE_UNIT)
        move = -np.expm1(-0.5)
        assert probs[0, 0, 0] == pytest.approx(move / (1.0 + move), rel=1e-15)
        assert probs[0, 0, 1] == pytest.approx(1.0 / (1.0 + move), rel=1e-15)

    def test_zero_ratios_stay(self):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 2.0]])
        ratios = np.zeros((1, 1, 3))
        ratios[0, 0, 1] = 1.0
        probs = step_probs(np.array([[1]]), 0.7, 0.5, ratios, Q, SCHEDULE_UNIT)
        assert np.array_equal(probs[0, 0], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_ratio_rejected(self, bad):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 2.0]])
        ratios = np.ones((2, 1, 3))
        ratios[1, 0, 2] = bad
        with pytest.raises(DivergenceError):
            step_probs(np.array([[0], [1]]), 0.7, 0.5, ratios, Q, SCHEDULE_UNIT)

    @pytest.mark.parametrize("rate, n", OVERFLOW)
    def test_overflowing_row_rejected(self, rate, n):
        Q = FactorizedRateMatrix(np.arange(n)[None, :], np.full((1, n - 1), rate))
        with pytest.raises(DivergenceError, match="overflows"):
            step_probs(np.array([[n - 1]]), 1.0, 0.5, np.full((1, 1, n), 1e308), Q, SCHEDULE_UNIT)

    def test_matches_batched_path(self):
        # per-tuple reference: the ratios times column x of a dense series
        # kernel over the step, the ratio of x to itself being 1
        rng = np.random.default_rng(409)
        n, d = 5, 3
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.2, 2.0))
        xt = rng.integers(0, n, size=(1, d))
        ratios = rng.uniform(0.1, 3.0, size=(1, d, n))
        probs = step_probs(xt, 0.6, 0.45, ratios, Q, SCHEDULE_UNIT)
        dbeta = SCHEDULE_UNIT.beta(0.6) - SCHEDULE_UNIT.beta(0.45)
        for i in range(d):
            x = int(xt[0, i])
            row = taylor_expm(dbeta * materialize_dense(Q)[i])[:, x] * ratios[0, i]
            row[x] /= ratios[0, i, x]
            np.testing.assert_allclose(probs[0, i], row / row.sum(), rtol=0.0, atol=1e-14)

    def test_categoricals_are_valid(self):
        rng = np.random.default_rng(419)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            Q = FactorizedRateMatrix(rng.permutation(n)[None, :], rng.uniform(0, 2, (1, n - 1)))
            xt = rng.integers(0, n, size=(8, 1))
            # looked up by state, as repeated states must share their ratios
            ratios = rng.uniform(0.0, 4.0, size=(n, 1, n))[xt[:, 0]]
            probs = step_probs(xt, 0.8, rng.uniform(0.3, 0.8), ratios, Q, SCHEDULE_UNIT)
            assert probs.min() >= 0.0
            assert np.abs(probs.sum(axis=2) - 1.0).max() <= 1e-12

    def test_one_step_from_T_with_oracle_ratios_is_exact(self):
        # every state of every dimension in one batch, stepped from T to eps_t
        # with the exact ratios of a product truth and averaged over x_T by
        # the terminal, lands on the truth evolved to eps_t
        rng = np.random.default_rng(487)
        for _ in range(20):
            n, d = int(rng.integers(2, 28)), int(rng.integers(1, 9))
            mu = ProductDistribution(rng.dirichlet(np.ones(n), size=d) * 0.8 + 0.2 / n)
            Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
            schedule = NoiseSchedule(sigma_min=0.1, sigma_max=rng.uniform(0.5, 5.0))
            eps_t = 1e-3
            xt = np.repeat(np.arange(n)[:, None], d, axis=1)
            ratios = oracle_ratio_fn(mu, Q, schedule)(xt, eps_t)
            probs = step_probs(xt, 1.0, eps_t, ratios, Q, schedule)
            terminal = evolve_rows(mu.probs, Q, schedule.beta(1.0))[0]
            got = np.einsum("ix,xiy->iy", terminal, probs)
            want = evolve_rows(mu.probs, Q, schedule.beta(eps_t))[0]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestGenerate:
    def test_tiny_step_budget_keeps_terminal(self):
        # one near-zero step: samples stay distributed as the terminal
        rng = np.random.default_rng(421)
        mu, Q, schedule, terminal = oracle_system(rng, 6)
        draws = generate(terminal, Q, schedule, oracle_ratio_fn(mu, Q, schedule), rng, 20000, 1, 1.0 - 1e-9)
        freq = np.bincount(draws[:, 0], minlength=6) / draws.shape[0]
        assert tv_distance(freq, terminal.probs[0]) <= 0.02

    def test_fixed_seed_deterministic(self):
        rng_sys = np.random.default_rng(431)
        mu, Q, schedule, terminal = oracle_system(rng_sys, 5)
        fn = oracle_ratio_fn(mu, Q, schedule)
        a = generate(terminal, Q, schedule, fn, np.random.default_rng(77), 500, 32, 1e-3)
        b = generate(terminal, Q, schedule, fn, np.random.default_rng(77), 500, 32, 1e-3)
        assert np.array_equal(a, b)

    def test_terminal_draw_is_one_choice_per_dimension(self):
        # zero ratios: every step keeps its state, so generate returns x_T
        rng = np.random.default_rng(443)
        n, d, count = 27, 6, 300
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.1, 2.0, (d, n - 1)))
        zero = lambda xt, t: np.zeros((xt.shape[0], d, n))
        draws = generate(terminal, Q, SCHEDULE_UNIT, zero, np.random.default_rng(9), count, 3, 1e-3)
        choice = np.random.default_rng(9)
        want = np.stack([choice.choice(n, size=count, p=row) for row in terminal.probs], axis=1)
        assert np.array_equal(draws, want)

    @pytest.mark.parametrize("rate, n", OVERFLOW)
    def test_overflowing_ratios_raise(self, rate, n):
        terminal = ProductDistribution(np.eye(n)[None, -1])
        Q = FactorizedRateMatrix(np.arange(n)[None, :], np.full((1, n - 1), rate))
        huge = lambda xt, t: np.full((xt.shape[0], 1, n), 1e308)
        with pytest.raises(DivergenceError, match="overflows"):
            generate(terminal, Q, SCHEDULE_UNIT, huge, np.random.default_rng(5), 4, 1, 0.5)

    def test_ratio_calls_at_destination_times(self):
        # step k runs from 1 - k dt to 1 - (k + 1) dt, and asks for ratios at the latter
        rng = np.random.default_rng(491)
        mu, Q, schedule, terminal = oracle_system(rng, 5)
        oracle = oracle_ratio_fn(mu, Q, schedule)
        calls = []
        fn = lambda xt, t: calls.append(t) or oracle(xt, t)
        for steps in (1, 4):
            calls.clear()
            generate(terminal, Q, schedule, fn, rng, 50, steps, 1e-3)
            dt = (1.0 - 1e-3) / steps
            assert calls == pytest.approx([1.0 - (k + 1) * dt for k in range(steps)], rel=0.0, abs=1e-15)
            assert calls[-1] == pytest.approx(1e-3, rel=1e-12)

    def test_oracle_reversal_recovers_target(self):
        rng = np.random.default_rng(433)
        mu, Q, schedule, terminal = oracle_system(rng, 8)
        draws = generate(terminal, Q, schedule, oracle_ratio_fn(mu, Q, schedule), rng, 20000, 128, 1e-3)
        freq = np.bincount(draws[:, 0], minlength=8) / draws.shape[0]
        assert tv_distance(freq, mu.probs[0]) <= 0.04


class TestEstimateMu:
    def test_single_trajectory_single_step(self):
        rng = np.random.default_rng(439)
        mu, Q, schedule, terminal = oracle_system(rng, 4)
        fn = oracle_ratio_fn(mu, Q, schedule)
        est = estimate_mu(terminal, Q, schedule, fn, np.random.default_rng(3), 1, 1, 0.5)
        # reproduce by hand: one terminal draw, one full categorical from T
        # to 0.5 with the ratios at its destination
        draw_rng = np.random.default_rng(3)
        xt = np.array([[np.searchsorted(np.cumsum(terminal.probs[0]), draw_rng.random())]])
        probs = step_probs(xt, 1.0, 0.5, fn(xt, 0.5), Q, schedule)
        assert np.allclose(est.probs[0], probs[0, 0] / probs[0, 0].sum(), atol=1e-12)

    def test_frozen_chain_returns_terminal(self):
        terminal = ProductDistribution([[0.3, 0.2, 0.5]])
        Q = FactorizedRateMatrix([[0, 1, 2]], np.zeros((1, 2)))
        uniform_ratios = lambda xt, t: np.ones((xt.shape[0], 1, 3))
        est = estimate_mu(terminal, Q, SCHEDULE_UNIT, uniform_ratios, np.random.default_rng(5), 4000, 8, 1e-3)
        assert tv_distance(est.probs[0], terminal.probs[0]) <= 0.03

    def test_infinite_ratios_raise(self):
        # an overflowing ratio estimate must fail loudly, not become a NaN p0
        terminal = ProductDistribution([[0.3, 0.2, 0.5]])
        Q = FactorizedRateMatrix([[0, 1, 2]], [[0.5, 1.0]])
        infinite = lambda xt, t: np.full((xt.shape[0], 1, 3), np.inf)
        with pytest.raises(DivergenceError):
            estimate_mu(terminal, Q, SCHEDULE_UNIT, infinite, np.random.default_rng(5), 16, 4, 1e-3)

    def test_oracle_accuracy(self):
        rng = np.random.default_rng(443)
        mu, Q, schedule, terminal = oracle_system(rng, 8)
        est = estimate_mu(terminal, Q, schedule, oracle_ratio_fn(mu, Q, schedule), rng, 4096, 128, 1e-3)
        err = np.abs(est.probs[0] - mu.probs[0]).max()
        assert err <= 0.02

    @pytest.mark.parametrize("steps", [1, 2])
    def test_oracle_accuracy_in_few_steps(self, steps):
        # exact steps need no fine grid: one or two land on p_eps up to Monte
        # Carlo noise, where first-order (Euler) steps read TV 0.14 and 0.07
        n, d, M = 27, 8, 20000
        mu = ProductDistribution(synthetic_ground_truth(n, d, seed=3).probs * 0.9 + 0.1 / n)
        schedule = NoiseSchedule()
        Q_unit = exact_rate_matrices(ProductDistribution.uniform(n, d), mu)
        Q = Q_unit.replace_a(Q_unit.a / schedule.beta(1.0))
        terminal = ProductDistribution(evolve_rows(mu.probs, Q, schedule.beta(1.0))[0])
        fn = oracle_ratio_fn(mu, Q, schedule)
        est = estimate_mu(terminal, Q, schedule, fn, np.random.default_rng(steps), M, steps, 1e-3)
        p_eps = evolve_rows(mu.probs, Q, schedule.beta(1e-3))[0]
        assert max(tv_distance(est.probs[i], p_eps[i]) for i in range(d)) <= 0.02

    def test_valid_product_distribution(self):
        rng = np.random.default_rng(449)
        truth = synthetic_ground_truth(5, 3, seed=1)
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, 5, 3, 0, 1.5))
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=6.0)
        terminal = predict_terminal(Q, truth, schedule)
        fn = oracle_ratio_fn(truth, Q, schedule)
        est = estimate_mu(terminal, Q, schedule, fn, rng, 256, 16, 1e-3)
        arr = est.probs
        assert arr.min() >= 0.0
        assert np.abs(arr.sum(axis=1) - 1.0).max() <= 1e-9


class TestBlockedSteps:
    """The sampled step, drawn chunk by chunk from the masked ratios without
    normalized (B, d, n) rows, and the memory blocks of its ratio calls."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("eps_t", [0.5, 0.97, 1.0])
    def test_step_draws_what_the_normalized_rows_draw(self, seed, eps_t):
        # one step of the loop under generate, whose grid refuses eps_t = 1:
        # the step itself still takes dt = 0
        rng = np.random.default_rng(seed)
        n, d, count = 27, 40, 200  # 30 rows to a cache chunk, the last one short
        a = rng.uniform(0.0, 3.0, (d, n - 1)) * 10.0 ** rng.uniform(-3.0, 0.5, (d, 1))
        a[rng.random(a.shape) < 0.1] = 0.0
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), a)
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        ratio_fn = table_ratio_fn(rng, n, d)
        dt = 1.0 - eps_t
        draws = sampler._trajectories(terminal, Q, SCHEDULE_UNIT, ratio_fn, np.random.default_rng(seed), count, 1, dt)
        replay = np.random.default_rng(seed)
        x = draw_columns(terminal.probs, count, replay)
        probs = step_probs(x, 1.0, 1.0 - dt, ratio_fn(x, 1.0 - dt), Q, SCHEDULE_UNIT)
        assert np.array_equal(draws, sample_categorical(np.moveaxis(probs, -1, 0).copy(), replay.random((d, count)).T))
        # the edge cases are all there: x sorted first (a(x) = 0), a zero
        # rate into x sorted later, and a row likelier to move than to stay
        at = (x, np.arange(d))
        pos, rate = Q.inv_perm.T[at], Q.state_rates.T[at]
        assert (pos == 0).any() and ((rate == 0.0) & (pos > 0)).any()
        move = -np.expm1(-dt * rate) * np.where(Q.inv_perm[None] < pos[:, :, None], ratio_fn(x, 1.0), 0.0).sum(axis=2)
        if eps_t == 0.5:
            assert (move > 1.0).any()
        if eps_t == 1.0:  # dt = 0
            assert np.array_equal(draws, x)

    def test_memory_blocks_and_cache_chunks_move_no_draw(self, monkeypatch):
        rng = np.random.default_rng(461)
        n, d, count = 6, 5, 300
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        model = ScoreModel(n, d, hidden=(16,), rng=rng)
        model.weights[-1][:] = rng.normal(0.0, 0.5, model.weights[-1].shape)  # a fresh head's ratios are all 1
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=4.0)

        def run():
            calls = []
            fn = lambda xt, t: calls.append(np.array(xt)) or model.forward_batch(xt, t)
            draws = generate(terminal, Q, schedule, fn, np.random.default_rng(1), count, 6, 1e-3)
            p0 = estimate_mu(terminal, Q, schedule, fn, np.random.default_rng(2), count, 6, 1e-3).probs
            return draws, p0, calls

        draws, p0, calls = run()
        # one call a step, on the batch's distinct states
        assert len(calls) == 12 and all(len(distinct(c)) == len(c) <= count for c in calls)
        for block_rows, chunk_rows in [(7, 3), (64, 1), (1, 1)]:
            monkeypatch.setattr(core, "BLOCK_ELEMENTS", block_rows * d * n)
            monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk_rows * d * n)
            small_draws, small_p0, small_calls = run()
            # one ratio call per memory block per step, on that block's distinct states
            per_step = -(-count // block_rows)
            assert len(small_calls) == 12 * per_step
            assert all(len(distinct(c)) == len(c) <= block_rows for c in small_calls)
            for k, call in enumerate(calls):
                step = np.concatenate(small_calls[k * per_step : (k + 1) * per_step])
                assert np.array_equal(distinct(step), distinct(call))
            assert np.array_equal(small_draws, draws)
            np.testing.assert_allclose(small_p0, p0, rtol=0.0, atol=1e-15)

    def test_each_ratio_call_embeds_one_time(self, monkeypatch):
        rng = np.random.default_rng(467)
        n, d, count = 5, 3, 200
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        model = ScoreModel(n, d, hidden=(8,), rng=rng)
        calls, embedded = [], []
        embed = score_learning.time_embedding
        monkeypatch.setattr(score_learning, "time_embedding", lambda t: embedded.append(np.size(t)) or embed(t))
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 64 * d * n)  # several ratio calls a step
        fn = lambda xt, t: calls.append(len(xt)) or model.forward_batch(xt, t)
        generate(terminal, Q, NoiseSchedule(), fn, rng, count, 3, 1e-3)
        estimate_mu(terminal, Q, NoiseSchedule(), fn, rng, count, 3, 1e-3)
        # two runs of 3 steps, each step one call per block of 64 rows
        assert len(calls) == 2 * 3 * 4 and embedded == [1] * len(calls)

    def test_estimate_mu_memory_does_not_grow_with_m_d_n(self):
        # one (M, d, n) float array at these shapes is 226 MB
        rng = np.random.default_rng(463)
        n, d, M = 27, 256, 4096
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.1, 2.0, (d, n - 1)))
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        model = ScoreModel(n, d, hidden=(8,), rng=rng)
        run = lambda: estimate_mu(terminal, Q, NoiseSchedule(), model.forward_batch, rng, M, 2, 1e-3)
        peak = peak_traced_bytes(run)[0]
        # the (M, d) states and uniforms with room for one more, and four arrays of one memory block
        bound = 3 * M * d * 8 + 4 * core.BLOCK_ELEMENTS * 8
        assert bound < M * d * n * 8 / 3
        assert peak < bound


class TestDistinctRatioCalls:
    """Each ratio call gets its memory block's distinct states, and the steps
    draw what scoring every row draws."""

    @pytest.mark.parametrize("block_rows", [None, 64])
    def test_repeated_states_are_scored_once(self, monkeypatch, block_rows):
        rng = np.random.default_rng(491)
        n, d, count, steps = 3, 2, 500, 4  # at most 9 distinct states
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        model = ScoreModel(n, d, hidden=(16,), rng=rng)
        model.weights[-1][:] = rng.normal(0.0, 0.5, model.weights[-1].shape)  # a fresh head's ratios are all 1
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=4.0)
        if block_rows is not None:
            monkeypatch.setattr(core, "BLOCK_ELEMENTS", block_rows * d * n)
        calls, batches = [], []
        fn = lambda xt, t: calls.append(np.array(xt)) or model.forward_batch(xt, t)
        draws = generate(terminal, Q, schedule, fn, np.random.default_rng(1), count, steps, 1e-3)
        p0 = estimate_mu(terminal, Q, schedule, fn, np.random.default_rng(2), count, steps, 1e-3).probs
        assert all(len(distinct(c)) == len(c) <= n**d for c in calls)
        args = (terminal, Q, schedule, model.forward_batch)
        assert np.array_equal(draws, row_by_row(*args, np.random.default_rng(1), count, steps, 1e-3, batches))
        want_p0 = row_by_row(*args, np.random.default_rng(2), count, steps, 1e-3, batches, average_last=True)
        np.testing.assert_allclose(p0, want_p0, rtol=0.0, atol=1e-15)
        # each call holds exactly the distinct states of its block
        blocks = [x[block] for x in batches for block in core.row_blocks(count, d * n)]
        assert len(calls) == len(blocks)
        assert all(np.array_equal(distinct(c), distinct(b)) for c, b in zip(calls, blocks))

    def test_a_block_without_repeats_is_passed_as_it_is(self, monkeypatch):
        rng = np.random.default_rng(493)
        n, d, count, steps = 27, 40, 200, 3
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        ratio_fn = table_ratio_fn(rng, n, d)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 64 * d * n)  # four blocks a step
        calls, batches = [], []
        fn = lambda xt, t: calls.append(np.array(xt)) or ratio_fn(xt, t)
        draws = generate(terminal, Q, SCHEDULE_UNIT, fn, np.random.default_rng(5), count, steps, 1e-3)
        want = row_by_row(terminal, Q, SCHEDULE_UNIT, ratio_fn, np.random.default_rng(5), count, steps, 1e-3, batches)
        assert np.array_equal(draws, want)
        blocks = [x[block] for x in batches for block in core.row_blocks(count, d * n)]
        assert len(calls) == len(blocks) == 4 * steps
        assert all(np.array_equal(c, b) for c, b in zip(calls, blocks))


class TestDistinctStatesByDirectAddress:
    """When the n**d joint states fit in a block's rows, its distinct states are
    read from a table addressed by state code, and no sort runs; the steps
    draw what the sort's do."""

    @pytest.mark.parametrize("block_rows", [None, 12])  # one block a step; 12-row blocks, the last of 8
    def test_draws_and_calls_equal_the_sorts(self, monkeypatch, block_rows):
        rng = np.random.default_rng(521)
        n, d, count, steps = 3, 2, 500, 4  # 9 joint states
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        ratio_fn = table_ratio_fn(rng, n, d)
        real_unique, real_step = np.unique, sampler._step_chunks
        sorts, batches = [], []
        monkeypatch.setattr(np, "unique", lambda keys, **kw: sorts.append(len(keys)) or real_unique(keys, **kw))
        monkeypatch.setattr(sampler, "_step_chunks", lambda xt, *args: batches.append(xt.copy()) or real_step(xt, *args))

        def run(rows):
            """Draws, p0, the ratio calls, each call's block and the sorts' row counts."""
            if rows is not None:
                monkeypatch.setattr(core, "BLOCK_ELEMENTS", rows * d * n)
            calls = []
            fn = lambda xt, t: calls.append(np.array(xt)) or ratio_fn(xt, t)
            draws = generate(terminal, Q, SCHEDULE_UNIT, fn, np.random.default_rng(7), count, steps, 1e-3)
            p0 = estimate_mu(terminal, Q, SCHEDULE_UNIT, fn, np.random.default_rng(8), count, steps, 1e-3).probs
            blocks = [x[block] for x in batches for block in core.row_blocks(count, d * n)]
            out = draws, p0, calls, blocks, sorts.copy()
            batches.clear()
            sorts.clear()
            return out

        draws, p0, calls, blocks, direct_sorts = run(block_rows)
        want_draws, want_p0, _, _, sort_sorts = run(8)  # every block below n**d rows: the sort path
        assert len(sort_sorts) == 2 * steps * -(-count // 8)
        assert all(rows < n**d for rows in direct_sorts) and len(direct_sorts) == (0 if block_rows is None else 2 * steps)
        assert np.array_equal(draws, want_draws)
        np.testing.assert_allclose(p0, want_p0, rtol=0.0, atol=1e-15)
        # each call holds its block's distinct states in np.unique's order, or a block without repeats as it is
        assert len(calls) == len(blocks)
        want_calls = [b if len(distinct(b)) == len(b) else distinct(b) for b in blocks]
        assert all(np.array_equal(c, w) for c, w in zip(calls, want_calls))

    def test_a_block_of_every_state_once_is_passed_as_it_is(self, monkeypatch):
        rng = np.random.default_rng(523)
        n, d = 3, 2
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        xt = rng.permutation(np.stack(np.unravel_index(np.arange(n**d), (n,) * d), axis=1))
        assert not np.array_equal(xt, distinct(xt))
        ratio_fn, calls = table_ratio_fn(rng, n, d), []
        monkeypatch.setattr(np, "unique", None)  # no sort may run
        fn = lambda x, t: calls.append(np.array(x)) or ratio_fn(x, t)
        parts = [part for part, _ in sampler._step_chunks(xt, 1.0, 0.5, fn, Q, SCHEDULE_UNIT)]
        assert parts == [slice(0, n**d)]
        assert len(calls) == 1 and np.array_equal(calls[0], xt)


class TestTvDistance:
    def test_identical(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_quarter(self):
        assert tv_distance(np.array([0.25, 0.75]), np.array([0.5, 0.5])) == pytest.approx(0.25)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))
