"""Score network, score-entropy loss, oracle ratios, gradients, training loop."""

import itertools

import numpy as np
import pytest

from markov_bridge import (
    DivergenceError,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    ScoreBatch,
    ScoreModel,
    make_score_batch,
    oracle_ratio_fn,
    score_entropy_values,
    score_learning_loop,
    score_loss_and_grad,
    transition_kernel,
)
from markov_bridge import core, evaluation, score_learning
from markov_bridge.core import kernel_draw
from markov_bridge.matrix_learning import init_rate_matrices
from markov_bridge.reference import materialize_dense

from oracles import peak_traced_bytes, random_chain_arrays

LN2 = np.log(2.0)
SCHEDULE_UNIT = NoiseSchedule(sigma_min=1.0, sigma_max=1.0)


def point_mass(n, x):
    row = np.zeros(n)
    row[x] = 1.0
    return ProductDistribution(row[None, :])


def random_chain(rng, n, d=1, a_lo=0.2, a_hi=2.0):
    return FactorizedRateMatrix(*random_chain_arrays(rng, n, d, a_lo, a_hi))


class TestSampleXt:
    def test_t_zero_returns_x0(self):
        rng = np.random.default_rng(301)
        Q = random_chain(rng, 5, d=3)
        x0 = rng.integers(0, 5, size=(20, 3))
        # the identity kernel, whatever the uniforms
        assert np.array_equal(kernel_draw(Q, SCHEDULE_UNIT.beta(0.0), x0, rng.random((20, 3))), x0)

    def test_half_life_frequencies(self):
        Q = FactorizedRateMatrix([[0, 1]], [[LN2]])
        rng = np.random.default_rng(303)
        draws = kernel_draw(Q, SCHEDULE_UNIT.beta(1.0), np.zeros((100000, 1), dtype=np.int64), rng.random((100000, 1)))
        freq = float(np.mean(draws == 0))
        # binomial 3 sigma around 0.5 at 1e5 draws
        assert abs(freq - 0.5) <= 3.0 * 0.5 / np.sqrt(100000)

    def test_absorbing_limit(self):
        a = np.zeros(3)
        a[-1] = 1.0
        perm = np.array([1, 3, 0, 2])
        Q = FactorizedRateMatrix(perm[None, :], a[None, :])
        schedule = NoiseSchedule(sigma_min=60.0, sigma_max=60.0)
        rng = np.random.default_rng(307)
        draws = kernel_draw(Q, schedule.beta(1.0), np.full((200, 1), 3, dtype=np.int64), rng.random((200, 1)))
        assert np.all(draws == perm[-1])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_x0_outside_the_chain_refused(self, bad):
        # -1 would otherwise read state n-1's kernel row
        Q = random_chain(np.random.default_rng(309), 5, d=2)
        with pytest.raises(ValueError, match="states must lie in"):
            make_score_batch([[0, 1], [bad, 1]], Q, SCHEDULE_UNIT, np.random.default_rng(0))

    def test_batch_memory_is_order_b_times_d(self):
        # at the text8 shape one (B, d, n) float array is 14 MB; the batch
        # holds (B,) and (B, d) arrays and draws one cache chunk at a time
        rng = np.random.default_rng(311)
        n, d, B = 27, 256, 256
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.0, 2.0))
        x0 = rng.integers(0, n, size=(B, d))
        peak, batch = peak_traced_bytes(lambda: make_score_batch(x0, Q, NoiseSchedule(), rng))
        assert batch.xt.shape == (B, d)
        assert peak < 4 * 2**20


class TestOneKernelRowPass:
    """A score batch holds draws only; the loss builds each cache chunk's
    target from one kernel-row pass, and the bound draws as training does."""

    def test_ratio_target_matches_dense_kernel(self):
        # per-draw values against the integrand summed over a dense kernel row
        # and a dense generator column
        rng = np.random.default_rng(401)
        schedule = NoiseSchedule(sigma_min=0.3, sigma_max=3.0)
        for _ in range(10):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            Q = random_chain(rng, n, d=d)
            x0 = rng.integers(0, n, size=(32, d))
            batch = make_score_batch(x0, Q, schedule, rng)
            s = rng.uniform(0.1, 3.0, size=(batch.size, d, n))
            got = score_learning._per_sample_values(s, batch, Q, schedule)
            dense = materialize_dense(Q)
            for b in range(batch.size):
                K = transition_kernel(Q, schedule.beta(batch.t[b]))
                want = 0.0
                for i in range(d):
                    row, xt = K[i, x0[b, i]], batch.xt[b, i]
                    assert row[xt] > 0.0  # no state of mass 0 is drawn
                    r = row / row[xt]
                    rate = schedule.sigma(batch.t[b]) * dense[i, :, xt]
                    rate[xt] = 0.0
                    logs = np.log(np.maximum(r, 1e-12)) - np.log(s[b, i])
                    want += float(np.sum(rate * (s[b, i] - r + r * logs)))
                assert got[b] == pytest.approx(want * (1.0 - 1e-3), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small", "random"])
    def test_rate_factor_is_the_dense_generator_column(self, scheme):
        # values and output gradient against sigma(t) times column x_t of the
        # dense generator, its diagonal zeroed; the init schemes hold zero rates
        rng = np.random.default_rng(43)
        n, d, B = 9, 6, 40
        perms = np.stack([rng.permutation(n) for _ in range(d)])
        if scheme == "random":
            Q = FactorizedRateMatrix(perms, rng.uniform(0.0, 2.0, (d, n - 1)))
        else:
            Q = init_rate_matrices(perms, scheme)
        schedule = NoiseSchedule(sigma_min=0.3, sigma_max=3.0)
        batch = make_score_batch(rng.integers(0, n, size=(B, d)), Q, schedule, rng)
        s = rng.uniform(0.1, 3.0, size=(B, d, n))
        grad = np.empty_like(s)
        values = score_learning._per_sample_values(s, batch, Q, schedule, d_out=grad)
        rate = materialize_dense(Q)[np.arange(d)[None, :], :, batch.xt]
        np.put_along_axis(rate, batch.xt[:, :, None], 0.0, axis=2)
        rate *= schedule.sigma(batch.t)[:, None, None]
        rows = core.kernel_rows(Q, schedule.beta(batch.t), batch.x0)
        r = rows / np.maximum(np.take_along_axis(rows, batch.xt[:, :, None], axis=2), 1e-12)
        weight = 1.0 - batch.eps_t
        assert np.array_equal(grad, weight / B * rate * (s - r))
        logs = np.log(np.maximum(r, 1e-12)) - np.log(s)
        want = weight * np.sum(rate * (s - r + r * logs), axis=(1, 2))
        assert values == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_kernel_rows_built_once_per_cache_chunk(self, monkeypatch):
        calls = []
        real = score_learning.kernel_rows
        monkeypatch.setattr(score_learning, "kernel_rows", lambda *a: calls.append(len(a[2])) or real(*a))
        draws = []
        make = evaluation.make_score_batch
        monkeypatch.setattr(evaluation, "make_score_batch", lambda *a: draws.append(len(a[0])) or make(*a))
        rng = np.random.default_rng(409)
        n, d, B = 5, 3, 16
        Q = random_chain(rng, n, d=d)
        model = ScoreModel(n, d, hidden=(8,), rng=rng)
        batch = make_score_batch(rng.integers(0, n, size=(B, d)), Q, SCHEDULE_UNIT, rng)
        assert calls == []
        monkeypatch.setattr(core, "CHUNK_ELEMENTS", 6 * d * n)
        score_loss_and_grad(model, batch, Q, SCHEDULE_UNIT)
        assert calls == [6, 6, 4]
        score_entropy_values(model.forward_batch, batch, Q, SCHEDULE_UNIT).mean()
        assert calls == [6, 6, 4] * 2
        # the bound: one batch of draws, then each block's chunks
        calls.clear()
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 40 * d * n)
        data = rng.integers(0, n, size=(50, d))
        evaluation.elbo_estimate(model.forward_batch, data, Q, SCHEDULE_UNIT,
                                 ProductDistribution.uniform(n, d), 100, rng)
        assert draws == [100]
        assert calls == [6] * 6 + [4] + [6] * 6 + [4] + [6] * 3 + [2]


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
        # a row's ratios do not depend on the rows batched with it, up to the
        # last bits of the BLAS products, whose results for one row may
        # differ with the batch size: each row alone, and a row block as the
        # blocked bound computes it, against the full batch
        rng = np.random.default_rng(5)
        model = ScoreModel(4, 2, rng=rng)
        model.weights[-1] += 0.1
        xt = rng.integers(0, 4, size=(300, 2))
        t = rng.uniform(0.0, 1.0, 300)
        full = model.forward_batch(xt, t)
        assert np.array_equal(model.forward_batch(xt, t), full)
        few_ulp = dict(rtol=16 * np.finfo(np.float64).eps, atol=0.0)
        for b in range(0, 300, 23):
            np.testing.assert_allclose(model.forward_batch(xt[b:b + 1], t[b]), full[b:b + 1], **few_ulp)
        np.testing.assert_allclose(model.forward_batch(xt[40:251], t[40:251]), full[40:251], **few_ulp)

    @pytest.mark.parametrize("t", [0.37, "per row"])
    def test_gathered_first_layer_matches_one_hot_product(self, t):
        rng = np.random.default_rng(313)
        n, d, B = 27, 20, 600  # more rows than one gather block
        model = ScoreModel(n, d, hidden=(32,), rng=rng)
        model.biases[0] += rng.normal(0.0, 0.1, 32)
        xt = rng.integers(0, n, size=(B, d))
        if t == "per row":
            t = rng.uniform(1e-3, 1.0, B)
        emb = score_learning.time_embedding(t)
        dense = model.encode(xt, emb) @ model.weights[0].T + model.biases[0]
        # entries that cancel to near 0 are held to rtol of the layer's scale
        scale = np.abs(dense).max()
        np.testing.assert_allclose(model.first_layer(xt, emb, np.empty((B, 32))), dense, rtol=1e-12, atol=1e-12 * scale)

    def test_a_model_without_a_hidden_layer_refused(self):
        # fresh weights, or a single (d*n, d*n + 16) layer handed in as params
        with pytest.raises(ValueError, match="hidden layer"):
            ScoreModel(3, 2, hidden=())
        with pytest.raises(ValueError, match="hidden layer"):
            ScoreModel(3, 2, params=([np.zeros((6, 22))], [np.zeros(6)]))

    @pytest.mark.parametrize("xt", [[[0, 4]], [[-1, 0]], [[0, 1, 2]]])
    def test_state_rows_outside_the_model_refused(self, xt):
        # a state >= n would otherwise pick the next dimension's weights
        model = ScoreModel(4, 2, hidden=(8,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward_batch(xt, 0.5)

    def test_one_time_matches_the_time_repeated_per_row(self):
        rng = np.random.default_rng(319)
        n, d, B = 6, 4, 600  # more rows than one gather block
        model = ScoreModel(n, d, hidden=(32, 32), rng=rng)
        model.weights[-1] += rng.normal(0, 0.3, model.weights[-1].shape)
        model.biases[0] += rng.normal(0.0, 0.1, 32)
        xt = rng.integers(0, n, size=(B, d))
        # the one-row and the B-row BLAS products of the time term may round
        # apart by an ulp, which two hidden layers and the exp head carry on
        few_ulp = dict(rtol=16 * np.finfo(np.float64).eps, atol=0.0)
        for t in (0.0, 0.37, 1.0):
            per_row = model.forward_batch(xt, np.full(B, t))
            np.testing.assert_allclose(model.forward_batch(xt, t), per_row, **few_ulp)
            np.testing.assert_allclose(model.forward_batch(xt, [t]), per_row, **few_ulp)

    @pytest.mark.parametrize("t", [float("nan"), 2.0, -0.1, [0.5, float("nan"), 0.5], [0.5, 0.5], [[0.5], [0.5], [0.5]]])
    def test_times_outside_zero_one_or_of_other_counts_refused(self, t):
        # 3 rows: a time must lie in [0, 1] and come once or once per row
        model = ScoreModel(4, 2, hidden=(8,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward_batch([[0, 1], [2, 3], [1, 1]], t)

    def test_time_embedded_once_per_score_step(self, monkeypatch):
        rng = np.random.default_rng(323)
        model = ScoreModel(4, 3, hidden=(8,), rng=rng)
        Q = random_chain(rng, 4, d=3)
        batch = make_score_batch(rng.integers(0, 4, size=(10, 3)), Q, SCHEDULE_UNIT, rng)
        embedded = []
        embed = score_learning.time_embedding
        monkeypatch.setattr(score_learning, "time_embedding", lambda t: embedded.append(np.size(t)) or embed(t))
        score_loss_and_grad(model, batch, Q, SCHEDULE_UNIT)
        assert embedded == [10]

    def test_blocks_of_two_hidden_layers_embed_their_own_times(self, monkeypatch):
        rng = np.random.default_rng(331)
        n, d, B = 3, 2, 250
        model = ScoreModel(n, d, hidden=(20, 12), rng=rng)
        model.weights[-1] += rng.normal(0, 0.3, model.weights[-1].shape)
        xt = rng.integers(0, n, size=(B, d))
        few_ulp = dict(rtol=16 * np.finfo(np.float64).eps, atol=0.0)
        for t in (0.37, rng.uniform(0.0, 1.0, B)):
            whole = model.forward_batch(xt, t)
            rows, embedded = [], []
            first, embed = model.first_layer, score_learning.time_embedding
            monkeypatch.setattr(model, "first_layer", lambda x, e, out: rows.append(len(x)) or first(x, e, out))
            monkeypatch.setattr(score_learning, "time_embedding", lambda t: embedded.append(np.size(t)) or embed(t))
            # a block holds both hidden layers, 20 + 12 wide: 40 rows to a block
            monkeypatch.setattr(core, "BLOCK_ELEMENTS", 64 * 20)
            np.testing.assert_allclose(model.forward_batch(xt, t), whole, **few_ulp)
            blocks = [40] * 6 + [10]
            assert rows == blocks
            # a scalar time is embedded once, per-row times once per block
            assert embedded == ([1] if np.ndim(t) == 0 else blocks)
            # a time count that fits some block but not the batch is refused
            # before any block runs
            with pytest.raises(ValueError, match="one per state row"):
                model.forward_batch(xt, np.full(40, 0.5))
            assert rows == blocks
            monkeypatch.undo()

    @pytest.mark.parametrize("hidden", [(8,), (20, 12, 16), (12, 20, 8, 24)])
    def test_blocks_sharing_one_hidden_array_match_one_block(self, monkeypatch, hidden):
        # the layers of every block alternate between the ends of one array,
        # whatever the count and widths of the hidden layers
        rng = np.random.default_rng(347)
        n, d, B = 3, 2, 250
        model = ScoreModel(n, d, hidden=hidden, rng=rng)
        model.weights[-1] += rng.normal(0, 0.3, model.weights[-1].shape)
        xt = rng.integers(0, n, size=(B, d))
        t = rng.uniform(0.0, 1.0, B)
        whole = model.forward_batch(xt, t)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 64 * 20)
        few_ulp = dict(rtol=16 * np.finfo(np.float64).eps, atol=0.0)
        np.testing.assert_allclose(model.forward_batch(xt, t), whole, **few_ulp)

    def test_forward_memory_set_by_the_block_budget(self):
        # at the desk shape the 128-wide hidden layers are four times the
        # (B, d*n) output: whole-batch activations would hold 64 MB here
        rng = np.random.default_rng(337)
        n, d, B = 8, 4, 32768
        model = ScoreModel(n, d, hidden=(128, 128), rng=rng)
        xt = rng.integers(0, n, size=(B, d))
        for t in (0.4, rng.uniform(0.0, 1.0, B)):
            peak = peak_traced_bytes(lambda: model.forward_batch(xt, t))[0]
            # the output plus one memory block of two hidden activations, and
            # a quarter block for the per-row times and the gather's indices
            assert peak < B * d * n * 8 + 1.25 * core.BLOCK_ELEMENTS * 8

    def test_only_backward_builds_the_one_hot(self, monkeypatch):
        rng = np.random.default_rng(317)
        model = ScoreModel(4, 3, hidden=(8,), rng=rng)
        Q = random_chain(rng, 4, d=3)
        batch = make_score_batch(rng.integers(0, 4, size=(10, 3)), Q, SCHEDULE_UNIT, rng)
        calls = []
        encode = model.encode
        monkeypatch.setattr(model, "encode", lambda *a: calls.append(1) or encode(*a))
        model.forward_batch(batch.xt, batch.t)
        assert calls == []
        score_loss_and_grad(model, batch, Q, SCHEDULE_UNIT)
        assert calls == [1]


class TestExactScoreOracle:
    def test_point_mass_reduces_to_conditional_ratio(self):
        rng = np.random.default_rng(313)
        Q = random_chain(rng, 6)
        x0 = 2
        t = 0.6
        row = transition_kernel(Q, SCHEDULE_UNIT.beta(t))[0, x0]
        for xt in range(6):
            if row[xt] <= 0:
                continue
            out = oracle_ratio_fn(point_mass(6, x0), Q, SCHEDULE_UNIT)([[xt]], t)
            assert np.allclose(out[0, 0], row / row[xt], atol=1e-12)

    def test_early_time_self_ratio(self):
        rng = np.random.default_rng(317)
        mu = ProductDistribution(rng.dirichlet(np.ones(4), size=1) * 0.9 + 0.1 / 4)
        Q = random_chain(rng, 4)
        out = oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)([[1]], 1e-6)[0]
        target = mu.probs[0] / mu.probs[0][1]
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out[0], target, rtol=1e-4)

    def test_degenerate_state_error(self):
        from markov_bridge import DegenerateStateError

        mu = point_mass(3, 0)
        Q = FactorizedRateMatrix([[0, 1, 2]], [[0.0, 0.0]])
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
            loss = score_entropy_values(oracle_ratio_fn(mu, Q, SCHEDULE_UNIT), batch, Q, SCHEDULE_UNIT).mean()
            assert 0.0 <= loss <= 1e-10

    def test_non_finite_ratio_estimate_raises_naming_the_entry(self):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 1.0]])
        batch = ScoreBatch(t=[0.5, 0.25], x0=[[2], [2]], xt=[[2], [2]], eps_t=1e-3)

        def nan_at(xt, t):
            s = np.ones((2, 1, 3))
            s[1, 0, 1] = np.nan
            return s

        with pytest.raises(DivergenceError, match="non-finite score-entropy term at dim 0, state 1, t=0.25"):
            score_entropy_values(nan_at, batch, Q, SCHEDULE_UNIT).mean()

    def test_negative_ratio_estimate_raises_naming_the_entry(self):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 1.0]])
        batch = ScoreBatch(t=[0.5, 0.25], x0=[[2], [2]], xt=[[2], [2]], eps_t=1e-3)

        def negative_at(xt, t):
            s = np.ones((2, 1, 3))
            s[1, 0, 0] = -1e-300
            return s

        with pytest.raises(DivergenceError, match="negative ratio estimate at dim 0, state 0, t=0.25"):
            score_entropy_values(negative_at, batch, Q, SCHEDULE_UNIT).mean()

    def test_scaled_ratio_contribution(self):
        # s = e * r shifts every active term to rate * r * (e - 2)
        rng = np.random.default_rng(337)
        n = 5
        Q = random_chain(rng, n)
        x0_val = int(Q.perm[0, 0])  # sorted-first state: its row has full support
        mu = point_mass(n, x0_val)
        batch = make_score_batch(np.full((64, 1), x0_val, dtype=np.int64), Q, SCHEDULE_UNIT, rng)
        oracle = oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)
        scaled = lambda xt, t: np.e * oracle(xt, t)
        loss = score_entropy_values(scaled, batch, Q, SCHEDULE_UNIT).mean()
        # independent accumulation of rate * r * (e - 2)
        dense = materialize_dense(Q)[0]
        expected = 0.0
        eps_t = 1e-3
        for b in range(batch.size):
            t = batch.t[b]
            row = transition_kernel(Q, SCHEDULE_UNIT.beta(t))[0, x0_val]
            xt = batch.xt[b, 0]
            r = row / max(row[xt], 1e-12)
            c = SCHEDULE_UNIT.sigma(t) * dense[:, xt]
            c[xt] = 0.0
            expected += float(np.sum(c * r * (np.e - 2.0))) * (1.0 - eps_t)
        expected /= batch.size
        assert loss == pytest.approx(expected, rel=1e-9)
        assert loss > 0.0

    def test_memory_set_by_the_block_budget(self):
        # at the text8 shape one (B, d, n) array of 2048 draws is 108 MiB; the
        # estimator holds one memory block of ratios and its chunks at a time
        rng = np.random.default_rng(353)
        n, d, B = 27, 256, 2048
        Q = random_chain(rng, n, d=d)
        batch = make_score_batch(rng.integers(0, n, size=(B, d)), Q, NoiseSchedule(), rng)
        ones = lambda xt, t: np.ones((len(xt), d, n))
        peak = peak_traced_bytes(lambda: score_entropy_values(ones, batch, Q, NoiseSchedule()))[0]
        assert peak < 3 * core.BLOCK_ELEMENTS * 8

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ScoreBatch(t=np.empty(0), x0=np.empty((0, 1)), xt=np.empty((0, 1)), eps_t=1e-3)

    @pytest.mark.parametrize(
        "t, eps_t", [(0.5, 0.0), (0.5, np.nan), (1e-4, 1e-3), (1.5, 1e-3), (np.nan, 1e-3), (1.0, 1.0)]
    )
    def test_times_outside_eps_t_to_one_rejected(self, t, eps_t):
        # the first time lies in [eps_t, 1] whenever eps_t does, so only the
        # second time or eps_t itself is refused
        with pytest.raises(ValueError, match="eps_t <= t <= 1"):
            ScoreBatch(t=[max(0.5, eps_t), t], x0=[[0], [1]], xt=[[0], [1]], eps_t=eps_t)

    def test_x0_and_xt_of_other_shapes_rejected(self):
        with pytest.raises(ValueError, match="x0 and xt"):
            ScoreBatch(t=[0.5], x0=[[0, 1]], xt=[[0]], eps_t=1e-3)

    @pytest.mark.parametrize("xt, message", [([3], "states must lie in"), ([-1], "states must lie in"),
                                             ([0, 1], "state rows must hold d=1")], ids=["n", "minus_one", "long_row"])
    def test_xt_outside_the_chain_refused_before_any_gather(self, xt, message):
        # without the check, 3 is an out-of-bounds index and -1 wraps to state 2
        Q = FactorizedRateMatrix([[0, 1, 2]], [[1.0, 0.5]])
        batch = ScoreBatch(t=[0.5], x0=[[0] * len(xt)], xt=[xt], eps_t=1e-3)
        with pytest.raises(ValueError, match=message):
            score_learning._per_sample_values(np.ones((1, 1, 3)), batch, Q, NoiseSchedule())

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
        mu = ProductDistribution(rng.dirichlet(np.ones(n), size=1) * 0.8 + 0.2 / n)
        x0 = rng.choice(n, size=(4096, 1), p=mu.probs[0]).astype(np.int64)
        batch = make_score_batch(x0, Q, SCHEDULE_UNIT, rng)
        oracle = oracle_ratio_fn(mu, Q, SCHEDULE_UNIT)
        base = score_entropy_values(oracle, batch, Q, SCHEDULE_UNIT).mean()
        up = score_entropy_values(lambda xt, t: np.e * oracle(xt, t), batch, Q, SCHEDULE_UNIT).mean()
        down = score_entropy_values(lambda xt, t: oracle(xt, t) / np.e, batch, Q, SCHEDULE_UNIT).mean()
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
                means.append(score_entropy_values(model.forward_batch, batch, Q, SCHEDULE_UNIT).mean())
            means = np.asarray(means)
            return means.mean(), means.std(ddof=1) / np.sqrt(chunks)

        m1, se1 = estimate(rng1)
        m2, se2 = estimate(rng2)
        assert abs(m1 - m2) <= 3.0 * np.hypot(se1, se2)


class TestScoreGrad:
    def test_zero_gradient_when_targets_match_fresh_model(self):
        # the kernel row of state 0 at beta = ln 2 is uniform, so every true
        # ratio is 1, exactly what a zero-initialized model outputs, and the
        # gradient vanishes
        Q = FactorizedRateMatrix([[0, 1]], [[1.0]])
        model = ScoreModel(2, 1, hidden=(8,), rng=np.random.default_rng(3))
        t = np.full(8, LN2)
        batch = ScoreBatch(t=t, x0=np.zeros((8, 1)), xt=[[0], [1]] * 4, eps_t=1e-3)
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
                    up = score_entropy_values(model.forward_batch, batch, Q, SCHEDULE_UNIT).mean()
                    param[idx] = orig - h
                    down = score_entropy_values(model.forward_batch, batch, Q, SCHEDULE_UNIT).mean()
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
        # the target of x0 = 2, xt = 1, as one draw and three alike
        single = ScoreBatch(t=[0.7], x0=[[2]], xt=[[1]], eps_t=1e-3)
        tripled = ScoreBatch(t=[0.7] * 3, x0=[[2]] * 3, xt=[[1]] * 3, eps_t=1e-3)
        _, gw1, gb1 = score_loss_and_grad(model, single, Q, SCHEDULE_UNIT)
        _, gw3, gb3 = score_loss_and_grad(model, tripled, Q, SCHEDULE_UNIT)
        for g1, g3 in zip(gw1 + gb1, gw3 + gb3):
            assert np.allclose(g1, g3, atol=1e-14)


    def test_backward_holds_one_hidden_temporary(self):
        # tanh' is formed in each consumed activation's memory, so besides the
        # gradients only delta @ W, one (B, H) array, is made per layer
        rng = np.random.default_rng(371)
        n, d, B, H = 2, 2, 4096, 256
        model = ScoreModel(n, d, hidden=(H, H), rng=rng)
        acts = []
        emb = score_learning.time_embedding(rng.uniform(0.1, 1.0, B))
        model._forward(rng.integers(0, n, (B, d)), emb, np.empty((B, d * n)), acts)
        acts.append(rng.normal(size=(B, d * n)))
        grads = ([np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases])
        peak = peak_traced_bytes(lambda: model.backward(acts, grads))[0]
        assert peak < 2 * B * H * 8

    def test_gradients_into_an_earlier_calls_arrays(self):
        # the loop's later steps write into the first step's arrays, bit for bit
        rng = np.random.default_rng(399)
        Q = random_chain(rng, 5, d=3)
        model = ScoreModel(5, 3, hidden=(8, 8), rng=rng)
        model.weights[-1][:] = rng.normal(0.0, 0.3, model.weights[-1].shape)
        first, second = (make_score_batch(rng.integers(0, 5, (16, 3)), Q, SCHEDULE_UNIT, rng) for _ in range(2))
        _, *grads = score_loss_and_grad(model, first, Q, SCHEDULE_UNIT)
        loss, grad_w, grad_b = score_loss_and_grad(model, second, Q, SCHEDULE_UNIT, grads)
        fresh = score_loss_and_grad(model, second, Q, SCHEDULE_UNIT)
        assert grad_w is grads[0] and grad_b is grads[1]
        assert grad_w[0].flags.f_contiguous and loss == fresh[0]
        for got, want in zip(grad_w + grad_b, fresh[1] + fresh[2]):
            np.testing.assert_array_equal(got, want)

    def test_no_output_array_beside_the_one_hot(self):
        # d*n = 2048 outputs and a one-hot as wide, against 8 hidden units: the
        # output gradient is freed once delta @ W_last exists, before the
        # one-hot for dW1 is built, so one (B, d*n) array is alive at a time
        rng = np.random.default_rng(397)
        n, d, B = 8, 256, 512
        Q = random_chain(rng, n, d=d)
        model = ScoreModel(n, d, hidden=(8,), rng=rng)
        model.weights[-1][:] = rng.normal(0.0, 0.1, model.weights[-1].shape)
        batch = make_score_batch(rng.integers(0, n, (B, d)), Q, NoiseSchedule(), rng)
        peak = peak_traced_bytes(lambda: score_loss_and_grad(model, batch, Q, NoiseSchedule()))[0]
        # one (B, d*n) array and a few (B, d) index arrays
        assert peak < B * d * n * 8 + 4 * B * d * 8


class TestCacheChunks:
    """The elementwise passes of a score step run in cache chunks of rows;
    no chunking may move a bit of the result."""

    @staticmethod
    def system(rng, n=5, d=3, B=16, hidden=(8, 8)):
        Q = random_chain(rng, n, d=d)
        model = ScoreModel(n, d, hidden=hidden, rng=rng)
        model.weights[-1] += rng.normal(0, 0.3, model.weights[-1].shape)
        return Q, model, make_score_batch(rng.integers(0, n, size=(B, d)), Q, NoiseSchedule(), rng)

    def test_loss_and_gradient_bit_identical_across_chunkings(self, monkeypatch):
        rng = np.random.default_rng(401)
        n, d, B = 5, 3, 16
        # training and the one-block forward agree bit for bit, also with
        # three hidden layers of unequal widths
        for hidden in ((8, 8), (12, 20, 8)):
            Q, model, batch = self.system(rng, n, d, B, hidden)
            one = score_loss_and_grad(model, batch, Q, NoiseSchedule())
            for chunk_rows in (1, 3, B):  # 3 leaves a ragged last chunk
                monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk_rows * d * n)
                assert len(core.row_blocks(B, d * n, cache=True)) == -(-B // chunk_rows)
                loss, grad_w, grad_b = score_loss_and_grad(model, batch, Q, NoiseSchedule())
                assert loss == one[0]
                for got, want in zip(grad_w + grad_b, one[1] + one[2]):
                    assert np.array_equal(got, want)
                assert score_entropy_values(model.forward_batch, batch, Q, NoiseSchedule()).mean() == loss
            monkeypatch.undo()

    def test_weight_gradients_share_their_weights_layout(self):
        rng = np.random.default_rng(403)
        Q, model, batch = self.system(rng)
        _, grad_w, _ = score_loss_and_grad(model, batch, Q, NoiseSchedule())
        assert model.weights[0].flags.f_contiguous and not model.weights[0].flags.c_contiguous
        for w, g in zip(model.weights, grad_w):
            assert g.strides == w.strides

    @pytest.mark.parametrize("grad_order", ["F", "C"])
    def test_adam_update_matches_whole_array_arithmetic(self, monkeypatch, grad_order):
        # an F-ordered first-layer weight over several chunks; a gradient in
        # the other order must still pair entry with entry
        rng = np.random.default_rng(409)
        shape = (6, 37)
        param = np.asfortranarray(rng.normal(size=shape))
        grad = np.array(rng.normal(size=shape), order=grad_order)
        m = np.asfortranarray(rng.normal(size=shape))
        v = np.asfortranarray(rng.uniform(0.0, 2.0, size=shape))
        scale = 3e-4 * np.sqrt(1.0 - 0.999**3) / (1.0 - 0.9**3)
        want_m = 0.9 * m + (1.0 - 0.9) * grad
        want_v = 0.999 * v + (1.0 - 0.999) * grad**2
        want = param - scale * want_m / (np.sqrt(want_v) + 1e-8)
        for chunk in (1, 5, param.size):
            monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk)
            p, mc, vc = param.copy(order="K"), m.copy(order="K"), v.copy(order="K")
            score_learning._adam_update(p, grad, mc, vc, scale)
            assert np.array_equal(mc, want_m) and np.array_equal(vc, want_v)
            assert np.array_equal(p, want)

    def test_adam_update_refuses_a_non_contiguous_parameter(self):
        param = np.zeros((6, 8))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            score_learning._adam_update(param, np.zeros((6, 4)), np.zeros((6, 4)), np.zeros((6, 4)), 1e-3)

    def test_training_bit_identical_across_chunkings(self, monkeypatch):
        rng = np.random.default_rng(419)
        Q, model, batch = self.system(rng)
        start = [x.copy(order="K") for x in model.weights + model.biases]
        trained = []
        for chunk in (None, 1, 7):
            if chunk is not None:
                monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk)
            fresh = ScoreModel(model.n, model.d, params=(start[:3], start[3:]))
            score_learning_loop(fresh, itertools.repeat(batch), Q, NoiseSchedule(), max_step=4, eps_score=0.0)
            trained.append(fresh.weights + fresh.biases)
        assert len(core.row_blocks(start[0].size, 1, cache=True)) > 1
        for other in trained[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(trained[0], other))


def _batch_stream(rng, n, d, Q, mu, size, schedule=SCHEDULE_UNIT):
    probs = mu.probs
    while True:
        x0 = np.stack([rng.choice(n, size=size, p=probs[i]) for i in range(d)], axis=1)
        yield make_score_batch(x0.astype(np.int64), Q, schedule, rng)


class TestScoreLearningLoop:
    def test_holds_one_steps_gradients(self):
        # at d*n = 2048 and 64 hidden units the gradients are 2 MB and a step's
        # batch arrays 0.25 MB: the second step writes its gradients into the
        # first step's arrays, so two steps' gradients are never alive at once
        rng = np.random.default_rng(401)
        n, d, B = 8, 256, 16
        Q = random_chain(rng, n, d=d)
        model = ScoreModel(n, d, hidden=(64,), rng=rng)
        batches = [make_score_batch(rng.integers(0, n, (B, d)), Q, NoiseSchedule(), rng) for _ in range(2)]
        grads = sum(p.nbytes for p in model.weights + model.biases)
        peak = peak_traced_bytes(lambda: score_learning_loop(model, iter(batches), Q, NoiseSchedule(), 2, 0.0))[0]
        # the two Adam moments, one step's gradients and three cache chunks
        assert peak < 3 * grads + 3 * 8 * core.CHUNK_ELEMENTS

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

    def test_step_cap_below_one_rejected(self):
        rng = np.random.default_rng(373)
        Q = random_chain(rng, 4)
        stream = _batch_stream(rng, 4, 1, Q, ProductDistribution.uniform(4, 1), 16)
        with pytest.raises(ValueError, match="max_step"):
            score_learning_loop(ScoreModel(4, 1, hidden=(8,), rng=rng), stream, Q, SCHEDULE_UNIT, max_step=0,
                                eps_score=0.0)

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

    def test_loss_that_runs_away_raises(self):
        # the second batch's targets are far from the untrained ratios, so
        # the smoothed loss of two steps is over 10x that of the first. Both
        # draws sit at the sorted-last state, which every other state has a
        # rate into. The first starts there, so its targets are 0 off it; the
        # second starts sorted first and reaches it at a rate of 1e-4, so at
        # beta = 0.5 its targets are 5e3 to 8e3
        rng = np.random.default_rng(391)
        perm = rng.permutation(4)
        Q = FactorizedRateMatrix(perm[None, :], [[1.0, 1.0, 1e-4]])
        first, last = [[int(perm[0])]], [[int(perm[-1])]]
        batches = iter([ScoreBatch(t=[0.5], x0=x0, xt=last, eps_t=1e-3) for x0 in (last, first)])
        model = ScoreModel(4, 1, hidden=(8,), rng=rng)
        with pytest.raises(DivergenceError, match="diverged") as err:
            score_learning_loop(model, batches, Q, SCHEDULE_UNIT, max_step=5, eps_score=0.0, lr=0.0)
        diagnostics = err.value.diagnostics
        assert diagnostics["step"] == 1 and diagnostics["smoothed"] > 10.0 * diagnostics["initial"]

    def test_converges_near_oracle_floor(self):
        # width-64 net on an n=8 toy must land within 10% of the oracle loss
        rng = np.random.default_rng(389)
        n = 8
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=10.0)
        Q = random_chain(rng, n, a_lo=0.3, a_hi=1.5)
        mu = ProductDistribution(rng.dirichlet(2 * np.ones(n), size=1) * 0.8 + 0.2 / n)
        model = ScoreModel(n, 1, hidden=(64, 64), rng=np.random.default_rng(11))

        eval_rng = np.random.default_rng(397)
        oracle = oracle_ratio_fn(mu, Q, schedule)

        def big_loss(fn):
            losses = [
                score_entropy_values(fn, next(_batch_stream(eval_rng, n, 1, Q, mu, 16384, schedule)), Q, schedule).mean()
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
