"""Bound accounting: KL factorization, Monte Carlo score term, report identities."""

import itertools

import numpy as np
import pytest

from markov_bridge import (
    DivergenceError,
    ElboReport,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    ScoreModel,
    elbo_estimate,
    evolve_rows,
    kl_term,
    make_score_batch,
    oracle_ratio_fn,
    score_entropy_values,
    transition_kernel,
)
from markov_bridge import core
from markov_bridge.core import kl_divergence
from markov_bridge.matrix_learning import init_rate_matrices

from oracles import joint_kernel_row, kl_brute, peak_traced_bytes, random_chain_arrays

LN2 = np.log(2.0)
SCHEDULE_UNIT = NoiseSchedule(sigma_min=1.0, sigma_max=1.0)


class TestKlTerm:
    def test_zero_when_rows_equal_terminal(self):
        Q = FactorizedRateMatrix([[0, 1]], [[LN2]])
        row = transition_kernel(Q, 1.0)[0, 0]
        terminal = ProductDistribution(row[None, :])
        assert kl_term([[0]], Q, SCHEDULE_UNIT, terminal) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        Q = FactorizedRateMatrix([[0, 1]], [[LN2]])
        terminal = ProductDistribution([[0.25, 0.75]])
        val = kl_term([[0]], Q, SCHEDULE_UNIT, terminal)
        assert val == pytest.approx(0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0), abs=1e-12)

    def test_identical_dims_double(self):
        Q1 = FactorizedRateMatrix([[0, 1]], [[LN2]])
        Q2 = FactorizedRateMatrix([[0, 1]] * 2, [[LN2]] * 2)
        t1 = ProductDistribution([[0.25, 0.75]])
        t2 = ProductDistribution([[0.25, 0.75]] * 2)
        assert kl_term([[0, 0]], Q2, SCHEDULE_UNIT, t2) == pytest.approx(
            2.0 * kl_term([[0]], Q1, SCHEDULE_UNIT, t1), rel=1e-12
        )

    def test_joint_enumeration_matches_per_dim_sum(self):
        # exhaustive check at n=3, d=2: KL over all 9 joint outcomes equals
        # the sum of the two marginal KLs
        rng = np.random.default_rng(503)
        for _ in range(20):
            Q = FactorizedRateMatrix(*random_chain_arrays(rng, 3, 2, 0.1, 2.0))
            terminal = ProductDistribution(
                rng.dirichlet(np.ones(3), size=2) * 0.9 + 0.1 / 3
            )
            x0 = tuple(rng.integers(0, 3, size=2))
            beta_T = SCHEDULE_UNIT.beta(1.0)
            rows = [transition_kernel(Q, beta_T)[i, x0[i]] for i in range(2)]
            joint_row = joint_kernel_row(rows)
            joint_terminal = joint_kernel_row(list(terminal.probs))
            joint_kl = kl_brute(joint_row, joint_terminal)
            per_dim = kl_term([x0], Q, SCHEDULE_UNIT, terminal)
            assert abs(joint_kl - per_dim) <= 1e-12

    def test_dataset_mean_of_rows(self):
        # the histogram form equals the plain mean of the per-row KL sums
        rng = np.random.default_rng(505)
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, 4, 3, 0.1, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(4), size=3) * 0.9 + 0.1 / 4)
        data = rng.integers(0, 4, size=(50, 3))
        per_row = [kl_term(row[None, :], Q, SCHEDULE_UNIT, terminal) for row in data]
        assert kl_term(data, Q, SCHEDULE_UNIT, terminal) == pytest.approx(np.mean(per_row), rel=1e-12)

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small"])
    def test_matches_per_row_kl_divergence(self, scheme):
        # reference: one kl_divergence call per data row and dimension
        rng = np.random.default_rng(509)
        schedule = NoiseSchedule(sigma_min=0.4, sigma_max=2.0)
        n, d = 5, 4
        Q = init_rate_matrices(np.stack([rng.permutation(n) for _ in range(d)]), scheme)
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        data = rng.integers(0, n, size=(40, d))
        kernels = transition_kernel(Q, schedule.beta(1.0))
        per_row = [sum(kl_divergence(kernels[i][x[i]], terminal.probs[i]) for i in range(d)) for x in data]
        assert kl_term(data, Q, schedule, terminal) == pytest.approx(np.mean(per_row), rel=1e-12, abs=0.0)

    def test_never_below_zero_where_roundoff_is(self):
        # at rates x1000 every kernel row is the terminal to roundoff, and the
        # matrix stage's loss, which is left unclamped, sums to a hair below 0
        rng = np.random.default_rng(513)
        perm, a = random_chain_arrays(rng, 27, 8, 0.1, 2.0)
        Q = FactorizedRateMatrix(perm, 1000.0 * a)
        data = rng.integers(0, 27, size=(100, 8))
        freqs = core.state_frequencies(data, 27)
        terminal = ProductDistribution(evolve_rows(freqs, Q, SCHEDULE_UNIT.beta(1.0))[0])
        assert core.row_kl_sum(Q, SCHEDULE_UNIT.beta(1.0), freqs, terminal.probs)[0] < 0.0
        assert kl_term(data, Q, SCHEDULE_UNIT, terminal) == 0.0

    def test_width_mismatch_refused(self):
        # d = 3 chains: neither a (B, 1) dataset nor a d = 1 terminal may broadcast against them
        rng = np.random.default_rng(511)
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, 4, 3, 0.1, 2.0))
        terminal = ProductDistribution(rng.dirichlet(np.ones(4), size=3))
        with pytest.raises(ValueError, match="shape"):
            kl_term(rng.integers(0, 4, size=(5, 1)), Q, SCHEDULE_UNIT, terminal)
        with pytest.raises(ValueError, match="shape"):
            kl_term(rng.integers(0, 4, size=(5, 3)), Q, SCHEDULE_UNIT, ProductDistribution(terminal.probs[:1]))


def point_mass_dataset(n, value, size, d=1):
    return np.full((size, d), value, dtype=np.int64)


class TestElboEstimate:
    def test_oracle_score_term_statistically_zero(self):
        # point-mass data: the oracle equals the conditional ratio, so the
        # score integrand vanishes pointwise
        rng = np.random.default_rng(509)
        n = 5
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, 1, 0.3, 1.5))
        mu_row = np.zeros(n)
        mu_row[2] = 1.0
        mu = ProductDistribution(mu_row[None, :])
        data = point_mass_dataset(n, 2, 64)
        terminal = ProductDistribution(
            evolve_rows(mu.probs, Q, SCHEDULE_UNIT.beta(1.0))[0] * (1 - n * 1e-9) + 1e-9
        )
        report = elbo_estimate(
            oracle_ratio_fn(mu, Q, SCHEDULE_UNIT), data, Q, SCHEDULE_UNIT, terminal, 2048, rng
        )
        assert report.j_score <= max(3.0 * report.mc_std_error, 1e-10)

    def test_frozen_identity_chain_total_zero(self):
        n = 4
        Q = FactorizedRateMatrix(np.arange(n)[None, :], np.zeros((1, n - 1)))
        data = point_mass_dataset(n, 1, 32)
        one_hot = np.zeros(n)
        one_hot[1] = 1.0
        terminal = ProductDistribution(one_hot[None, :])
        uniform_ratios = lambda xt, t: np.ones((xt.shape[0], 1, n))
        report = elbo_estimate(uniform_ratios, data, Q, SCHEDULE_UNIT, terminal, 512, np.random.default_rng(1))
        assert report.total_nats == pytest.approx(0.0, abs=1e-12)

    def test_std_error_scaling(self):
        rng_sys = np.random.default_rng(521)
        n = 4
        Q = FactorizedRateMatrix(*random_chain_arrays(rng_sys, n, 1, 0.3, 1.5))
        mu = ProductDistribution(rng_sys.dirichlet(np.ones(n), size=1) * 0.8 + 0.2 / n)
        data = rng_sys.choice(n, size=(4096, 1), p=mu.probs[0]).astype(np.int64)
        terminal = ProductDistribution.uniform(n, 1)
        model = lambda xt, t: np.ones((xt.shape[0], 1, n))  # fixed imperfect scorer
        # keep the time window away from 0 where the integrand grows heavy
        # tails that would need far more samples for a stable variance
        r1 = elbo_estimate(model, data, Q, SCHEDULE_UNIT, terminal, 20000, np.random.default_rng(3), eps_t=0.3)
        r2 = elbo_estimate(model, data, Q, SCHEDULE_UNIT, terminal, 40000, np.random.default_rng(4), eps_t=0.3)
        ratio = r1.mc_std_error / r2.mc_std_error
        assert 0.8 * np.sqrt(2.0) <= ratio <= 1.2 * np.sqrt(2.0)

    @pytest.mark.parametrize("rows, mc_samples, message", [(0, 8, "dataset is empty"), (4, 1, "at least 2")])
    def test_empty_dataset_or_one_draw_refused(self, rows, mc_samples, message):
        Q = FactorizedRateMatrix([[0, 1, 2]], [[0.5, 0.5]])
        data = np.zeros((rows, 1), dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            elbo_estimate(lambda xt, t: np.ones((xt.shape[0], 1, 3)), data, Q, SCHEDULE_UNIT,
                          ProductDistribution.uniform(3, 1), mc_samples, np.random.default_rng(0))

    def test_eps_t_of_one_refused(self):
        # every time would be T, and the score term weighted by T - eps_t = 0
        Q = FactorizedRateMatrix([[0, 1, 2]], [[0.5, 0.5]])
        with pytest.raises(ValueError, match="0 < eps_t < 1"):
            elbo_estimate(lambda xt, t: np.ones((xt.shape[0], 1, 3)), np.zeros((4, 1), dtype=np.int64), Q,
                          SCHEDULE_UNIT, ProductDistribution.uniform(3, 1), 8, np.random.default_rng(0), eps_t=1.0)

    def test_negative_ratios_refused(self):
        # the score term's log floors s, so -1 would read as a finite bound
        rng = np.random.default_rng(529)
        n, d = 4, 2
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.2, 1.0))
        negative = lambda xt, t: np.full((xt.shape[0], d, n), -1.0)
        with pytest.raises(DivergenceError, match="negative ratio estimate at dim 0, state "):
            elbo_estimate(negative, rng.integers(0, n, size=(32, d)), Q, SCHEDULE_UNIT,
                          ProductDistribution.uniform(n, d), 64, rng)

    def test_report_identities_and_finiteness(self):
        rng = np.random.default_rng(523)
        n, d = 3, 2
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.2, 1.0))
        data = rng.integers(0, n, size=(128, d))
        terminal = ProductDistribution.uniform(n, d)
        model = lambda xt, t: np.ones((xt.shape[0], d, n))
        report = elbo_estimate(model, data, Q, SCHEDULE_UNIT, terminal, 1024, rng)
        assert report.total_nats == report.j_score + report.kl_term
        assert report.bits_per_dim == pytest.approx(report.total_nats / (d * LN2), rel=1e-15)
        for field in (report.j_score, report.kl_term, report.total_nats, report.bits_per_dim, report.mc_std_error):
            assert np.isfinite(field)

    def test_bound_dominates_exact_reverse_nll(self):
        # enumerable toy with exact marginal ratios: the estimated bound must
        # not undercut the reverse process's exact NLL (3 sigma band on the MC side)
        rng = np.random.default_rng(541)
        n, d = 3, 2
        schedule = NoiseSchedule(sigma_min=0.2, sigma_max=4.0)
        eps_t = 1e-3
        mu = ProductDistribution(rng.dirichlet(2 * np.ones(n), size=d) * 0.8 + 0.2 / n)
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.3, 1.2))
        data = np.stack(
            [rng.choice(n, size=20000, p=mu.probs[i]) for i in range(d)], axis=1
        ).astype(np.int64)
        terminal = ProductDistribution(
            evolve_rows(mu.probs, Q, schedule.beta(1.0))[0]
        )
        report = elbo_estimate(
            oracle_ratio_fn(mu, Q, schedule), data, Q, schedule, terminal, 20000, rng, eps_t=eps_t
        )
        # the oracle chain's exact reverse marginal at eps_t is mu evolved to eps_t
        p_eps = evolve_rows(mu.probs, Q, schedule.beta(eps_t))[0]
        weights = core.state_frequencies(data, n)
        nll = float(-(weights * np.log(p_eps)).sum())
        assert report.total_nats >= nll - 3.0 * report.mc_std_error
        # and the oracle bound should sit close to that NLL, not far above it
        assert report.total_nats <= nll + 0.1


class TestRowBlocks:
    """The bound computes one row block at a time after drawing everything."""

    @staticmethod
    def system(rng, n, d):
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.05, 1.5))
        model = ScoreModel(n, d, hidden=(16,), rng=rng)
        model.weights[-1] += rng.normal(0.0, 0.3, model.weights[-1].shape)
        return Q, model, rng.integers(0, n, size=(40, d))

    def test_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(557)
        n, d, mc = 6, 4, 500
        Q, model, data = self.system(rng, n, d)
        terminal = ProductDistribution.uniform(n, d)
        schedule = NoiseSchedule(sigma_min=0.3, sigma_max=3.0)
        estimate = lambda: elbo_estimate(model.forward_batch, data, Q, schedule, terminal, mc, np.random.default_rng(5))
        one = estimate()
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 150 * d * n)
        assert len(core.row_blocks(mc, d * n)) >= 3
        blocked = estimate()
        # the ratio function sees other batch sizes, so its BLAS products may
        # move in the last bits
        assert blocked.j_score == pytest.approx(one.j_score, rel=1e-12, abs=0.0)
        assert blocked.mc_std_error == pytest.approx(one.mc_std_error, rel=1e-10, abs=0.0)
        assert blocked.kl_term == one.kl_term

    def test_cache_chunks_move_no_bit(self, monkeypatch):
        # chunks split only the elementwise passes, never the ratio calls
        rng = np.random.default_rng(559)
        n, d, mc = 6, 4, 500
        Q, model, data = self.system(rng, n, d)
        terminal = ProductDistribution.uniform(n, d)
        schedule = NoiseSchedule(sigma_min=0.3, sigma_max=3.0)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 150 * d * n)
        estimate = lambda: elbo_estimate(model.forward_batch, data, Q, schedule, terminal, mc, np.random.default_rng(5))
        one = estimate()
        for chunk_rows in (1, 7, mc):
            monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk_rows * d * n)
            assert estimate() == one

    def test_score_term_is_the_estimators_mean(self, monkeypatch):
        # the bound scores its draws with the training objective's estimator
        rng = np.random.default_rng(561)
        n, d, mc = 6, 4, 500
        Q, model, data = self.system(rng, n, d)
        schedule = NoiseSchedule(sigma_min=0.3, sigma_max=3.0)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 150 * d * n)
        report = elbo_estimate(model.forward_batch, data, Q, schedule, ProductDistribution.uniform(n, d), mc,
                               np.random.default_rng(5))
        draws = np.random.default_rng(5)
        batch = make_score_batch(data[draws.integers(0, len(data), size=mc)], Q, schedule, draws)
        assert report.j_score == score_entropy_values(model.forward_batch, batch, Q, schedule).mean()

    def test_memory_set_by_the_block_budget(self):
        # at n=27, d=64 one (mc, d, n) array of 4096 draws is 57 MB, and an
        # estimate over the whole batch holds four of them at once
        rng = np.random.default_rng(563)
        n, d = 27, 64
        Q, model, data = self.system(rng, n, d)
        terminal = ProductDistribution.uniform(n, d)
        estimate = lambda: elbo_estimate(model.forward_batch, data, Q, NoiseSchedule(), terminal, 4096, rng)
        peak = peak_traced_bytes(estimate)[0]
        assert peak < 64 * 2**20

    def test_memory_of_a_wide_model_at_the_desk_shape(self):
        # one memory block holds all 32768 draws at n=8, d=4, and the
        # 128-wide hidden layers would hold 32 MB each across it
        rng = np.random.default_rng(569)
        n, d = 8, 4
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.05, 1.5))
        model = ScoreModel(n, d, hidden=(128, 128), rng=rng)
        data = rng.integers(0, n, size=(400, d))
        terminal = ProductDistribution.uniform(n, d)
        estimate = lambda: elbo_estimate(model.forward_batch, data, Q, NoiseSchedule(), terminal, 32768, rng)
        peak = peak_traced_bytes(estimate)[0]
        assert peak < 40 * 2**20


    def test_a_narrow_dataset_is_not_widened_whole(self, monkeypatch):
        # one byte a state: an (N, d) int64 copy would be 8 MiB here, against
        # memory blocks of 128 KiB an array
        rng = np.random.default_rng(571)
        n, d, N = 27, 16, 2**16
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, d, 0.05, 1.5))
        data = rng.integers(0, n, size=(N, d)).astype(np.uint8)
        wide = N * d * 8
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 2**14)
        peak, freqs = peak_traced_bytes(lambda: core.state_frequencies(data, n))
        assert peak < wide / 4
        np.testing.assert_array_equal(freqs, core.state_frequencies(data.astype(np.int64), n))
        ones = lambda xt, t: np.ones((len(xt), d, n))
        terminal = ProductDistribution.uniform(n, d)
        peak = peak_traced_bytes(lambda: elbo_estimate(ones, data, Q, NoiseSchedule(), terminal, 64, rng))[0]
        assert peak < wide / 4


class TestElboReportType:
    def test_nonfinite_rejected(self):
        from markov_bridge import DivergenceError

        with pytest.raises(DivergenceError):
            ElboReport(j_score=np.nan, kl_term=0.0, total_nats=np.nan, bits_per_dim=0.0, mc_std_error=0.0)
