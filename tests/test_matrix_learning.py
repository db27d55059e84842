"""Forward-stage loss, analytic gradient, and the projected descent loop."""

import itertools

import numpy as np
import pytest

from markov_bridge import (
    FactorizedRateMatrix,
    MatrixLearnState,
    NoiseSchedule,
    ProductDistribution,
    evolve_rows,
    jq_grad,
    jq_loss,
    matrix_learning_loop,
    predict_terminal,
    transition_kernel,
)
from markov_bridge.core import RATIO_FLOOR, state_frequencies
from markov_bridge.matrix_learning import init_rate_matrices

from oracles import jq_per_row

LN2 = np.log(2.0)
SCHEDULE_UNIT = NoiseSchedule(sigma_min=1.0, sigma_max=1.0, horizon=1.0)  # beta(T) = 1


def make_state(a_vectors, p0_rows, step_size=0.1):
    Qs = [FactorizedRateMatrix.with_identity_perm(a) for a in a_vectors]
    return MatrixLearnState(
        Q_per_dim=Qs,
        p0_estimate=ProductDistribution.from_array(p0_rows),
        step_size=step_size,
    )


def frozen_target_loss(Q_per_dim, targets, batch, beta_T):
    """Independent oracle: KL of kernel rows against externally fixed targets."""
    total = 0.0
    for i, Q in enumerate(Q_per_dim):
        K = transition_kernel(Q, beta_T)
        rows = K[np.asarray(batch)[:, i]]
        w = np.log(np.maximum(rows, RATIO_FLOOR)) - np.log(np.maximum(targets[i], RATIO_FLOOR))[None, :]
        total += float(np.mean(np.sum(rows * w, axis=1)))
    return total


class TestJqLoss:
    def test_zero_at_matched_point_masses(self):
        # frozen chain (a = 0) with point-mass p0 on the only batch value
        p0 = np.zeros((1, 4))
        p0[0, 2] = 1.0
        state = make_state([np.zeros(3)], p0)
        batch = np.array([[2], [2], [2]])
        assert jq_loss(state, state_frequencies(batch, 4), SCHEDULE_UNIT) == 0.0

    def test_hand_kl_example(self):
        # kernel row (0.5, 0.5) against evolved target (0.25, 0.75)
        state = make_state([[LN2]], [[0.5, 0.5]])
        loss = jq_loss(state, state_frequencies([[0]], 2), SCHEDULE_UNIT)
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.1438, abs=2e-4)

    def test_identical_dims_double(self):
        one = make_state([[LN2]], [[0.5, 0.5]])
        two = make_state([[LN2], [LN2]], [[0.5, 0.5], [0.5, 0.5]])
        l1 = jq_loss(one, state_frequencies([[0]], 2), SCHEDULE_UNIT)
        l2 = jq_loss(two, state_frequencies([[0, 0]], 2), SCHEDULE_UNIT)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-12)

    def test_nonnegative_fuzz(self):
        rng = np.random.default_rng(211)
        for _ in range(100):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            state = make_state(
                rng.uniform(0.0, 2.0, (d, n - 1)),
                rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n,
            )
            batch = rng.integers(0, n, size=(5, d))
            assert jq_loss(state, state_frequencies(batch, n), SCHEDULE_UNIT) >= 0.0

    # the matrix stage takes the table state_frequencies makes of the data,
    # so the batch checks live there

    def test_empty_batch_rejected(self):
        for empty in (np.empty((0, 1), dtype=int), np.empty((3, 0), dtype=int), np.empty(0, dtype=int)):
            with pytest.raises(ValueError, match="nonempty"):
                state_frequencies(empty, 2)

    @pytest.mark.parametrize("state_value", [-1, 3])
    def test_out_of_range_state_rejected(self, state_value):
        # n = 3: -1 must not wrap round to state 2, and 3 is past the last state
        with pytest.raises(ValueError, match="states must lie in"):
            state_frequencies([[0], [state_value]], 3)
        # d = 2: an out-of-range state must not land in the other column's bins
        with pytest.raises(ValueError, match="states must lie in"):
            state_frequencies([[0, 1], [state_value, 1]], 3)

    def test_batch_width_must_match_dimensions(self):
        state = make_state([[LN2], [LN2]], [[0.5, 0.5], [0.5, 0.5]])
        for fn in (jq_loss, jq_grad):
            with pytest.raises(ValueError, match="shape"):
                fn(state, state_frequencies([[0]], 2), SCHEDULE_UNIT)
        with pytest.raises(ValueError, match="shape"):
            matrix_learning_loop(state, state_frequencies([[0]], 2), SCHEDULE_UNIT, max_step=1, eps_Q=0.0)


class TestJqGrad:
    def test_zero_gradient_at_matched_optimum(self):
        p0 = np.zeros((1, 4))
        p0[0, 1] = 1.0
        state = make_state([np.zeros(3)], p0)
        grad = jq_grad(state, state_frequencies([[1], [1]], 4), SCHEDULE_UNIT)
        assert np.abs(grad).max() <= 1e-8

    def test_matches_finite_differences(self):
        # FD on the same stop-gradient objective: targets frozen at the
        # evaluation point, then each a_k nudged centrally
        rng = np.random.default_rng(223)
        schedule = NoiseSchedule(sigma_min=0.4, sigma_max=2.0, horizon=1.0)
        beta_T = schedule.beta(1.0)
        h = 1e-5
        for _ in range(100):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            a = rng.uniform(0.1, 2.0, (d, n - 1))
            p0 = rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n
            perms = [rng.permutation(n) for _ in range(d)]
            Qs = [FactorizedRateMatrix.from_parts(perms[i], a[i]) for i in range(d)]
            state = MatrixLearnState(Q_per_dim=Qs, p0_estimate=ProductDistribution.from_array(p0))
            batch = rng.integers(0, n, size=(6, d))
            grad = jq_grad(state, state_frequencies(batch, n), schedule)
            targets = [evolve_rows(p0[i], Qs[i], beta_T)[0] for i in range(d)]
            fd = np.zeros_like(grad)
            for i, k in itertools.product(range(d), range(n - 1)):
                for sign, slot in ((+1.0, 0), (-1.0, 1)):
                    bumped = list(Qs)
                    a_new = a[i].copy()
                    a_new[k] += sign * h
                    bumped[i] = Qs[i].replace_a(a_new)
                    val = frozen_target_loss(bumped, targets, batch, beta_T)
                    fd[i, k] += val if slot == 0 else -val
            fd /= 2 * h
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(grad - fd).max() / denom <= 1e-5

    def test_identical_dims_identical_gradients(self):
        state = make_state([[0.4, 0.9], [0.4, 0.9]], [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        grad = jq_grad(state, state_frequencies([[1, 1], [0, 0]], 3), SCHEDULE_UNIT)
        assert np.allclose(grad[0], grad[1], atol=1e-14)


class TestCountsFormMatchesPerRow:
    """jq_loss and jq_grad work on a batch's state frequencies; the oracle
    walks the batch row by row through dense Taylor kernels and their
    derivatives."""

    SCHEDULE = NoiseSchedule(sigma_min=0.4, sigma_max=2.0, horizon=1.0)

    def check(self, Qs, p0, batch):
        state = MatrixLearnState(Q_per_dim=Qs, p0_estimate=ProductDistribution.from_array(p0))
        freqs = state_frequencies(batch, Qs[0].n)
        want_loss, want_grad = jq_per_row(
            [Q.perm for Q in Qs], [Q.a for Q in Qs], p0, batch, self.SCHEDULE.beta(1.0)
        )
        assert jq_loss(state, freqs, self.SCHEDULE) == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        grad = jq_grad(state, freqs, self.SCHEDULE)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small", "random"])
    def test_random_batches(self, scheme):
        rng = np.random.default_rng(233)
        for _ in range(12):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            perms = [rng.permutation(n) for _ in range(d)]
            if scheme == "random":
                Qs = [FactorizedRateMatrix.from_parts(perm, rng.uniform(0.1, 2.0, n - 1)) for perm in perms]
            else:
                Qs = init_rate_matrices(perms, n, scheme)
            p0 = rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n
            self.check(Qs, p0, rng.integers(0, n, size=(int(rng.integers(1, 10)), d)))

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small"])
    def test_duplicate_rows_and_missing_states(self, scheme):
        rng = np.random.default_rng(239)
        n, d = 6, 3
        Qs = init_rate_matrices([rng.permutation(n) for _ in range(d)], n, scheme)
        p0 = rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n
        # two distinct rows repeated, so most states never occur
        rows = np.array([[0, 5, 2], [3, 5, 2]])
        self.check(Qs, p0, rows[[0, 1, 1, 0, 1, 1, 1]])
        # one row only: a single state per dimension
        self.check(Qs, p0, np.array([[4, 1, 1]] * 5))


class TestMatrixLearningLoop:
    def test_converged_state_returns_without_updates(self):
        p0 = np.zeros((1, 3))
        p0[0, 0] = 1.0
        state = make_state([np.zeros(2)], p0)
        a_before = state.Q_per_dim[0].a.copy()
        out = matrix_learning_loop(state, state_frequencies([[0]], 3), SCHEDULE_UNIT, max_step=50, eps_Q=1e-6)
        assert np.array_equal(out.Q_per_dim[0].a, a_before)
        assert len(out.loss_history) == 1

    def test_step_cap_respected(self):
        rng = np.random.default_rng(227)
        state = make_state([[0.5, 0.5, 0.5]], [rng.dirichlet(np.ones(4))])
        batch = rng.integers(0, 4, size=(8, 1))
        out = matrix_learning_loop(state, state_frequencies(batch, 4), SCHEDULE_UNIT, max_step=3, eps_Q=0.0)
        # initial loss plus at most 3 accepted updates
        assert len(out.loss_history) <= 4

    def test_monotone_history_and_projection(self):
        rng = np.random.default_rng(229)
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=10.0, horizon=1.0)
        state = make_state([[1.5, 0.01, 0.8]], [rng.dirichlet(np.ones(4))], step_size=0.5)
        batch = rng.integers(0, 4, size=(16, 1))
        out = matrix_learning_loop(state, state_frequencies(batch, 4), schedule, max_step=60, eps_Q=0.0)
        history = np.asarray(out.loss_history)
        assert np.all(np.diff(history) <= 1e-15)
        assert out.Q_per_dim[0].a.min() >= 0.0

    def test_loss_decreases_on_mixing_toy(self):
        # two-state toy: descent should push toward mixing and cut the loss
        state = make_state([[0.0]], [[0.5, 0.5]])
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=10.0, horizon=1.0)
        batch = np.array([[0]])
        out = matrix_learning_loop(state, state_frequencies(batch, 2), schedule, max_step=500, eps_Q=1e-8)
        assert out.loss_history[-1] < 0.05 * out.loss_history[0]
        assert out.Q_per_dim[0].a[0] > 0.0


class TestPredictTerminal:
    def test_zero_beta_returns_p0(self):
        state = make_state([[1.0, 2.0]], [[0.2, 0.3, 0.5]])
        schedule = NoiseSchedule(sigma_min=1e-9, sigma_max=1e-9, horizon=1.0)
        out = predict_terminal(state.Q_per_dim, state.p0_estimate, schedule)
        assert np.allclose(out.as_array(), [[0.2, 0.3, 0.5]], atol=1e-8)

    def test_half_life_example(self):
        state = make_state([[LN2]], [[0.5, 0.5]])
        out = predict_terminal(state.Q_per_dim, state.p0_estimate, SCHEDULE_UNIT)
        assert np.allclose(out.as_array(), [[0.25, 0.75]], atol=1e-12)

    def test_absorbing_init_large_beta(self):
        perms = [np.array([2, 0, 1])]
        Qs = init_rate_matrices(perms, 3, "absorbing_text")
        state = MatrixLearnState(Q_per_dim=Qs, p0_estimate=ProductDistribution.uniform(3, 1))
        schedule = NoiseSchedule(sigma_min=50.0, sigma_max=50.0, horizon=1.0)
        out = predict_terminal(state.Q_per_dim, state.p0_estimate, schedule)
        # mass concentrates on the state occupying the last sorted slot
        assert out.marginals[0].probs[perms[0][-1]] == pytest.approx(1.0, abs=1e-12)


class TestInitSchemes:
    def test_absorbing_text(self):
        Qs = init_rate_matrices([np.arange(4)], 4, "absorbing_text")
        assert np.allclose(Qs[0].a, [0.0, 0.0, 1.0])

    def test_uniform_small(self):
        Qs = init_rate_matrices([np.arange(4)], 4, "uniform_small")
        assert np.allclose(Qs[0].a, [1e-5, 1e-5, 1e-5])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            init_rate_matrices([np.arange(3)], 3, "bogus")
