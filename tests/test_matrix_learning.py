"""Forward-stage loss, analytic gradient, and the projected descent loop."""

import itertools

import numpy as np
import pytest

from markov_bridge import (
    DivergenceError,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    evolve_rows,
    jq_grad,
    matrix_learning_loop,
    predict_terminal,
    transition_kernel,
)
from markov_bridge import matrix_learning
from markov_bridge.core import RATIO_FLOOR, state_frequencies
from markov_bridge.matrix_learning import init_rate_matrices

from oracles import jq_per_row

LN2 = np.log(2.0)
SCHEDULE_UNIT = NoiseSchedule(sigma_min=1.0, sigma_max=1.0)  # beta(T) = 1


def make_state(a_vectors, p0_rows):
    """``(Q, p0)``: identity-permutation rates ``a_vectors`` and the rows ``p0_rows``."""
    a = np.asarray(a_vectors, dtype=np.float64)
    Q = FactorizedRateMatrix(np.broadcast_to(np.arange(a.shape[1] + 1), (a.shape[0], a.shape[1] + 1)), a)
    return Q, ProductDistribution(p0_rows)


def frozen_target_loss(Q, targets, batch, beta_T):
    """Independent oracle: KL of kernel rows against externally fixed targets."""
    total = 0.0
    for i, K in enumerate(transition_kernel(Q, beta_T)):
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
        assert jq_grad(*state, state_frequencies(batch, 4), SCHEDULE_UNIT)[0] == 0.0

    def test_hand_kl_example(self):
        # kernel row (0.5, 0.5) against evolved target (0.25, 0.75)
        state = make_state([[LN2]], [[0.5, 0.5]])
        loss = jq_grad(*state, state_frequencies([[0]], 2), SCHEDULE_UNIT)[0]
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.1438, abs=2e-4)

    def test_identical_dims_double(self):
        one = make_state([[LN2]], [[0.5, 0.5]])
        two = make_state([[LN2], [LN2]], [[0.5, 0.5], [0.5, 0.5]])
        l1 = jq_grad(*one, state_frequencies([[0]], 2), SCHEDULE_UNIT)[0]
        l2 = jq_grad(*two, state_frequencies([[0, 0]], 2), SCHEDULE_UNIT)[0]
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
            assert jq_grad(*state, state_frequencies(batch, n), SCHEDULE_UNIT)[0] >= 0.0

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
        with pytest.raises(ValueError, match="shape"):
            jq_grad(*state, state_frequencies([[0]], 2), SCHEDULE_UNIT)
        with pytest.raises(ValueError, match="shape"):
            matrix_learning_loop(
                *state, state_frequencies([[0]], 2), SCHEDULE_UNIT, max_step=1, eps_Q=0.0, step_size=0.1
            )


class TestJqGrad:
    def test_zero_gradient_at_matched_optimum(self):
        p0 = np.zeros((1, 4))
        p0[0, 1] = 1.0
        state = make_state([np.zeros(3)], p0)
        grad = jq_grad(*state, state_frequencies([[1], [1]], 4), SCHEDULE_UNIT)[1]
        assert np.abs(grad).max() <= 1e-8

    def test_matches_finite_differences(self):
        # FD on the same stop-gradient objective: targets frozen at the
        # evaluation point, then each a_k nudged centrally
        rng = np.random.default_rng(223)
        schedule = NoiseSchedule(sigma_min=0.4, sigma_max=2.0)
        beta_T = schedule.beta(1.0)
        h = 1e-5
        for _ in range(100):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            a = rng.uniform(0.1, 2.0, (d, n - 1))
            p0 = rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n
            perms = np.stack([rng.permutation(n) for _ in range(d)])
            Q = FactorizedRateMatrix(perms, a)
            batch = rng.integers(0, n, size=(6, d))
            grad = jq_grad(Q, ProductDistribution(p0), state_frequencies(batch, n), schedule)[1]
            targets = evolve_rows(p0, Q, beta_T)[0]
            fd = np.zeros_like(grad)
            for i, k in itertools.product(range(d), range(n - 1)):
                for sign, slot in ((+1.0, 0), (-1.0, 1)):
                    a_new = a.copy()
                    a_new[i, k] += sign * h
                    bumped = Q.replace_a(a_new)
                    val = frozen_target_loss(bumped, targets, batch, beta_T)
                    fd[i, k] += val if slot == 0 else -val
            fd /= 2 * h
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(grad - fd).max() / denom <= 1e-5

    def test_identical_dims_identical_gradients(self):
        state = make_state([[0.4, 0.9], [0.4, 0.9]], [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        grad = jq_grad(*state, state_frequencies([[1, 1], [0, 0]], 3), SCHEDULE_UNIT)[1]
        assert np.allclose(grad[0], grad[1], atol=1e-14)


class TestCountsFormMatchesPerRow:
    """jq_grad's loss and gradient work on a batch's state frequencies; the oracle
    walks the batch row by row through dense Taylor kernels and their
    derivatives."""

    SCHEDULE = NoiseSchedule(sigma_min=0.4, sigma_max=2.0)

    def check(self, Q, p0, batch):
        freqs = state_frequencies(batch, Q.n)
        want_loss, want_grad = jq_per_row(Q.perm, Q.a, p0, batch, self.SCHEDULE.beta(1.0))
        loss, grad = jq_grad(Q, ProductDistribution(p0), freqs, self.SCHEDULE)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small", "random"])
    def test_random_batches(self, scheme):
        rng = np.random.default_rng(233)
        for _ in range(12):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            perms = np.stack([rng.permutation(n) for _ in range(d)])
            if scheme == "random":
                Q = FactorizedRateMatrix(perms, np.stack([rng.uniform(0.1, 2.0, n - 1) for _ in perms]))
            else:
                Q = init_rate_matrices(perms, scheme)
            p0 = rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n
            self.check(Q, p0, rng.integers(0, n, size=(int(rng.integers(1, 10)), d)))

    @pytest.mark.parametrize("scheme", ["absorbing_text", "uniform_small"])
    def test_duplicate_rows_and_missing_states(self, scheme):
        rng = np.random.default_rng(239)
        n, d = 6, 3
        Q = init_rate_matrices(np.stack([rng.permutation(n) for _ in range(d)]), scheme)
        p0 = rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n
        # two distinct rows repeated, so most states never occur
        rows = np.array([[0, 5, 2], [3, 5, 2]])
        self.check(Q, p0, rows[[0, 1, 1, 0, 1, 1, 1]])
        # one row only: a single state per dimension
        self.check(Q, p0, np.array([[4, 1, 1]] * 5))


class TestMatrixLearningLoop:
    def test_converged_state_returns_without_updates(self):
        p0 = np.zeros((1, 3))
        p0[0, 0] = 1.0
        Q, p0 = make_state([np.zeros(2)], p0)
        a_before = Q.a[0].copy()
        out = matrix_learning_loop(
            Q, p0, state_frequencies([[0]], 3), SCHEDULE_UNIT, max_step=50, eps_Q=1e-6, step_size=0.1
        )
        assert np.array_equal(out.Q.a[0], a_before)
        assert len(out.loss_history) == 1

    @pytest.mark.parametrize("step_size", [0.0, -0.1])
    def test_nonpositive_step_size_rejected(self, step_size):
        state = make_state([[0.5, 0.5]], [[0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="step_size"):
            matrix_learning_loop(
                *state, state_frequencies([[0]], 3), SCHEDULE_UNIT, max_step=1, eps_Q=0.0, step_size=step_size
            )

    def test_step_cap_below_one_rejected(self):
        state = make_state([[0.5, 0.5]], [[0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="max_step"):
            matrix_learning_loop(*state, state_frequencies([[0]], 3), SCHEDULE_UNIT, max_step=0, eps_Q=0.0, step_size=0.1)

    def test_candidate_that_raises_the_loss_halves_the_step(self, monkeypatch):
        # here the loss falls along the projected gradient at every step
        # length from 0.5 to 50, so the first candidate's loss is raised by hand
        rng = np.random.default_rng(241)
        n, d, k = 4, 2, 6
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.3, 1.5, (d, n - 1)))
        p0 = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        freqs = state_frequencies(rng.integers(0, n, size=(16, d)), n)
        losses = []

        def first_candidate_worse(*args):
            loss, grad = jq_grad(*args)
            losses.append(loss)
            return (loss + 1.0 if len(losses) == 2 else loss), grad

        monkeypatch.setattr(matrix_learning, "jq_grad", first_candidate_worse)
        out = matrix_learning_loop(Q, p0, freqs, NoiseSchedule(0.4, 2.0), max_step=k, eps_Q=0.0, step_size=0.05)
        assert isinstance(out, matrix_learning.MatrixFit)
        assert len(losses) > len(out.loss_history)  # more calls than accepted steps + 1
        assert len(out.loss_history) == k + 1  # the halved step was accepted
        assert out.loss_history[1] == losses[2]
        assert np.all(np.diff(out.loss_history) <= 0.0)

    def test_step_cap_respected(self):
        rng = np.random.default_rng(227)
        state = make_state([[0.5, 0.5, 0.5]], [rng.dirichlet(np.ones(4))])
        batch = rng.integers(0, 4, size=(8, 1))
        out = matrix_learning_loop(
            *state, state_frequencies(batch, 4), SCHEDULE_UNIT, max_step=3, eps_Q=0.0, step_size=0.1
        )
        # initial loss plus at most 3 accepted updates
        assert len(out.loss_history) <= 4

    def test_monotone_history_and_projection(self):
        rng = np.random.default_rng(229)
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=10.0)
        state = make_state([[1.5, 0.01, 0.8]], [rng.dirichlet(np.ones(4))])
        batch = rng.integers(0, 4, size=(16, 1))
        out = matrix_learning_loop(
            *state, state_frequencies(batch, 4), schedule, max_step=60, eps_Q=0.0, step_size=0.5
        )
        history = np.asarray(out.loss_history)
        assert np.all(np.diff(history) <= 1e-15)
        assert out.Q.a[0].min() >= 0.0

    def test_loss_decreases_on_mixing_toy(self):
        # two-state toy: descent should push toward mixing and cut the loss
        state = make_state([[0.0]], [[0.5, 0.5]])
        schedule = NoiseSchedule(sigma_min=0.1, sigma_max=10.0)
        batch = np.array([[0]])
        out = matrix_learning_loop(
            *state, state_frequencies(batch, 2), schedule, max_step=500, eps_Q=1e-8, step_size=0.1
        )
        assert out.loss_history[-1] < 0.05 * out.loss_history[0]
        assert out.Q.a[0][0] > 0.0


    def test_non_finite_first_loss_raises_with_the_rates(self):
        Q, p0 = make_state([[0.5, 0.5]], [[0.2, 0.3, 0.5]])
        freqs = np.array([[np.nan, 0.5, 0.5]])
        with pytest.raises(DivergenceError, match="non-finite matrix loss$") as err:
            matrix_learning_loop(Q, p0, freqs, SCHEDULE_UNIT, max_step=5, eps_Q=0.0, step_size=0.1)
        assert err.value.diagnostics["Q"] is Q and np.isnan(err.value.diagnostics["loss"])

    def test_non_finite_candidate_loss_raises_with_the_last_accepted_rates(self, monkeypatch):
        Q, p0 = make_state([[0.5, 0.5]], [[0.2, 0.3, 0.5]])
        real = matrix_learning.jq_grad

        def inf_but_at_the_start(rates, *args):
            loss, grad = real(rates, *args)
            return (loss if rates is Q else np.inf), grad

        monkeypatch.setattr(matrix_learning, "jq_grad", inf_but_at_the_start)
        with pytest.raises(DivergenceError, match="during line search") as err:
            matrix_learning_loop(Q, p0, state_frequencies([[0]], 3), SCHEDULE_UNIT, max_step=5, eps_Q=0.0, step_size=0.1)
        assert err.value.diagnostics["Q"] is Q and err.value.diagnostics["loss"] == np.inf


class TestOneEvaluationPerCandidate:
    # the loop's final rates from a loss evaluation plus a separate
    # gradient evaluation per step, before the two became one
    FINAL_A = [
        [0.5703850265007996, 0.946187060836805, 0.4745112765040164],
        [0.8807352614564244, 0.8470321817315426, 0.5159791708304292],
    ]

    def test_every_first_candidate_accepted(self, monkeypatch):
        rng = np.random.default_rng(241)
        n, d, k = 4, 2, 6
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.3, 1.5, (d, n - 1)))
        p0 = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
        freqs = state_frequencies(rng.integers(0, n, size=(16, d)), n)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return jq_grad(*args, **kwargs)

        monkeypatch.setattr(matrix_learning, "jq_grad", counting)
        out = matrix_learning_loop(Q, p0, freqs, NoiseSchedule(0.4, 2.0), max_step=k, eps_Q=0.0, step_size=0.05)
        assert len(out.loss_history) == k + 1  # every step took its first candidate
        assert len(calls) == k + 1
        np.testing.assert_allclose(out.Q.a, self.FINAL_A, rtol=1e-14, atol=0.0)


class TestPredictTerminal:
    def test_zero_beta_returns_p0(self):
        state = make_state([[1.0, 2.0]], [[0.2, 0.3, 0.5]])
        schedule = NoiseSchedule(sigma_min=1e-9, sigma_max=1e-9)
        out = predict_terminal(*state, schedule)
        assert np.allclose(out.probs, [[0.2, 0.3, 0.5]], atol=1e-8)

    def test_half_life_example(self):
        state = make_state([[LN2]], [[0.5, 0.5]])
        out = predict_terminal(*state, SCHEDULE_UNIT)
        assert np.allclose(out.probs, [[0.25, 0.75]], atol=1e-12)

    def test_absorbing_init_large_beta(self):
        perms = np.array([[2, 0, 1]])
        Q = init_rate_matrices(perms, "absorbing_text")
        schedule = NoiseSchedule(sigma_min=50.0, sigma_max=50.0)
        out = predict_terminal(Q, ProductDistribution.uniform(3, 1), schedule)
        # mass concentrates on the state occupying the last sorted slot
        assert out.probs[0, perms[0][-1]] == pytest.approx(1.0, abs=1e-12)


class TestInitSchemes:
    def test_absorbing_text(self):
        Q = init_rate_matrices([np.arange(4)], "absorbing_text")
        assert np.allclose(Q.a[0], [0.0, 0.0, 1.0])

    def test_uniform_small(self):
        Q = init_rate_matrices([np.arange(4)], "uniform_small")
        assert np.allclose(Q.a[0], [1e-5, 1e-5, 1e-5])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            init_rate_matrices([np.arange(3)], "bogus")
