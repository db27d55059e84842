"""Forward-stage optimization: fit the rate parameters a by minimizing the
expected KL between conditional terminal rows and the evolved terminal.

The d rate matrices are one ``FactorizedRateMatrix`` with a (d, n-1) rate
array, and every step works on all d chains at once: the loss, its gradient
and each line-search candidate are one pass over the (d, n) or (d, n, n)
arrays, with no loop over dimensions.

J_Q is the data mean of per-dimension KL(kernel row of x0_i || evolved p0_i),
so it depends on the data only through each dimension's state frequencies.
The stage fits the full data's (d, n) frequency table, counted once per run:
O(d n^2) per loss or gradient, whatever the dataset size. Its loss is the
bound's KL term (``evaluation.kl_term``); both go through ``core.row_kl_sum``.

The loss target p_T = p0_estimate @ exp(beta_T * Q) is recomputed at every
evaluation but treated as constant in the gradient (the outer loop alternates
between estimating p0 and fitting Q, so no gradient flows through the
Monte-Carlo p0 estimate). Gradients are analytic through the closed-form
spectrum using d(lambda_j)/d(a_k) = -1 for j <= k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import RATIO_FLOOR, FactorizedRateMatrix, NoiseSchedule, ProductDistribution, evolve_rows, row_kl_sum
from .errors import DivergenceError

_MAX_HALVINGS = 40


@dataclass
class MatrixLearnState:
    """Mutable state of the forward-stage inner loop: the d chains' rates and
    p0, whose (d, n) shapes the first loss evaluation checks against each other."""

    Q: FactorizedRateMatrix
    p0_estimate: ProductDistribution
    loss_history: list = field(default_factory=list)


def init_rate_matrices(perms, n: int, scheme: str = "absorbing_text") -> FactorizedRateMatrix:
    """The rate matrices of the (d, n) permutations ``perms``, every row alike.

    ``absorbing_text``: a_i = 0 except a_{n-1} = 1, so the (permuted) last
    state starts absorbing. ``uniform_small``: every a_i = 1e-5.
    """
    if scheme == "absorbing_text":
        a = np.zeros(n - 1)
        a[-1] = 1.0
    elif scheme == "uniform_small":
        a = np.full(n - 1, 1e-5)
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    perms = np.asarray(perms)
    return FactorizedRateMatrix(perms, np.broadcast_to(a, (perms.shape[0], n - 1)))


def _check_inputs(freqs, Q: FactorizedRateMatrix) -> np.ndarray:
    """Validate a (d, n) state-frequency table against the rate matrices."""
    freqs = np.asarray(freqs, dtype=np.float64)
    shape = (Q.d, Q.n)
    if freqs.shape != shape:
        raise ValueError(f"state frequencies must have shape {shape}")
    return freqs


def _loss(Q: FactorizedRateMatrix, p0: ProductDistribution, freqs: np.ndarray, schedule: NoiseSchedule) -> float:
    targets = predict_terminal(Q, p0, schedule).probs
    return row_kl_sum(Q, schedule.beta(1.0), freqs, targets)


def jq_loss(state: MatrixLearnState, freqs, schedule: NoiseSchedule) -> float:
    """Per-dimension KL(kernel row || evolved p0), weighted by state frequency.

    ``freqs`` is the (d, n) table :func:`core.state_frequencies` makes of the
    data. Zero target entries are clamped at 1e-12, so the loss stays finite
    at absorbing-style parameter points.
    """
    return _loss(state.Q, state.p0_estimate, _check_inputs(freqs, state.Q), schedule)


def jq_grad(state: MatrixLearnState, freqs, schedule: NoiseSchedule) -> np.ndarray:
    """Analytic gradient of jq_loss w.r.t. each a vector, target held fixed.

    The gradient of each of the n kernel rows, weighted by the frequency of
    its state. Returns a (d, n-1) array. Matches central finite differences
    of the frozen-target objective.
    """
    Q = state.Q
    freqs = _check_inputs(freqs, Q)
    beta_T = schedule.beta(1.0)
    targets = predict_terminal(Q, state.p0_estimate, schedule).probs
    d, n = targets.shape
    # row k of each chain: a point mass in sorted slot k, so row k of the
    # result is the kernel row of that slot's state, in sorted order
    rates = np.concatenate((np.zeros((d, 1)), Q.a), axis=1)[:, None, :]
    e, rows = core._sorted_rows(Q.lambdas[:, None, :], rates, beta_T, np.eye(n), np.triu(np.ones((n, n)), 1))
    sorted_targets = np.take_along_axis(targets, Q.perm, axis=1)
    w = np.log(np.maximum(rows, RATIO_FLOOR)) - np.log(np.maximum(sorted_targets, RATIO_FLOOR))[:, None, :]
    # d(loss)/d(e_j) telescopes to w_j - w_{j+1} on the active columns j >= k
    dE = np.triu(w - np.concatenate([w[:, :, 1:], np.zeros((d, n, 1))], axis=2))
    dlam = beta_T * e * dE
    sorted_freqs = np.take_along_axis(freqs, Q.perm, axis=1)
    return -(sorted_freqs[:, None, :] @ np.cumsum(dlam, axis=2))[:, 0, : n - 1]


def matrix_learning_loop(
    state: MatrixLearnState,
    freqs,
    schedule: NoiseSchedule,
    max_step: int,
    eps_Q: float,
    step_size: float,
) -> MatrixLearnState:
    """Projected gradient descent on a with backtracking line search.

    Descends on the loss of the (d, n) state-frequency table ``freqs`` until
    the step cap or loss < eps_Q; a is clamped at 0 after every step. Each
    call's line search starts at ``step_size``. The recorded loss history is
    nonincreasing because steps are only accepted when they do not increase
    the loss.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    if step_size <= 0.0:
        raise ValueError("step_size must be positive")
    freqs = _check_inputs(freqs, state.Q)
    loss = _loss(state.Q, state.p0_estimate, freqs, schedule)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite matrix loss", diagnostics={"state": state, "loss": loss})
    state.loss_history.append(loss)
    if loss < eps_Q:
        return state
    step = step_size
    for _ in range(max_step):
        grads = jq_grad(state, freqs, schedule)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = state.Q.replace_a(np.maximum(state.Q.a - step * grads, 0.0))
            cand_loss = _loss(candidate, state.p0_estimate, freqs, schedule)
            if not np.isfinite(cand_loss):
                raise DivergenceError(
                    "non-finite matrix loss during line search",
                    diagnostics={"state": state, "loss": cand_loss},
                )
            if cand_loss <= loss:
                state.Q = candidate
                loss = cand_loss
                state.loss_history.append(loss)
                step = min(step * 2.0, step_size)
                accepted = True
                break
            step /= 2.0
        if not accepted or loss < eps_Q:
            break
    return state


def predict_terminal(Q: FactorizedRateMatrix, p0: ProductDistribution, schedule: NoiseSchedule) -> ProductDistribution:
    """Evolve p0 to t = 1."""
    return ProductDistribution(evolve_rows(p0.probs, Q, schedule.beta(1.0))[0])
