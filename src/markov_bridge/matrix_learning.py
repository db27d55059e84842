"""Forward-stage optimization: fit the rate parameters a by minimizing the
expected KL between conditional terminal rows and the evolved terminal.

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

from .core import (
    RATIO_FLOOR,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    _sorted_rows,
    evolve_rows,
    row_kl_sum,
)
from .errors import DivergenceError

DEFAULT_STEP_SIZE = 0.1
_MAX_HALVINGS = 40


@dataclass
class MatrixLearnState:
    """Mutable state of the forward-stage inner loop (one matrix per dimension)."""

    Q_per_dim: list
    p0_estimate: ProductDistribution
    step_size: float = DEFAULT_STEP_SIZE
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.Q_per_dim) != self.p0_estimate.d:
            raise ValueError("need one rate matrix per dimension")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")


def init_rate_matrices(perms, n: int, scheme: str = "absorbing_text") -> list:
    """Per-dimension parameter initialization.

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
    return [FactorizedRateMatrix.from_parts(perm, a.copy()) for perm in perms]


def _check_inputs(freqs, Q_per_dim) -> np.ndarray:
    """Validate a (d, n) state-frequency table against the rate matrices."""
    freqs = np.asarray(freqs, dtype=np.float64)
    shape = (len(Q_per_dim), Q_per_dim[0].n)
    if freqs.shape != shape:
        raise ValueError(f"state frequencies must have shape {shape}")
    return freqs


def _loss(Q_per_dim, p0: ProductDistribution, freqs: np.ndarray, schedule: NoiseSchedule) -> float:
    targets = predict_terminal(Q_per_dim, p0, schedule).as_array()
    return row_kl_sum(Q_per_dim, schedule.beta(schedule.horizon), freqs, targets)


def jq_loss(state: MatrixLearnState, freqs, schedule: NoiseSchedule) -> float:
    """Per-dimension KL(kernel row || evolved p0), weighted by state frequency.

    ``freqs`` is the (d, n) table :func:`core.state_frequencies` makes of the
    data. Zero target entries are clamped at 1e-12, so the loss stays finite
    at absorbing-style parameter points.
    """
    return _loss(state.Q_per_dim, state.p0_estimate, _check_inputs(freqs, state.Q_per_dim), schedule)


def jq_grad(state: MatrixLearnState, freqs, schedule: NoiseSchedule) -> np.ndarray:
    """Analytic gradient of jq_loss w.r.t. each a vector, target held fixed.

    The gradient of each of the n kernel rows, weighted by the frequency of
    its state. Returns a (d, n-1) array. Matches central finite differences
    of the frozen-target objective.
    """
    freqs = _check_inputs(freqs, state.Q_per_dim)
    beta_T = schedule.beta(schedule.horizon)
    targets = predict_terminal(state.Q_per_dim, state.p0_estimate, schedule).as_array()
    n = targets.shape[1]
    grads = np.zeros((len(state.Q_per_dim), n - 1))
    for i, Q in enumerate(state.Q_per_dim):
        # row k is the kernel row of the state in sorted slot k
        e, rows = _sorted_rows(Q, beta_T, np.arange(n))
        w = np.log(np.maximum(rows, RATIO_FLOOR)) - np.log(np.maximum(targets[i][Q.perm], RATIO_FLOOR))[None, :]
        # d(loss)/d(e_j) telescopes to w_j - w_{j+1} on the active columns j >= k
        dE = np.triu(w - np.concatenate([w[:, 1:], np.zeros((n, 1))], axis=1))
        dlam = beta_T * e * dE
        grads[i] = -(freqs[i][Q.perm] @ np.cumsum(dlam, axis=1))[: n - 1]
    return grads


def matrix_learning_loop(
    state: MatrixLearnState,
    freqs,
    schedule: NoiseSchedule,
    max_step: int,
    eps_Q: float,
) -> MatrixLearnState:
    """Projected gradient descent on a with backtracking line search.

    Descends on the loss of the (d, n) state-frequency table ``freqs`` until
    the step cap or loss < eps_Q; a is clamped at 0 after every step. The
    recorded loss history is nonincreasing because steps are only accepted
    when they do not increase the loss.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    freqs = _check_inputs(freqs, state.Q_per_dim)
    loss = _loss(state.Q_per_dim, state.p0_estimate, freqs, schedule)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite matrix loss", diagnostics={"state": state, "loss": loss})
    state.loss_history.append(loss)
    if loss < eps_Q:
        return state
    initial_step = state.step_size
    for _ in range(max_step):
        grads = jq_grad(state, freqs, schedule)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = [
                Q.replace_a(np.maximum(Q.a - state.step_size * grads[i], 0.0))
                for i, Q in enumerate(state.Q_per_dim)
            ]
            cand_loss = _loss(candidate, state.p0_estimate, freqs, schedule)
            if not np.isfinite(cand_loss):
                raise DivergenceError(
                    "non-finite matrix loss during line search",
                    diagnostics={"state": state, "loss": cand_loss},
                )
            if cand_loss <= loss:
                state.Q_per_dim = candidate
                loss = cand_loss
                state.loss_history.append(loss)
                state.step_size = min(state.step_size * 2.0, initial_step)
                accepted = True
                break
            state.step_size /= 2.0
        if not accepted or loss < eps_Q:
            break
    return state


def predict_terminal(Q_per_dim, p0: ProductDistribution, schedule: NoiseSchedule) -> ProductDistribution:
    """Evolve p0 to the horizon, one dimension at a time."""
    beta_T = schedule.beta(schedule.horizon)
    return ProductDistribution.from_array(
        np.concatenate([evolve_rows(p0.marginals[i].probs, Q, beta_T) for i, Q in enumerate(Q_per_dim)])
    )
