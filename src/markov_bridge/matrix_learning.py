"""Forward-stage optimization: fit the rate parameters a by minimizing the
expected KL between conditional terminal rows and the evolved terminal.

J_Q is a batch mean of per-dimension KL(kernel row of x0_i || evolved p0_i),
so it depends on the drawn batch only through each dimension's state
frequencies. The stage works on that (d, n) frequency table and the n kernel
rows of each dimension: O(d n^2) per loss or gradient, whatever the batch
size.

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
    state_frequencies,
    transition_kernel,
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


def _check_inputs(batch, terminal: ProductDistribution) -> np.ndarray:
    """Validate a (B, d) batch of states and return its (d, n) state frequencies."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.int64))
    if batch.size == 0:
        raise ValueError("batch is empty")
    if batch.ndim != 2 or batch.shape[1] != terminal.d:
        raise ValueError(f"batch must have shape (B, {terminal.d})")
    if np.any(terminal.as_array() <= 0.0):
        raise ValueError("terminal must be strictly positive (smooth it first)")
    return state_frequencies(batch, terminal.n)


def _loss_dims(Q_per_dim, p0: ProductDistribution, weights: np.ndarray, beta_T: float) -> float:
    total = 0.0
    for i, Q in enumerate(Q_per_dim):
        K = transition_kernel(Q, beta_T)
        target = p0.marginals[i].probs @ K
        w = np.log(np.maximum(K, RATIO_FLOOR)) - np.log(np.maximum(target, RATIO_FLOOR))[None, :]
        total += float(weights[i] @ np.sum(K * w, axis=1))
    return total


def jq_loss(state: MatrixLearnState, batch, schedule: NoiseSchedule, terminal: ProductDistribution) -> float:
    """Batch mean over samples of the per-dimension KL(kernel row || evolved p0).

    Computed from the batch's per-dimension state frequencies: each
    dimension's n row KLs weighted by how often each state occurs. Zero
    target entries under kernel mass are clamped at 1e-12 rather than
    raising, so the loss stays finite at absorbing-style parameter points.
    """
    weights = _check_inputs(batch, terminal)
    beta_T = schedule.beta(schedule.horizon)
    return _loss_dims(state.Q_per_dim, state.p0_estimate, weights, beta_T)


def jq_grad(state: MatrixLearnState, batch, schedule: NoiseSchedule, terminal: ProductDistribution) -> np.ndarray:
    """Analytic gradient of jq_loss w.r.t. each a vector, target held fixed.

    Like the loss, it is computed from the batch's per-dimension state
    frequencies: the gradient of each of the n kernel rows, weighted by how
    often its state occurs. Returns a (d, n-1) array. Matches central finite
    differences of the frozen-target objective.
    """
    weights = _check_inputs(batch, terminal)
    beta_T = schedule.beta(schedule.horizon)
    n = terminal.n
    grads = np.zeros((len(state.Q_per_dim), n - 1))
    for i, Q in enumerate(state.Q_per_dim):
        target = state.p0_estimate.marginals[i].probs @ transition_kernel(Q, beta_T)
        # row k is the kernel row of the state in sorted slot k
        e, rows = _sorted_rows(Q, beta_T, np.arange(n))
        w = np.log(np.maximum(rows, RATIO_FLOOR)) - np.log(np.maximum(target[Q.perm], RATIO_FLOOR))[None, :]
        # d(loss)/d(e_j) telescopes to w_j - w_{j+1} on the active columns j >= k
        dE = np.triu(w - np.concatenate([w[:, 1:], np.zeros((n, 1))], axis=1))
        dlam = beta_T * e * dE
        grads[i] = -(weights[i][Q.perm] @ np.cumsum(dlam, axis=1))[: n - 1]
    return grads


def matrix_learning_loop(
    state: MatrixLearnState,
    data_iter,
    schedule: NoiseSchedule,
    terminal: ProductDistribution,
    max_step: int,
    eps_Q: float,
) -> MatrixLearnState:
    """Projected gradient descent on a with backtracking line search.

    Consumes one batch from ``data_iter`` and descends on it until the step
    cap or loss < eps_Q; a is clamped at 0 after every step. The recorded
    loss history is nonincreasing because steps are only accepted when they
    do not increase the loss on the batch.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    batch = next(data_iter)
    weights = _check_inputs(batch, terminal)
    beta_T = schedule.beta(schedule.horizon)
    loss = _loss_dims(state.Q_per_dim, state.p0_estimate, weights, beta_T)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite matrix loss", diagnostics={"state": state, "loss": loss})
    state.loss_history.append(loss)
    if loss < eps_Q:
        return state
    initial_step = state.step_size
    for _ in range(max_step):
        grads = jq_grad(state, batch, schedule, terminal)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = [
                Q.replace_a(np.maximum(Q.a - state.step_size * grads[i], 0.0))
                for i, Q in enumerate(state.Q_per_dim)
            ]
            cand_loss = _loss_dims(candidate, state.p0_estimate, weights, beta_T)
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
