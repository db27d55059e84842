"""Forward-stage optimization: fit the rate parameters a by minimizing the
expected KL between conditional terminal rows and the evolved terminal.

The d rate matrices are one ``FactorizedRateMatrix`` with a (d, n-1) rate
array, and every step works on all d chains at once. The stage holds no
state between calls: it takes the rates and p0 as plain values and returns
a :class:`MatrixFit`.

J_Q is the data mean of per-dimension KL(kernel row of x0_i || evolved p0_i),
so it depends on the data only through each dimension's state frequencies.
The stage fits the full data's (d, n) frequency table, counted once per run:
O(d n^2) per evaluation, whatever the dataset size. One evaluation,
:func:`jq_grad`, is one ``core.row_kl_sum`` pass giving the loss and its
gradient together; the line search evaluates each candidate once and keeps
the accepted one's gradient for the next step. The loss is the bound's KL
term (``evaluation.kl_term``).

The loss target p_T = p0 @ exp(beta_T * Q) is recomputed at every
evaluation but treated as constant in the gradient (the outer loop alternates
between estimating p0 and fitting Q, so no gradient flows through the
Monte-Carlo p0 estimate).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import FactorizedRateMatrix, NoiseSchedule, ProductDistribution, evolve_rows, row_kl_sum
from .errors import DivergenceError

_MAX_HALVINGS = 40


class MatrixFit(NamedTuple):
    """One matrix-stage call's result: the fitted rates and the losses it
    accepted, the starting loss first, so one entry plus one per step."""

    Q: FactorizedRateMatrix
    loss_history: list


def init_rate_matrices(perms, scheme: str = "absorbing_text") -> FactorizedRateMatrix:
    """The rate matrices of the (d, n) permutations ``perms``, every row alike.

    ``absorbing_text``: a_i = 0 except a_{n-1} = 1, so the (permuted) last
    state starts absorbing. ``uniform_small``: every a_i = 1e-5.
    """
    perms = np.asarray(perms)
    d, n = perms.shape
    if scheme == "absorbing_text":
        a = np.zeros(n - 1)
        a[-1] = 1.0
    elif scheme == "uniform_small":
        a = np.full(n - 1, 1e-5)
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return FactorizedRateMatrix(perms, np.broadcast_to(a, (d, n - 1)))


def jq_grad(Q: FactorizedRateMatrix, p0: ProductDistribution, freqs, schedule: NoiseSchedule) -> tuple:
    """``(loss, grad)`` of the matrix stage at rates ``Q`` and data estimate
    ``p0``: ``core.row_kl_sum`` of the (d, n) state-frequency table ``freqs``
    against the evolved p0.

    The loss is the per-dimension KL(kernel row || evolved p0), weighted by
    state frequency; zero target entries are clamped at 1e-12, so it stays
    finite at absorbing-style parameter points. The (d, n-1) gradient holds
    the target fixed and matches central finite differences of that
    frozen-target objective. Shapes that disagree raise ValueError.
    """
    targets = predict_terminal(Q, p0, schedule).probs
    return row_kl_sum(Q, schedule.beta(1.0), freqs, targets)


def matrix_learning_loop(
    Q: FactorizedRateMatrix,
    p0: ProductDistribution,
    freqs,
    schedule: NoiseSchedule,
    max_step: int,
    eps_Q: float,
    step_size: float,
) -> MatrixFit:
    """Projected gradient descent on the rates of ``Q`` with backtracking line search.

    Descends on the loss of the (d, n) state-frequency table ``freqs``, with
    p0 held fixed, until the step cap or loss < eps_Q; a is clamped at 0
    after every step. Each call's line search starts at ``step_size``. The
    returned loss history is nonincreasing because steps are only accepted
    when they do not increase the loss. A non-finite loss raises
    DivergenceError carrying the last accepted ``Q`` and the loss.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    if step_size <= 0.0:
        raise ValueError("step_size must be positive")
    loss, grads = jq_grad(Q, p0, freqs, schedule)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite matrix loss", diagnostics={"Q": Q, "loss": loss})
    history = [loss]
    if loss < eps_Q:
        return MatrixFit(Q, history)
    step = step_size
    for _ in range(max_step):
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = Q.replace_a(np.maximum(Q.a - step * grads, 0.0))
            cand_loss, cand_grads = jq_grad(candidate, p0, freqs, schedule)
            if not np.isfinite(cand_loss):
                raise DivergenceError("non-finite matrix loss during line search",
                                      diagnostics={"Q": Q, "loss": cand_loss})
            if cand_loss <= loss:
                Q, loss, grads = candidate, cand_loss, cand_grads
                history.append(loss)
                step = min(step * 2.0, step_size)
                accepted = True
                break
            step /= 2.0
        if not accepted or loss < eps_Q:
            break
    return MatrixFit(Q, history)


def predict_terminal(Q: FactorizedRateMatrix, p0: ProductDistribution, schedule: NoiseSchedule) -> ProductDistribution:
    """Evolve p0 to t = 1."""
    return ProductDistribution(evolve_rows(p0.probs, Q, schedule.beta(1.0))[0])
