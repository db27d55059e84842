"""Reverse-time generation by explicit Euler steps on the reversed chain,
plus the trajectory-averaged estimator of the data distribution.

Each Euler step is one pass over all d dimensions of the batch: one ratio
call, the (B, d, n) array of categoricals delta_x(y) + dt * Qhat (negative
entries clamped, rows renormalized), and one categorical draw for every
row. Ratios so large that a row total overflows raise DivergenceError.
Generation and the mu estimator share one trajectory loop; the estimator
stops one step early and averages that last step's categorical instead of
sampling it, which has the same expectation and strictly lower variance.
"""

from __future__ import annotations

import numpy as np

from .core import NoiseSchedule, ProductDistribution, draw_columns, rate_columns, sample_categorical
from .errors import DivergenceError

# Health counters read by name (perfbench's sampler.zero_rows). A row total
# of finite, nonnegative ratios is always positive, so no row ever lands here.
diagnostics = {"euler_zero_rows": 0}


def _euler_probs(xt, t: float, dt: float, ratios, Q, schedule: NoiseSchedule) -> np.ndarray:
    """Euler categoricals of all dimensions at once, shape (B, d, n).

    ``ratios`` is (B, d, n). Non-finite or negative ratios, and finite ones
    so large that a row total overflows, raise DivergenceError rather than
    turning into a distribution.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if not (np.isfinite(ratios).all() and ratios.min() >= 0.0):
        raise DivergenceError(f"non-finite or negative probability ratios at t={t:.6g}")
    # an overflow shows up as a non-finite row total, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        off = rate_columns(Q, schedule.sigma(t), xt)
        off *= ratios
        stay = 1.0 - dt * off.sum(axis=2)
        rows = off  # dt * off, written over off, which is not needed past the stay
        rows *= dt
        np.put_along_axis(rows, xt[:, :, None], stay[:, :, None], axis=2)
        np.clip(rows, 0.0, None, out=rows)
        totals = rows.sum(axis=2)
        if not np.isfinite(totals).all():
            i = np.argwhere(~np.isfinite(totals))[0][1]
            raise DivergenceError(f"Euler row total overflows at t={t:.6g}, dimension {i}")
        rows /= totals[:, :, None]
    return rows


def _grid_step(steps: int, eps_t: float) -> float:
    """Step of the uniform grid of ``steps`` steps from T down to eps_t."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if eps_t <= 0.0:
        raise ValueError("eps_t must be positive")
    return (1.0 - eps_t) / steps


def _step_probs(k: int, dt: float, xt, Q, schedule: NoiseSchedule, ratio_fn):
    """Euler categoricals of step k of the grid with step dt."""
    t = 1.0 - k * dt
    return _euler_probs(xt, t, dt, ratio_fn(xt, t), Q, schedule)


def _trajectories(terminal: ProductDistribution, Q, schedule, ratio_fn, rng, count, steps, dt):
    """Draw x_T from the terminal, then take ``steps`` sampled Euler steps."""
    if count < 1:
        raise ValueError("need at least one trajectory")
    xt = draw_columns(terminal.probs, count, rng)
    for k in range(steps):
        probs = _step_probs(k, dt, xt, Q, schedule, ratio_fn)
        # dimension-major, so the generator is consumed one dimension at a time
        xt[:] = sample_categorical(probs, rng.random((terminal.d, count)).T)
    return xt


def generate(
    terminal: ProductDistribution,
    Q,
    schedule: NoiseSchedule,
    ratio_fn,
    rng,
    count: int,
    steps: int,
    eps_t: float,
) -> np.ndarray:
    """Draw x_T from the terminal and run ``steps`` Euler steps down to eps_t.

    ``ratio_fn(xt_batch, t) -> (B, d, n)`` supplies the probability ratios
    (a trained model or the exact oracle). Returns an (count, d) int array.
    """
    dt = _grid_step(steps, eps_t)
    return _trajectories(terminal, Q, schedule, ratio_fn, rng, count, steps, dt)


def estimate_mu(
    terminal: ProductDistribution,
    Q,
    schedule: NoiseSchedule,
    ratio_fn,
    rng,
    M: int,
    steps: int,
    eps_t: float,
) -> ProductDistribution:
    """Average the final Euler categorical over M reverse trajectories.

    Runs steps - 1 sampled steps from T, then takes the last step's full
    per-dimension distribution instead of sampling it, and averages across
    trajectories.
    """
    dt = _grid_step(steps, eps_t)
    last = steps - 1
    xt = _trajectories(terminal, Q, schedule, ratio_fn, rng, M, last, dt)
    rows = _step_probs(last, dt, xt, Q, schedule, ratio_fn).mean(axis=0)
    rows /= rows.sum(axis=1, keepdims=True)
    return ProductDistribution(rows)


def tv_distance(p, q) -> float:
    """Total variation distance between two categorical distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must share a state count")
    return 0.5 * float(np.abs(p - q).sum())
