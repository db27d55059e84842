"""Reverse-time generation by exact kernel steps on the reversed chain,
plus the trajectory-averaged estimator of the data distribution.

A step from t to s weights state y by the ratio at s times K_{s,t}[y, x],
column x of exp((beta(t) - beta(s)) Q): over its entry at x, that is
g(x) = -expm1(-(beta(t) - beta(s)) * a(x)), a(x) the rate into x, on the
states sorted before x, 1 at x and 0 after. Each step makes one ratio call,
at s, per memory block of (rows, d*n) ratios, on the block's distinct states:
a ratio depends only on the state and the time, and trajectories on a small
state space meet. When the n**d joint states fit in the block's row count, a
table addressed by state code finds them; otherwise a sort of the rows' bytes
does. It writes each cache chunk's unnormalized rows state-major,
(n, rows, d), gathering their ratios by state, for one categorical draw. A row
total that overflows raises DivergenceError. The mu estimator averages the
last step's normalized rows instead of sampling them: the same expectation
and strictly lower variance.
"""

from __future__ import annotations

import numpy as np

from .core import NoiseSchedule, ProductDistribution, block_index, draw_columns, row_blocks, sample_categorical
from .errors import DivergenceError

# Health counters read by name (perfbench's sampler.zero_rows); a row holds 1 at x, so none is zero.
diagnostics = {"zero_rows": 0}


def _step_chunks(xt, t: float, s: float, ratio_fn, Q, schedule: NoiseSchedule):
    """Yield (part, rows) for each cache chunk ``part`` of a (B, d) batch:
    its unnormalized rows of the step from t to s, state-major (n, rows, d), reused.

    ``ratio_fn(states, s) -> (rows, d, n)`` is called once per memory block,
    on its distinct states (the block itself, in order, when none repeats),
    and its ratios are released before the next call. When n**d <= the
    block's rows, an (n**d,) table addressed by mixed-radix code finds them;
    otherwise ``np.unique`` sorts the rows' bytes. For n <= 256 both give the
    same lexicographic order. Non-finite or negative ratios, and finite ones
    so large that a row total overflows, raise DivergenceError. A chunk's
    states are read before it is yielded, so the caller may overwrite them.
    """
    # sorted slots, state-major, as the narrowest integers: quick contiguous compares
    order = np.ascontiguousarray(Q.inv_perm.T, dtype=np.min_scalar_type(Q.n - 1))
    # column x of exp((beta(t) - beta(s)) Q) over its entry at x, on the states sorted before x
    g = -np.expm1((schedule.beta(s) - schedule.beta(t)) * Q.state_rates)
    size = Q.n**Q.d  # joint states, an exact integer
    for block in row_blocks(xt.shape[0], Q.d * Q.n):
        x = xt[block]
        if size <= len(x):
            # each row's mixed-radix code, dimension 0 most significant, marked by one of its rows
            code = np.ravel_multi_index(x.T, (Q.n,) * Q.d)
            table = np.full(size, -1)
            table[code] = np.arange(len(x))
            first = table[table >= 0]  # by ascending code
            table[code[first]] = np.arange(len(first))
            inverse = table[code]
        else:
            # each row as one item of its states' bytes, as the narrowest integers: an exact key
            keys = x.astype(order.dtype).view(np.dtype((np.void, Q.d * order.itemsize))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        repeats = len(first) < len(x)
        ratios = np.asarray(ratio_fn(x[first] if repeats else x, s), dtype=np.float64)
        at = block_index(x, Q.d, Q.n)
        pos = np.take(Q.inv_perm, at).astype(order.dtype)
        scale = np.take(g, at)
        # made after the ratio call, so as not to lie above its freed temporaries
        buf = np.empty(Q.n * Q.d * row_blocks(len(at), Q.d * Q.n, cache=True)[0].stop)
        mask = np.empty(buf.shape, dtype=bool)
        for chunk in row_blocks(len(at), Q.d * Q.n, cache=True):
            r = ratios[inverse[chunk]] if repeats else ratios[chunk]
            if not (r.min() >= 0.0 and r.max() < np.inf):
                raise DivergenceError(f"non-finite or negative probability ratios at t={s:.6g}")
            # contiguous (n, rows, d) views of the reused buffers, the last chunk's too
            shape = (Q.n, r.shape[0], Q.d)
            below = np.less(order[:, None, :], pos[chunk], out=mask[: r.size].reshape(shape))
            rows = np.multiply(r.transpose(2, 0, 1), below, out=buf[: r.size].reshape(shape))
            rows *= scale[chunk]
            # each weight is at most its finite ratio, so only the total can overflow
            with np.errstate(over="ignore"):
                total = rows.sum(axis=0)
            if not np.isfinite(total).all():
                i = np.argwhere(~np.isfinite(total))[0][1]
                raise DivergenceError(f"row total overflows at t={s:.6g}, dimension {i}")
            part = slice(block.start + chunk.start, block.start + chunk.stop)
            # offsets in int64, which states of a narrow type would overflow
            buf.put(np.multiply(xt[part], total.size, dtype=np.int64) + np.arange(total.size).reshape(total.shape), 1.0)
            yield part, rows
        del ratios, r  # so that two blocks' ratios are never alive at once


def _grid_step(steps: int, eps_t: float) -> float:
    """Step of the uniform grid of ``steps`` steps from T down to eps_t."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 < eps_t < 1.0:
        raise ValueError("need 0 < eps_t < 1")
    return (1.0 - eps_t) / steps


def _trajectories(terminal: ProductDistribution, Q, schedule, ratio_fn, rng, count, steps, dt):
    """Draw x_T from the terminal, then take ``steps`` sampled steps of ``dt``."""
    if count < 1:
        raise ValueError("need at least one trajectory")
    # trajectories are returned as int64, not in the draws' narrowest type
    xt = draw_columns(terminal.probs, count, rng).astype(np.int64)
    for k in range(steps):
        # dimension-major, so the generator is consumed one dimension at a time
        u = rng.random((terminal.d, count)).T
        for part, rows in _step_chunks(xt, 1.0 - k * dt, 1.0 - (k + 1) * dt, ratio_fn, Q, schedule):
            xt[part] = sample_categorical(rows, u[part])
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
    """Draw x_T from the terminal and run ``steps`` reverse steps down to eps_t.

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
    """Average the final reverse step's categorical over M trajectories.

    Runs steps - 1 sampled steps from T, then takes the last step's full
    per-dimension distribution instead of sampling it, and averages across
    trajectories.
    """
    dt = _grid_step(steps, eps_t)
    xt = _trajectories(terminal, Q, schedule, ratio_fn, rng, M, steps - 1, dt)
    total = np.zeros((Q.n, Q.d))
    for _, rows in _step_chunks(xt, 1.0 - (steps - 1) * dt, 1.0 - steps * dt, ratio_fn, Q, schedule):
        rows /= rows.sum(axis=0)
        # one sequential sum over all M rows, whatever the blocks and chunks
        rows[:, 0] += total
        total = np.cumsum(rows, axis=1)[:, -1]
    p0 = total.T.copy()  # normalized from a contiguous copy, as the (d, n) rows always were
    return ProductDistribution(p0 / p0.sum(axis=1, keepdims=True))
