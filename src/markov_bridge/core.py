"""Core types and exact kernels for continuous-time Markov chains on finite
state spaces.

Rate matrices are stored factorized as (permutation, parameter vector a) and
never densified on hot paths: in sorted coordinates the generator is upper
triangular with eigenvalues lambda_j = -(a_j + ... + a_{n-2}) and lambda_{n-1}
= 0 against the all-ones upper-triangular eigenbasis, so exp(beta * Q) has a
closed form assembled in O(n^2). The inverse eigenbasis (+1 diagonal, -1 first
superdiagonal) is applied analytically as an adjacent column difference and is
never materialized. That closed form is written once, in ``_sorted_rows``:
kernel rows, evolved marginals and the matrix-stage gradient all call it.

A distribution is a ``ProductDistribution``, one validated (d, n) array; a
single categorical is a one-row instance. Time runs over [0, T] with T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_ATOL = 1e-9
RATIO_FLOOR = 1e-12


def _frozen(arr, dtype):
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProductDistribution:
    """d independent categorical marginals over n states: the rows of the (d, n) array ``probs``.

    Rows are finite, nonnegative and sum to 1; instances compare by identity.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2 or probs.size < 1:
            raise ValueError("probs must be a nonempty (d, n) array")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probability entries must be finite")
        if np.any(probs < 0.0):
            raise ValueError("probability entries must be nonnegative")
        totals = probs.sum(axis=1)
        off = np.abs(totals - 1.0) > PROB_ATOL
        if np.any(off):
            raise ValueError(f"probabilities sum to {float(totals[off][0])!r}, not 1")
        object.__setattr__(self, "probs", _frozen(probs, np.float64))

    @property
    def d(self) -> int:
        return int(self.probs.shape[0])

    @property
    def n(self) -> int:
        return int(self.probs.shape[1])

    @classmethod
    def uniform(cls, n: int, d: int) -> "ProductDistribution":
        return cls(np.full((d, n), 1.0 / n))


@dataclass(frozen=True, eq=False)
class FactorizedRateMatrix:
    """Rate matrix stored as a permutation plus n-1 nonnegative parameters.

    ``perm[k]`` is the original state occupying sorted slot k; ``n`` and the
    inverse ``inv_perm`` are derived from it. In sorted coordinates the
    generator H is upper triangular with H[i, j] = a[j-1] for j > i and
    diagonal -sum(a[i:]); the dense matrix in original coordinates is H
    conjugated by the permutation. Instances compare by identity.
    """

    perm: np.ndarray
    a: np.ndarray
    n: int = field(init=False)
    inv_perm: np.ndarray = field(init=False)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        a = np.asarray(self.a, dtype=np.float64)
        n = perm.size
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if a.shape != (n - 1,):
            raise ValueError("a must have shape (n-1,)")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise ValueError("rate parameters must be finite and nonnegative")
        inv_perm = np.empty_like(perm)
        inv_perm[perm] = np.arange(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "perm", _frozen(perm, np.int64))
        object.__setattr__(self, "inv_perm", _frozen(inv_perm, np.int64))
        object.__setattr__(self, "a", _frozen(a, np.float64))

    @property
    def lambdas(self) -> np.ndarray:
        """Eigenvalues in sorted coordinates: -sum(a[j:]) then a trailing 0."""
        return np.concatenate((-np.cumsum(self.a[::-1])[::-1], [0.0]))

    def replace_a(self, a) -> "FactorizedRateMatrix":
        return FactorizedRateMatrix(self.perm, a)


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear rate multiplier sigma(t) on t in [0, 1], with closed-form integral beta(t).

    beta stays exact, so distribution evolution never needs numerical
    quadrature. A longer horizon H is this schedule with both sigmas scaled
    by H, so the interval is fixed.
    """

    sigma_min: float = 0.1
    sigma_max: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.sigma_min <= self.sigma_max):
            raise ValueError("need 0 < sigma_min <= sigma_max")

    def _check_t(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError(f"t={t!r} outside [0, 1]")
        return t

    def sigma(self, t):
        """Instantaneous rate multiplier at time t."""
        t = self._check_t(t)
        out = self.sigma_min + (self.sigma_max - self.sigma_min) * t
        return float(out) if out.ndim == 0 else out

    def beta(self, t):
        """Integral of sigma from 0 to t; strictly increasing, beta(0) = 0."""
        t = self._check_t(t)
        out = self.sigma_min * t + (self.sigma_max - self.sigma_min) * t * t / 2.0
        return float(out) if out.ndim == 0 else out


def _sorted_rows(Q: FactorizedRateMatrix, betas, c):
    """Telescoped rows c_j e_j - c_{j-1} e_{j-1} in sorted coordinates, c_{-1} = 0.

    e = exp(beta_b * lambda) is one row per beta (a scalar beta gives one row
    shared by the batch) and ``c`` holds cumulative masses over the sorted
    slots, one row per output row or one shared row. Row p of exp(beta H) is
    the case c = cumsum(p): the inverse eigenbasis applied analytically as an
    adjacent column difference. Returns (e, rows), before any clipping.
    """
    e = np.exp(np.outer(betas, Q.lambdas))
    rows = c * e
    rows[:, 1:] -= rows[:, :-1]  # numpy buffers the overlapping operand
    return e, rows


def kernel_rows(Q: FactorizedRateMatrix, betas, states) -> np.ndarray:
    """Rows exp(beta_b * Q)[state_b, :] for per-element or shared beta values.

    Entries are clamped at zero (the eigen route can leave -1e-15-scale
    negatives from cancellation) and rows renormalized, since downstream code
    divides by kernel entries. This is the one kernel assembly: the full
    kernel, conditional sampling and the score-entropy loss all go through it.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    pos = Q.inv_perm[np.atleast_1d(np.asarray(states, dtype=np.int64))]
    # a point mass in sorted slot pos has cumulative mass 1 from pos on
    _, rows = _sorted_rows(Q, betas, np.arange(Q.n)[None, :] >= pos[:, None])
    rows = rows[:, Q.inv_perm]
    np.clip(rows, 0.0, None, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def transition_kernel(Q: FactorizedRateMatrix, beta: float) -> np.ndarray:
    """Row-stochastic exp(beta * Q): every row of :func:`kernel_rows`."""
    beta = float(beta)
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    return kernel_rows(Q, beta, np.arange(Q.n))


def evolve_rows(p: np.ndarray, Q: FactorizedRateMatrix, betas) -> np.ndarray:
    """Marginals p @ exp(beta_b * Q) for a batch of beta values, shape (B, n).

    The telescoped form of :func:`_sorted_rows` with c the cumulative sums of
    p in sorted coordinates, so the whole batch costs O(B n). The entry sum
    of p is conserved, so unnormalized inputs are fine.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    c = np.cumsum(np.asarray(p, dtype=np.float64)[Q.perm])
    _, rows = _sorted_rows(Q, betas, c)
    rows = rows[:, Q.inv_perm]
    np.clip(rows, 0.0, None, out=rows)
    return rows


def block_index(xt, d: int, n: int) -> np.ndarray:
    """Indices xt_bi + n*i of a (B, d) state array into d stacked blocks of n.

    A state outside [0, n) would land in a neighbour's block, so it is
    refused, as is a row that is not d states long. Kernels that gather or
    count per (dimension, state) index with this one offset.
    """
    xt = np.asarray(xt, dtype=np.int64)
    if xt.ndim < 1 or xt.shape[-1] != d:
        raise ValueError(f"state rows must hold d={d} entries")
    if xt.size and (xt.min() < 0 or xt.max() >= n):
        raise ValueError(f"states must lie in [0, {n})")
    return xt + n * np.arange(d)


def rate_columns(Q_per_dim, sigmas, xt) -> np.ndarray:
    """Off-diagonal rates into each state: sigma_b * Q_i[y, x_bi], 0 at y = x_bi.

    Column x of a generator is the constant a[pos(x) - 1] on the sorted slots
    before pos(x) and 0 after it, so no dense matrix is built: the d*n
    possible columns form one small table, gathered by state. ``xt`` is
    (B, d), one column per matrix; ``sigmas`` is a scalar or one value per
    row. Shape (B, d, n).
    """
    inv = np.stack([Q.inv_perm for Q in Q_per_dim])
    a = np.stack([np.concatenate(([0.0], Q.a)) for Q in Q_per_dim])
    d, n = inv.shape
    # cols[i, x, y] = Q_i[y, x] for y != x, and 0 at y = x
    cols = np.where(inv[:, None, :] < inv[:, :, None], np.take_along_axis(a, inv, axis=1)[:, :, None], 0.0)
    out = np.take(cols.reshape(d * n, n), block_index(xt, d, n), axis=0)
    out *= np.reshape(np.asarray(sigmas, dtype=np.float64), (-1, 1, 1))
    return out


def state_frequencies(samples, n: int) -> np.ndarray:
    """(d, n) table of how often each state occurs in each column of a (B, d) array."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim != 2 or samples.size == 0:
        raise ValueError("samples must be a nonempty (B, d) array")
    B, d = samples.shape
    counts = np.bincount(block_index(samples, d, n).ravel(), minlength=d * n)
    return counts.reshape(d, n) / B


def row_kl_sum(Q_per_dim, beta: float, freqs: np.ndarray, targets: np.ndarray) -> float:
    """Sum over i, x of freqs[i, x] * KL(exp(beta Q_i)[x] || targets[i]), logs clamped
    as in :func:`kl_divergence`: both the matrix-stage loss and the bound's KL term."""
    total = 0.0
    for i, Q in enumerate(Q_per_dim):
        K = transition_kernel(Q, beta)
        w = np.log(np.maximum(K, RATIO_FLOOR)) - np.log(np.maximum(targets[i], RATIO_FLOOR))[None, :]
        total += float(freqs[i] @ np.sum(K * w, axis=1))
    return total


def sample_categorical(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one state per row of an (..., n) array of row distributions.

    The uniforms fill the leading shape in C order, so one call on a stack
    of row arrays draws exactly what one call per array, in turn, would.
    """
    u = rng.random(rows.shape[:-1])
    cdf = np.cumsum(rows, axis=-1)
    idx = (u[..., None] > cdf).sum(axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1)


def kl_divergence(p, q, floor: float = RATIO_FLOOR) -> float:
    """KL(p || q) in nats with clamped logs; the 0 log 0 terms contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(p * (np.log(np.maximum(p, floor)) - np.log(np.maximum(q, floor)))))
