"""Core types and exact kernels for continuous-time Markov chains on finite
state spaces.

The d rate matrices of a model are one ``FactorizedRateMatrix``: (d, n)
permutations plus (d, n-1) nonnegative rates, never densified on hot paths.
In sorted coordinates generator i is upper triangular with eigenvalues
lambda_j = -(a_ij + ... + a_i,n-2) and lambda_{n-1} = 0 against the all-ones
upper-triangular eigenbasis, so exp(beta * Q_i) has a closed form assembled
in O(n^2), written once, in ``_sorted_rows``, as nonnegative elementwise
terms that keep full relative accuracy at tiny rates. Only this module knows
the sorted-slot layout: it builds every closed form, and callers pass and get
arrays by state. The reverse sampler and the score loss mask the generator's
column x with the per-state arrays ``inv_perm`` and ``state_rates`` alone:
the rate into x on the states whose ``inv_perm`` is below x's, 0 elsewhere.
Every operation takes all d chains at once.

Batched work is cut into row slices by :func:`row_blocks` under one of two
element budgets. A memory block (``BLOCK_ELEMENTS``, 8 MiB per float64
array) bounds a ratio call's (rows, d*n) arrays in the bound and the reverse
sampler, whose call gets only a block's distinct states; the score model
cuts its forward by the rule ``ScoreModel.forward_batch`` states;
:func:`state_frequencies` and the corpus reader widen states to int64
indices one block at a time.
A cache chunk (``CHUNK_ELEMENTS``, 512 KiB per array) keeps the temporaries
of a chain of elementwise passes in L2: categorical, kernel and product
draws, kernel rows, reverse-step rows and draws, score-entropy terms, and Adam.
Chunks never reorder floating-point operations, so results do not depend on
their size; BLAS may round a matrix product's last bits by its row count,
which memory blocks set. A distribution is a ``ProductDistribution``, one
validated (d, n) array; a single chain or categorical is a one-row instance.
Time runs over [0, T] with T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_ATOL = 1e-9
RATIO_FLOOR = 1e-12
BLOCK_ELEMENTS = 2**20  # float64 elements of one memory block: 8 MiB an array
# float64 elements of one cache chunk, 512 KiB an array. With 2 MiB of L2 a core, it beat
# 2**15 (the draws' calls a row) and 2**17 (the score loss and Adam spill out of L2).
CHUNK_ELEMENTS = 2**16


def _frozen(arr, dtype):
    out = np.array(arr, dtype=dtype, copy=True, order="C")
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
    """Rate matrices of d chains: (d, n) permutations plus (d, n-1) nonnegative rates.

    ``perm[i, k]`` is the original state in sorted slot k of chain i. In
    sorted coordinates generator i is upper triangular with H[j, k] =
    a[i, k-1] for k > j and diagonal -sum(a[i, j:]), conjugated by the
    permutation in original coordinates. Derived once: ``n``, ``d``,
    ``inv_perm``, the eigenvalues ``lambdas`` (d, n) by sorted slot, and by
    state ``state_lambdas`` and ``state_rates``, the rate into a state from
    each state sorted before it (0 for the first). Compares by identity.
    """

    perm: np.ndarray
    a: np.ndarray
    n: int = field(init=False)
    d: int = field(init=False)
    inv_perm: np.ndarray = field(init=False)
    lambdas: np.ndarray = field(init=False)
    state_lambdas: np.ndarray = field(init=False)
    state_rates: np.ndarray = field(init=False)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        a = np.asarray(self.a, dtype=np.float64)
        if perm.ndim != 2 or perm.size < 1 or np.any(np.sort(perm, axis=1) != np.arange(perm.shape[1])):
            raise ValueError("perm must be a nonempty (d, n) array whose rows are permutations of 0..n-1")
        d, n = perm.shape
        if a.shape != (d, n - 1):
            raise ValueError(f"a must have shape (d, n-1) = {(d, n - 1)}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise ValueError("rate parameters must be finite and nonnegative")
        inv_perm = np.empty_like(perm)
        np.put_along_axis(inv_perm, perm, np.arange(n)[None, :], axis=1)
        # -sum(a[i, j:]) for each slot j, then a trailing 0
        lambdas = np.concatenate((-np.cumsum(a[:, ::-1], axis=1)[:, ::-1], np.zeros((d, 1))), axis=1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "perm", _frozen(perm, np.int64))
        object.__setattr__(self, "inv_perm", _frozen(inv_perm, np.int64))
        object.__setattr__(self, "a", _frozen(a, np.float64))
        object.__setattr__(self, "lambdas", _frozen(lambdas, np.float64))
        object.__setattr__(self, "state_lambdas", _frozen(np.take_along_axis(lambdas, inv_perm, axis=1), np.float64))
        rates = np.concatenate((np.zeros((d, 1)), a), axis=1)  # into slot j: lambda_j - lambda_{j-1}
        object.__setattr__(self, "state_rates", _frozen(np.take_along_axis(rates, inv_perm, axis=1), np.float64))

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
        if not (0.0 < self.sigma_min <= self.sigma_max < np.inf):
            raise ValueError("need 0 < sigma_min <= sigma_max < inf")

    def _check_t(self, t):
        t = np.asarray(t, dtype=np.float64)
        # NaN fails both comparisons
        if not np.all((t >= 0.0) & (t <= 1.0)):
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


def row_blocks(rows: int, width: int, cache: bool = False) -> list:
    """Slices cutting ``rows`` rows of ``width`` elements into runs of at most
    budget // width rows (at least one), the last one possibly shorter.

    The budget is BLOCK_ELEMENTS, a memory block, or with ``cache`` set
    CHUNK_ELEMENTS, a cache chunk, as the module docstring describes.
    """
    step = max(1, (CHUNK_ELEMENTS if cache else BLOCK_ELEMENTS) // width)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _check_betas(betas) -> np.ndarray:
    """``betas`` as a float array, refused unless every entry is finite and nonnegative."""
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    # NaN fails both comparisons
    if not np.all((betas >= 0.0) & (betas < np.inf)):
        raise ValueError("beta must be finite and nonnegative")
    return betas


def _sorted_rows(lambdas, rates, betas, mass, before, out=None):
    """Closed-form rows e_j * (m_j - c_j * expm1(-beta * a_j)) of masses m, elementwise.

    Row p of exp(beta H) telescopes to C_j e_j - C_{j-1} e_{j-1}, with
    e = exp(beta * lambda) and C = cumsum(p) over sorted slots. As
    e_{j-1} = e_j exp(-beta a_j), a_j the rate into slot j, that is the form
    above with c_j = C_{j-1}, the mass ``before`` slot j: nonnegative terms,
    in any slot order the arguments share. ``betas`` is shaped to broadcast
    against them. Returns (e, rows), rows into ``out`` when given.
    """
    rows = np.multiply(np.negative(betas), rates, out=out)
    np.expm1(rows, out=rows)
    rows = np.multiply(rows, before, out=out)
    rows = np.subtract(mass, rows, out=out)
    e = np.multiply(betas, lambdas)
    rows *= np.exp(e, out=e)
    return e, rows


def kernel_rows(Q: FactorizedRateMatrix, betas, states) -> np.ndarray:
    """Rows exp(beta_b * Q_i)[states[b, i], :] of (B, d) states, shape (B, d, n).

    :func:`_sorted_rows` of a point mass on x, in state order: entry y is
    exp(beta * lambda(y)) times 1 at x, -expm1(-beta * a(y)) where y sorts
    after x and 0 before it, so no row is sorted and none is clamped. One
    stacked pass written into the output, with one float temporary of its
    size: callers cut the rows, as the score loss does by cache chunk. A
    negative or non-finite beta raises ValueError.
    """
    x = np.asarray(states, dtype=np.int64)
    # the sorted slot of each state; block_index refuses states outside [0, n)
    pos = np.take(Q.inv_perm, block_index(x, Q.d, Q.n))
    if pos.ndim != 2:
        raise ValueError("states must be a (B, d) array")
    betas = np.broadcast_to(_check_betas(betas), (x.shape[0],))
    out = np.empty((x.shape[0], Q.d, Q.n))
    # the mass term, e at x, is put in place rather than added as a one-hot
    e = _sorted_rows(Q.state_lambdas, Q.state_rates, betas[:, None, None], 0.0, Q.inv_perm > pos[:, :, None], out=out)[0]
    np.put_along_axis(out, x[:, :, None], np.take_along_axis(e, x[:, :, None], axis=2), axis=2)
    return out


def kernel_draw(Q: FactorizedRateMatrix, betas, states, u) -> np.ndarray:
    """States drawn from the rows exp(beta_b * Q_i)[states[b, i], :] by the
    (B, d) uniforms ``u`` in [0, 1), one cache chunk at a time, with no row
    built: row x summed over the sorted slots pos(x)..k telescopes to
    e_k = exp(beta * lambda_k), rising to e_{n-1} = 1, so the right-sided draw
    is the first k >= pos(x) with e_k > u, the larger of pos(x) and the count
    of e_k <= u; a state of mass 0 repeats the e before it and is never drawn.
    """
    x = np.asarray(states, dtype=np.int64)
    slots = np.take(Q.inv_perm, block_index(x, Q.d, Q.n))
    u = np.asarray(u, dtype=np.float64)
    # NaN fails both comparisons
    if x.ndim != 2 or u.shape != x.shape or not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("need (B, d) states and as many uniforms in [0, 1)")
    betas = np.broadcast_to(_check_betas(betas), (x.shape[0],))
    for rows in row_blocks(x.shape[0], Q.d * Q.n, cache=True):
        e = np.multiply(betas[rows, None, None], Q.lambdas)
        below = np.less_equal(np.exp(e, out=e), u[rows, :, None]).sum(axis=2)
        np.maximum(slots[rows], below, out=slots[rows])
    return np.take(Q.perm, slots + Q.n * np.arange(Q.d))


def transition_kernel(Q: FactorizedRateMatrix, beta: float) -> np.ndarray:
    """Row-stochastic exp(beta * Q_i) of every chain, shape (d, n, n), from :func:`kernel_rows`."""
    states = np.broadcast_to(np.arange(Q.n)[:, None], (Q.n, Q.d))
    return kernel_rows(Q, beta, states).transpose(1, 0, 2)


def evolve_rows(p, Q: FactorizedRateMatrix, betas) -> np.ndarray:
    """Marginals p_i @ exp(beta_b * Q_i) of the (d, n) rows of p, shape (B, d, n).

    :func:`_sorted_rows` in state order with the masses p and, before each
    state, the mass of p sorted before it; O(B d n). Row sums are conserved,
    so unnormalized nonnegative inputs are fine. A negative or non-finite
    mass or beta raises ValueError.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (Q.d, Q.n):
        raise ValueError(f"p must have shape (d, n) = {(Q.d, Q.n)}")
    # NaN fails both comparisons
    if not np.all((p >= 0.0) & (p < np.inf)):
        raise ValueError("masses must be finite and nonnegative")
    betas = _check_betas(betas)[:, None, None]
    c = np.cumsum(np.take_along_axis(p, Q.perm, axis=1)[:, :-1], axis=1)
    before = np.take_along_axis(np.concatenate((np.zeros((Q.d, 1)), c), axis=1), Q.inv_perm, axis=1)
    return _sorted_rows(Q.state_lambdas, Q.state_rates, betas, p, before)[1]


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


def state_frequencies(samples, n: int) -> np.ndarray:
    """(d, n) table of how often each state occurs in each column of a (B, d) integer array.

    The range is checked once on the array as given, of any integer type;
    the counts run one memory block of rows at a time, so no (B, d) int64
    index is made. A state outside [0, n) is refused, as :func:`block_index` does.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.size == 0:
        raise ValueError("samples must be a nonempty (B, d) array")
    if samples.min() < 0 or samples.max() >= n:
        raise ValueError(f"states must lie in [0, {n})")
    B, d = samples.shape
    offsets = n * np.arange(d)
    counts = np.zeros(d * n, dtype=np.int64)
    for rows in row_blocks(B, d):
        counts += np.bincount(np.add(samples[rows], offsets).ravel(), minlength=d * n)
    return counts.reshape(d, n) / B


def row_kl_sum(Q: FactorizedRateMatrix, beta: float, freqs, targets) -> tuple:
    """Sum over i, x of freqs[i, x] * KL(exp(beta Q_i)[x] || targets[i]) and its
    (d, n-1) gradient in ``Q.a`` with the targets held fixed, as ``(loss, grad)``.

    Logs are clamped as in :func:`kl_divergence`. One :func:`_sorted_rows`
    pass over point masses in sorted slots gives all d kernels at once, each
    row compared with the sorted target and weighted by the sorted
    frequency. Row k's loss depends on e_j (j >= k) through d(loss)/d(e_j) =
    w_j - w_{j+1}, w the log ratio, and d(lambda_j)/d(a_k) = -1 for j <= k.
    Both the matrix-stage loss and the bound's KL term; ``freqs`` and
    ``targets`` must be (d, n). A negative or non-finite beta raises ValueError.
    """
    (beta,) = _check_betas(beta)
    freqs = np.asarray(freqs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    d, n = Q.d, Q.n
    if freqs.shape != (d, n) or targets.shape != (d, n):
        raise ValueError(f"state frequencies and targets must have shape (d, n) = {(d, n)}")
    rates = np.concatenate((np.zeros((d, 1)), Q.a), axis=1)[:, None, :]
    e, rows = _sorted_rows(Q.lambdas[:, None, :], rates, beta, np.eye(n), np.triu(np.ones((n, n)), 1))
    w = np.maximum(rows, RATIO_FLOOR)
    np.log(w, out=w)
    w -= np.log(np.maximum(np.take_along_axis(targets, Q.perm, axis=1), RATIO_FLOOR))[:, None, :]
    sorted_freqs = np.take_along_axis(freqs, Q.perm, axis=1)
    rows *= w  # the KL terms
    loss = float(np.sum(sorted_freqs * np.sum(rows, axis=2)))
    w[:, :, :-1] -= w[:, :, 1:]  # w_j - w_{j+1}, with w_n = 0
    dE = np.triu(w)
    dE *= beta * e
    return loss, -(sorted_freqs[:, None, :] @ np.cumsum(dE, axis=2, out=dE))[:, 0, : n - 1]


def sample_categorical(slabs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """State drawn in each column of state-major rows ``slabs`` (n, ...) by the
    uniforms ``u`` (shape slabs.shape[1:]): how many running sums are <= u
    times the row total, so rows need not be normalized.

    The slabs are summed in place, T[k] += T[k-1]: the sequential sum a
    ``cumsum`` over each row makes, with every add and compare running over
    a contiguous slab rather than a short row. Callers cut their own cache
    chunks. For u < 1, u times the total stays below the last sum, so
    counting the sums <= it is the right-sided rule of ``rng.choice``: no
    state of mass 0 is drawn, even at u = 0 or in a row whose sum rounds
    under 1. A ``u`` of another shape, a non-finite uniform, or a row total
    that is not finite and positive raises ValueError.
    """
    n = slabs.shape[0]
    if np.shape(u) != slabs.shape[1:]:
        raise ValueError("need one uniform per row")
    if not np.isfinite(u).all():
        raise ValueError("uniforms must be finite")
    for k in range(1, n):
        slabs[k] += slabs[k - 1]
    # NaN fails both comparisons
    if not ((slabs[-1] > 0.0) & (slabs[-1] < np.inf)).all():
        raise ValueError("a categorical row has a non-finite or non-positive total")
    u = u * slabs[-1]
    return np.minimum(np.less_equal(slabs, u).view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(n)), n - 1)


def draw_columns(probs: np.ndarray, size: int, rng) -> np.ndarray:
    """``size`` draws from the product distribution with (d, n) rows ``probs``, shape (size, d).

    Column i is ``rng.choice(n, size=size, p=probs[i])`` for i = 0, ..., d-1
    in turn, bit for bit, and the generator ends in the same state: uniforms
    come off it in the same order, one row of ``size`` per dimension, and
    each draw counts the entries of its row's normalized cumulative
    distribution that are <= its uniform, where ``choice``'s right-sided
    search lands. Dimensions go in cache-chunk blocks, of at least 8 so that
    a block writes runs of adjacent entries of each (size, d) row: one
    (dims, size) draw of uniforms a block, then n-1 compares of each uniform
    against a cdf entry, counted in place; none reaches the last, 1.0. The
    draws keep the counts' type, the narrowest that holds n - 1
    (``np.min_scalar_type``): uint8 for n <= 256.
    """
    d, n = probs.shape
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    samples = np.empty((size, d), dtype=np.min_scalar_type(n - 1))
    for block in row_blocks(d, max(1, min(size, CHUNK_ELEMENTS // 8)), cache=True):
        u = rng.random((block.stop - block.start, size))
        below = np.empty(u.shape, dtype=bool)
        count = np.zeros(u.shape, dtype=samples.dtype)
        for k in range(n - 1):
            count += np.less_equal(cdf[block, k, None], u, out=below).view(np.uint8)
        samples[:, block] = count.T
    return samples


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats with logs clamped at RATIO_FLOOR; the 0 log 0 terms contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(p * (np.log(np.maximum(p, RATIO_FLOOR)) - np.log(np.maximum(q, RATIO_FLOOR)))))
