"""Constructive bridge between two product distributions, all dimensions at once.

For each dimension i, sorting states by the ratio p_i/q_i makes the
cumulative-ratio chain cumsum(p_i') / cumsum(q_i') nondecreasing, which
guarantees nonnegative closed-form rate parameters
a_k = ln(cp_{k+1}/cq_{k+1}) - ln(cp_k/cq_k) such that q_i exp(Q_i) = p_i
exactly. The sort and the parameters are computed for all d rows in one
pass. Also holds the histogram estimator that feeds the permutation choice
in the training harness.
"""

from __future__ import annotations

import numpy as np

from .core import FactorizedRateMatrix, ProductDistribution
from .errors import UnsolvableSupportError

HISTOGRAM_SMOOTHING = 1e-6


def estimate_marginals(freqs) -> ProductDistribution:
    """Per-dimension marginals from a (d, n) state-frequency table
    (:func:`core.state_frequencies`) with additive smoothing.

    Smoothing keeps every state strictly positive so the estimate can serve
    as the source side of a bridge: (f + eps) / (1 + n*eps) with eps = 1e-6.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    n = freqs.shape[-1]
    return ProductDistribution((freqs + HISTOGRAM_SMOOTHING) / (1.0 + n * HISTOGRAM_SMOOTHING))


def permutation_from_data(p: ProductDistribution, q: ProductDistribution) -> np.ndarray:
    """(d, n) sort permutations bridging q toward p, one row per dimension.

    Row i orders the states by ascending p_i/q_i, ties broken by original
    index. States with q = 0 and p = 0 count as ratio 0 and land first;
    q = 0 < p is unsolvable (no source mass to move) and raises
    UnsolvableSupportError.
    """
    if p.probs.shape != q.probs.shape:
        raise ValueError("p and q must share (d, n)")
    pp, qq = p.probs, q.probs
    starved = (qq == 0.0) & (pp > 0.0)
    if np.any(starved):
        i, x = np.argwhere(starved)[0]
        raise UnsolvableSupportError(
            f"target has mass at state {int(x)} of dimension {int(i)} where source has none"
        )
    ratios = np.divide(pp, qq, out=np.zeros_like(pp), where=qq > 0.0)
    return np.argsort(ratios, axis=1, kind="stable")


def exact_rate_matrices(p: ProductDistribution, q: ProductDistribution) -> FactorizedRateMatrix:
    """Rate matrices Q_i with q_i exp(Q_i) = p_i, one per row of p and q.

    The parameters come from the log cumulative-ratio increments of each
    sorted row; the chain inequality makes every a_k >= 0 (tiny float
    negatives are clamped to 0). Zero-mass prefixes shared by p and q
    contribute a_k = 0. With starved states refused, a prefix with no q mass
    has no p mass either, and the last prefix of q is its whole mass.
    """
    perms = permutation_from_data(p, q)
    cp = np.cumsum(np.take_along_axis(p.probs, perms, axis=1), axis=1)
    cq = np.cumsum(np.take_along_axis(q.probs, perms, axis=1), axis=1)
    positive = cq > 0.0
    if np.any(positive & (cp <= 0.0)):
        raise UnsolvableSupportError(
            "target prefix mass is exactly zero; the bridge would need an infinite rate"
        )
    lam = np.zeros(cq.shape)
    lam[positive] = np.log(cp[positive]) - np.log(cq[positive])
    # zero-zero prefix: a flat spectrum up to the first positive slot, a_k = 0
    first = positive.argmax(axis=1)
    lam = np.where(positive, lam, lam[np.arange(lam.shape[0]), first][:, None])
    a = np.maximum(np.diff(lam, axis=1), 0.0)
    return FactorizedRateMatrix(perms, a)
