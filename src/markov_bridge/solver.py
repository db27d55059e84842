"""Constructive bridge between two categorical distributions.

Sorting states by the ratio p_i/q_i makes the cumulative-ratio chain
nondecreasing, which guarantees nonnegative closed-form rate parameters
a_k = ln(cp_{k+1}/cq_{k+1}) - ln(cp_k/cq_k) such that q exp(Q) = p exactly.
Also holds the histogram estimators that feed the permutation choice in the
training harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorizedRateMatrix, ProbVector, ProductDistribution, state_frequencies
from .errors import DegeneratePrefixError, UnsolvableSupportError

HISTOGRAM_SMOOTHING = 1e-6


@dataclass(frozen=True)
class SortedPair:
    """A permutation and both distributions reindexed by it.

    Invariant: the cumulative-ratio chain (sum p'_{<=k}) / (sum q'_{<=k}) is
    nondecreasing in k and ends at 1.
    """

    perm: np.ndarray
    p_sorted: ProbVector
    q_sorted: ProbVector

    def __post_init__(self):
        cp = np.cumsum(self.p_sorted.probs)
        cq = np.cumsum(self.q_sorted.probs)
        ok = cq > 0.0
        chain = cp[ok] / cq[ok]
        if chain.size and (np.any(np.diff(chain) < -1e-12) or abs(chain[-1] - 1.0) > 1e-12):
            raise ValueError("cumulative-ratio chain is not a nondecreasing chain ending at 1")


def sort_permutation(p: ProbVector, q: ProbVector) -> SortedPair:
    """Order states by ascending p_i/q_i, ties broken by original index.

    States with q_i = 0 and p_i = 0 are treated as ratio 0 and land first;
    q_i = 0 with p_i > 0 is unsolvable (no source mass to move).
    """
    if p.n != q.n:
        raise ValueError("p and q must share a state count")
    pp, qq = p.probs, q.probs
    starved = (qq == 0.0) & (pp > 0.0)
    if np.any(starved):
        raise UnsolvableSupportError(
            f"target has mass at state {int(np.argmax(starved))} where source has none"
        )
    ratios = np.divide(pp, qq, out=np.zeros_like(pp), where=qq > 0.0)
    order = np.argsort(ratios, kind="stable")
    return SortedPair(perm=order, p_sorted=ProbVector(pp[order]), q_sorted=ProbVector(qq[order]))


def exact_rate_matrix(p: ProbVector, q: ProbVector) -> FactorizedRateMatrix:
    """Rate matrix Q with q exp(Q) = p, in factorized (perm, a) form.

    The parameters come from the log cumulative-ratio increments of the sorted
    pair; the chain inequality makes every a_k >= 0 (tiny float negatives are
    clamped to 0). Zero-mass prefixes shared by p and q contribute a_k = 0.
    """
    pair = sort_permutation(p, q)
    cp = np.cumsum(pair.p_sorted.probs)
    cq = np.cumsum(pair.q_sorted.probs)
    if np.any((cq <= 0.0) & (cp > 0.0)):
        raise DegeneratePrefixError("zero source prefix below target mass")
    positive = cq > 0.0
    if not np.any(positive):
        raise DegeneratePrefixError("source distribution has no mass at all")
    if np.any(positive & (cp <= 0.0)):
        raise UnsolvableSupportError(
            "target prefix mass is exactly zero; the bridge would need an infinite rate"
        )
    lam = np.zeros(p.n)
    lam[positive] = np.log(cp[positive]) - np.log(cq[positive])
    first = int(np.argmax(positive))
    lam[:first] = lam[first]  # zero-zero prefix: flat spectrum, a_k = 0
    a = np.maximum(np.diff(lam), 0.0)
    return FactorizedRateMatrix.from_parts(pair.perm, a)


def estimate_marginals(dataset, n: int) -> ProductDistribution:
    """Per-dimension histogram frequencies with additive smoothing.

    Smoothing keeps every state strictly positive so the estimate can serve
    as the source side of a bridge: (f + eps) / (1 + n*eps) with eps = 1e-6.
    """
    freq = state_frequencies(dataset, n)
    return ProductDistribution((freq + HISTOGRAM_SMOOTHING) / (1.0 + n * HISTOGRAM_SMOOTHING))


def permutation_from_data(mu_hat: ProductDistribution, terminal: ProductDistribution) -> list:
    """Per-dimension sort permutations bridging mu_hat toward terminal.

    O(n log n) per dimension; dimensions are independent.
    """
    if mu_hat.d != terminal.d or mu_hat.n != terminal.n:
        raise ValueError("mu_hat and terminal must share (d, n)")
    return [
        sort_permutation(ProbVector(mu_hat.probs[i]), ProbVector(terminal.probs[i])).perm
        for i in range(mu_hat.d)
    ]
