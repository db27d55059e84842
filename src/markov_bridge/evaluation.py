"""Variational-bound accounting: the factorized KL term, the Monte Carlo
score term, and bits-per-dimension reporting.

Under independent evolution and an independent terminal the KL between the
joint conditional kernel and the terminal splits into a sum of per-dimension
KLs, so the bound is computable at any d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoiseSchedule, ProductDistribution, row_kl_sum, state_frequencies
from .errors import DivergenceError
from .score_learning import DEFAULT_EPS_T, make_score_batch, score_entropy_values


@dataclass(frozen=True)
class ElboReport:
    """Bound components in nats plus the bits/dim view of the total."""

    j_score: float
    kl_term: float
    total_nats: float
    bits_per_dim: float
    mc_std_error: float

    def __post_init__(self):
        for name in ("j_score", "kl_term", "total_nats", "bits_per_dim", "mc_std_error"):
            if not np.isfinite(getattr(self, name)):
                raise DivergenceError(f"non-finite report field {name}")


def kl_term(data, Q, schedule: NoiseSchedule, terminal: ProductDistribution) -> float:
    """Dataset mean of the summed per-dimension KL(kernel row of x0_i at beta(T) || terminal_i).

    The row KL depends on x0 only through its per-dimension entries, so each
    dimension costs one kernel and a histogram, whatever the dataset size:
    the loss half of ``core.row_kl_sum``, the matrix stage's loss, clamped at
    0 against roundoff when every row is near the terminal (the stage's line
    search compares it unclamped). Data rows or a terminal whose width is
    not the chains' d are refused.
    """
    freqs = state_frequencies(np.atleast_2d(data), terminal.n)
    return max(row_kl_sum(Q, schedule.beta(1.0), freqs, terminal.probs)[0], 0.0)


def elbo_estimate(
    ratio_fn,
    dataset,
    Q,
    schedule: NoiseSchedule,
    terminal: ProductDistribution,
    mc_samples: int,
    rng,
    eps_t: float = DEFAULT_EPS_T,
) -> ElboReport:
    """Monte Carlo bound estimate over (x0, t, xt) draws plus the exact KL term.

    The score term is estimated with mc_samples iid draws (x0 uniform from
    the dataset, t uniform on (eps_t, T), xt from the conditional kernel);
    the KL term is averaged over the whole dataset. ``ratio_fn(xt, t)``
    returns (B, d, n) ratio estimates. All draws are one score batch, scored by
    ``score_entropy_values``, the training objective's one estimator. The
    dataset is read in its own integer type: the picked rows are gathered
    from it and its frequencies counted by memory block, so memory is
    O(mc_samples * d) plus a few blocks. The standard error covers the score term only.
    """
    data = np.atleast_2d(np.asarray(dataset))
    if data.size == 0:
        raise ValueError("dataset is empty")
    if mc_samples < 2:
        raise ValueError("need at least 2 Monte Carlo samples")
    picks = rng.integers(0, data.shape[0], size=mc_samples)
    batch = make_score_batch(data[picks], Q, schedule, rng, eps_t)
    values = score_entropy_values(ratio_fn, batch, Q, schedule)
    mean = float(values.sum()) / mc_samples
    var = max(float((values**2).sum()) / mc_samples - mean**2, 0.0)
    se = float(np.sqrt(var / mc_samples))
    kl = kl_term(data, Q, schedule, terminal)
    return ElboReport(mean, kl, mean + kl, (mean + kl) / (data.shape[1] * np.log(2.0)), se)
