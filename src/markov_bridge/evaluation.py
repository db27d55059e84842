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
from .score_learning import DEFAULT_EPS_T, _per_sample_values, make_score_batch

_CHUNK = 65536


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

    @classmethod
    def build(cls, j_score: float, kl: float, d: int, mc_std_error: float) -> "ElboReport":
        total = j_score + kl
        return cls(
            j_score=j_score,
            kl_term=kl,
            total_nats=total,
            bits_per_dim=total / (d * np.log(2.0)),
            mc_std_error=mc_std_error,
        )


def kl_term(data, Q_per_dim, schedule: NoiseSchedule, terminal: ProductDistribution) -> float:
    """Dataset mean of the summed per-dimension KL(kernel row of x0_i at beta(T) || terminal_i).

    The row KL depends on x0 only through its per-dimension entries, so each
    dimension costs one kernel and a histogram, whatever the dataset size.
    """
    freqs = state_frequencies(np.atleast_2d(data), terminal.n)
    return row_kl_sum(Q_per_dim, schedule.beta(schedule.horizon), freqs, terminal.as_array())


def elbo_estimate(
    ratio_fn,
    dataset,
    Q_per_dim,
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
    returns (B, d, n) ratio estimates. The reported standard error covers
    the score term only.
    """
    data = np.atleast_2d(np.asarray(dataset, dtype=np.int64))
    if data.size == 0:
        raise ValueError("dataset is empty")
    if mc_samples < 2:
        raise ValueError("need at least 2 Monte Carlo samples")
    total = total_sq = 0.0
    for done in range(0, mc_samples, _CHUNK):
        B = min(_CHUNK, mc_samples - done)
        batch = make_score_batch(data[rng.integers(0, data.shape[0], size=B)], Q_per_dim, schedule, rng, eps_t=eps_t)
        values = _per_sample_values(ratio_fn(batch.xt, batch.t), batch, Q_per_dim, schedule, eps_t)[0]
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / mc_samples
    var = max(total_sq / mc_samples - mean**2, 0.0)
    se = float(np.sqrt(var / mc_samples))
    kl = kl_term(data, Q_per_dim, schedule, terminal)
    return ElboReport.build(mean, kl, data.shape[1], se)
