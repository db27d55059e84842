"""Reference routines for self-checks, kept independent of the closed-form
eigen route so the installed CLI can cross-validate itself."""

from __future__ import annotations

import numpy as np

from .core import FactorizedRateMatrix


def materialize_dense(Q: FactorizedRateMatrix) -> np.ndarray:
    """Dense generators, shape (d, n, n): zero row sums, nonnegative off-diagonals.

    The dense reference for checks; no computation path builds it.
    """
    d, n = Q.d, Q.n
    H = np.triu(np.broadcast_to(np.concatenate((np.zeros((d, 1)), Q.a), axis=1)[:, None, :], (d, n, n)), k=1)
    H[:, np.arange(n), np.arange(n)] = Q.lambdas
    return H[np.arange(d)[:, None, None], Q.inv_perm[:, :, None], Q.inv_perm[:, None, :]]


def taylor_expm(M, terms: int = 40) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of a truncated Taylor series."""
    M = np.asarray(M, dtype=np.float64)
    norm = float(np.abs(M).sum(axis=1).max())
    squarings = 0 if norm == 0.0 else max(0, int(np.ceil(np.log2(norm))) + 1)
    A = M / (2.0**squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out
