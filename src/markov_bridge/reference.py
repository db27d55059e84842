"""Reference routines for self-checks, kept independent of the closed-form
eigen route so the installed CLI can cross-validate itself."""

from __future__ import annotations

import numpy as np

from .core import FactorizedRateMatrix


def materialize_dense(Q: FactorizedRateMatrix) -> np.ndarray:
    """Dense generator matrix: zero row sums, nonnegative off-diagonals.

    The dense reference for checks; no computation path builds it.
    """
    n = Q.n
    H = np.triu(np.broadcast_to(np.concatenate(([0.0], Q.a)), (n, n)).copy(), k=1)
    H[np.diag_indices(n)] = Q.lambdas
    return H[np.ix_(Q.inv_perm, Q.inv_perm)]


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
