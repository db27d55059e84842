"""Output checks. Each returns None for a valid output or a reason string.

The benchmark checks finiteness itself: the package's ProbVector accepts
NaN, so a NaN p0 would otherwise pass as a distribution.
"""

from __future__ import annotations

import math

# `dmb eval` prints each value to 6 decimals, so total may differ from
# j_score + kl_term by up to three half-units of the last digit.
EVAL_ROUNDING = 1.5e-6 + 1e-12


def check_train(ck, n: int, d: int):
    """A train() checkpoint: finite history, and p0 rows that are distributions."""
    import numpy as np

    history = np.asarray(ck.epoch_history, dtype=np.float64)
    if history.size == 0:
        return "empty epoch history"
    if not np.isfinite(history).all():
        return "non-finite epoch history entry"
    p0 = np.asarray(ck.p0_estimate, dtype=np.float64)
    if p0.shape != (d, n):
        return f"p0 has shape {p0.shape}, expected {(d, n)}"
    if not np.isfinite(p0).all():
        return "non-finite p0 entry"
    if (p0 < 0.0).any():
        return "negative p0 entry"
    if np.abs(p0.sum(axis=1) - 1.0).max() > 1e-9:
        return "p0 row does not sum to 1"
    return None


def check_sample(text: str, count: int, n: int, d: int):
    """`dmb sample` output: exactly ``count`` lines of d integers in [0, n)."""
    lines = text.splitlines()
    if len(lines) != count:
        return f"{len(lines)} sample lines, expected {count}"
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != d:
            return f"line {lineno}: {len(tokens)} values, expected {d}"
        for tok in tokens:
            if not tok.isdigit() or int(tok) >= n:
                return f"line {lineno}: value {tok!r} outside [0, {n})"
    return None


def parse_eval(text: str) -> dict:
    """`key = value [unit]` lines of `dmb eval` into a dict of floats."""
    values = {}
    for line in text.splitlines():
        key, sep, rest = line.partition("=")
        if sep and rest.split():
            try:
                values[key.strip()] = float(rest.split()[0])
            except ValueError:
                values[key.strip()] = math.nan
    return values


def check_eval(values: dict):
    """`dmb eval` output: every value finite and total = j_score + kl_term."""
    for key in ("j_score", "kl_term", "total", "bits_per_dim", "mc_std_error"):
        if key not in values:
            return f"eval output lacks {key}"
        if not math.isfinite(values[key]):
            return f"eval {key} is not finite"
    if abs(values["total"] - (values["j_score"] + values["kl_term"])) > EVAL_ROUNDING:
        return "eval total differs from j_score + kl_term"
    return None
