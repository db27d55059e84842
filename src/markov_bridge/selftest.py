"""Quick oracle and property checks runnable from the installed CLI."""

from __future__ import annotations

import numpy as np

from .core import (
    RATIO_FLOOR,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProbVector,
    ProductDistribution,
    evolve_rows,
    kernel_rows,
    materialize_dense,
    state_frequencies,
    transition_kernel,
)
from .matrix_learning import MatrixLearnState, jq_grad
from .reference import taylor_expm
from .score_learning import make_score_batch, oracle_ratio_fn, score_entropy_loss
from .solver import exact_rate_matrix


def _random_matrix(rng, n_max=16):
    n = int(rng.integers(2, n_max + 1))
    a = rng.uniform(0.0, 3.0, n - 1)
    return FactorizedRateMatrix.from_parts(rng.permutation(n), a)


def _positive_pair(rng, n):
    p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    q = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    return ProbVector(p / p.sum()), ProbVector(q / q.sum())


def run_selftest(verbose: bool = True) -> bool:
    """Run the bundled check suite; returns True when everything passes."""
    rng = np.random.default_rng(2024)
    checks = []

    worst = 0.0
    for _ in range(200):
        Q = _random_matrix(rng)
        beta = rng.uniform(0.0, 5.0)
        err = np.abs(transition_kernel(Q, beta) - taylor_expm(beta * materialize_dense(Q))).max()
        worst = max(worst, float(err))
    checks.append(("kernel vs series oracle (200 cases)", worst <= 1e-8, f"max-abs {worst:.3g}"))

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        p, q = _positive_pair(rng, n)
        residual = np.abs(evolve_rows(q.probs, exact_rate_matrix(p, q), 1.0)[0] - p.probs).max()
        worst = max(worst, float(residual))
    checks.append(("bridge round trip (200 cases)", worst <= 1e-9, f"max residual {worst:.3g}"))

    worst = 0.0
    for _ in range(1000):
        Q = _random_matrix(rng, n_max=12)
        v = rng.uniform(0.0, 2.0, Q.n)
        out = evolve_rows(v, Q, rng.uniform(0.0, 4.0))[0]
        worst = max(worst, abs(float(out.sum() - v.sum())))
    checks.append(("conservation fuzz (1000 cases)", worst <= 1e-12, f"max drift {worst:.3g}"))

    schedule = NoiseSchedule(sigma_min=0.5, sigma_max=3.0, horizon=1.0)
    worst = 0.0
    perturbed_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 9))
        Q = [_fixed_n_matrix(rng, n)]
        # sorted-first x0: its kernel row has full support, so the ratios
        # off the diagonal are positive and a perturbation must show
        x0 = int(Q[0].perm[0])
        batch = make_score_batch(np.full((16, 1), x0, dtype=np.int64), Q, schedule, rng)
        oracle = oracle_ratio_fn(_point_mass(n, x0), Q, schedule)
        loss = score_entropy_loss(oracle, batch, Q, schedule)
        worst = max(worst, loss)
        bumped = score_entropy_loss(lambda xt, t: np.e * oracle(xt, t), batch, Q, schedule)
        perturbed_ok = perturbed_ok and bumped > 0.0
    checks.append(("score loss at the exact ratio (20 batches)", worst <= 1e-10, f"max {worst:.3g}"))
    checks.append(("score loss positive once perturbed", perturbed_ok, ""))

    ok_grad = True
    for _ in range(3):
        n = 5
        Q = [_fixed_n_matrix(rng, n)]
        p0 = ProductDistribution.from_array(rng.dirichlet(np.ones(n), size=1) * 0.9 + 0.1 / n)
        state = MatrixLearnState(Q_per_dim=Q, p0_estimate=p0)
        batch = rng.integers(0, n, size=(8, 1))
        grad = jq_grad(state, state_frequencies(batch, n), schedule)
        frozen = evolve_rows(p0.marginals[0].probs, Q[0], schedule.beta(schedule.horizon))[0]
        fd = _fd_grad(Q[0], batch, schedule, frozen)
        denom = max(np.abs(fd).max(), 1e-8)
        ok_grad = ok_grad and np.abs(grad[0] - fd).max() / denom < 1e-4
    checks.append(("matrix-loss gradient vs finite differences", ok_grad, ""))

    all_ok = True
    for name, ok, detail in checks:
        all_ok = all_ok and ok
        if verbose:
            suffix = f" ({detail})" if detail else ""
            print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    return all_ok


def _fixed_n_matrix(rng, n):
    return FactorizedRateMatrix.from_parts(rng.permutation(n), rng.uniform(0.2, 2.0, n - 1))


def _point_mass(n, x):
    row = np.zeros(n)
    row[x] = 1.0
    return ProductDistribution.from_array(row[None, :])


def _fd_grad(Q, batch, schedule, frozen_target, h=1e-5):
    beta_T = schedule.beta(schedule.horizon)
    out = np.zeros(Q.n - 1)
    logt = np.log(np.maximum(frozen_target, RATIO_FLOOR))
    for k in range(Q.n - 1):
        vals = []
        for sign in (+1.0, -1.0):
            a = Q.a.copy()
            a[k] += sign * h
            rows = kernel_rows(Q.replace_a(a), np.full(batch.shape[0], beta_T), batch[:, 0])
            w = np.log(np.maximum(rows, RATIO_FLOOR)) - logt[None, :]
            vals.append(float(np.mean(np.sum(rows * w, axis=1))))
        out[k] = (vals[0] - vals[1]) / (2 * h)
    return out
