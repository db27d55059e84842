"""Quick oracle and property checks runnable from the installed CLI."""

from __future__ import annotations

import numpy as np

from .core import (
    RATIO_FLOOR,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    evolve_rows,
    kernel_rows,
    state_frequencies,
    transition_kernel,
)
from .matrix_learning import jq_grad, predict_terminal
from .reference import materialize_dense, taylor_expm
from .sampler import _step_chunks
from .score_learning import make_score_batch, oracle_ratio_fn, score_entropy_values
from .solver import exact_rate_matrices


def _random_matrix(rng, n_max=16):
    n = int(rng.integers(2, n_max + 1))
    a = rng.uniform(0.0, 3.0, n - 1)
    return FactorizedRateMatrix(rng.permutation(n)[None, :], a[None, :])


def _positive_pair(rng, n):
    p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    q = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    return ProductDistribution((p / p.sum())[None, :]), ProductDistribution((q / q.sum())[None, :])


def run_selftest() -> bool:
    """Run the bundled check suite, printing one line per check; returns True when everything passes."""
    rng = np.random.default_rng(2024)
    checks = []

    worst = 0.0
    # 200 random chains, then tiny-rate ones like the init schemes' starts
    cases = [(_random_matrix(rng), rng.uniform(0.0, 5.0)) for _ in range(200)]
    for Q, beta in cases + [(FactorizedRateMatrix([[2, 0, 3, 1]], [[a, a, 1.0]]), 2.0) for a in (1e-6, 1e-10, 0.0)]:
        err = np.abs(transition_kernel(Q, beta)[0] - taylor_expm(beta * materialize_dense(Q)[0])).max()
        worst = max(worst, float(err))
    checks.append(("kernel vs series oracle (200 cases, 3 tiny-rate)", worst <= 1e-8, f"max-abs {worst:.3g}"))

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        p, q = _positive_pair(rng, n)
        Q = exact_rate_matrices(p, q)
        residual = np.abs(evolve_rows(q.probs, Q, 1.0)[0] - p.probs).max()
        worst = max(worst, float(residual))
    checks.append(("bridge round trip (200 cases)", worst <= 1e-9, f"max residual {worst:.3g}"))

    worst = 0.0
    for _ in range(1000):
        Q = _random_matrix(rng, n_max=12)
        v = rng.uniform(0.0, 2.0, (1, Q.n))
        out = evolve_rows(v, Q, rng.uniform(0.0, 4.0))[0]
        worst = max(worst, abs(float(out.sum() - v.sum())))
    checks.append(("conservation fuzz (1000 cases)", worst <= 1e-12, f"max drift {worst:.3g}"))

    schedule = NoiseSchedule(sigma_min=0.5, sigma_max=3.0)
    worst = 0.0
    perturbed_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 9))
        Q = _fixed_n_matrix(rng, n)
        # sorted-first x0: its kernel row has full support, so the ratios
        # off the diagonal are positive and a perturbation must show
        x0 = int(Q.perm[0, 0])
        batch = make_score_batch(np.full((16, 1), x0, dtype=np.int64), Q, schedule, rng)
        oracle = oracle_ratio_fn(_point_mass(n, x0), Q, schedule)
        loss = score_entropy_values(oracle, batch, Q, schedule).mean()
        worst = max(worst, loss)
        bumped = score_entropy_values(lambda xt, t: np.e * oracle(xt, t), batch, Q, schedule).mean()
        perturbed_ok = perturbed_ok and bumped > 0.0
    checks.append(("score loss at the exact ratio (20 batches)", worst <= 1e-10, f"max {worst:.3g}"))
    checks.append(("score loss positive once perturbed", perturbed_ok, ""))

    ok_grad = True
    for _ in range(3):
        n = 5
        Q = _fixed_n_matrix(rng, n)
        p0 = ProductDistribution(rng.dirichlet(np.ones(n), size=1) * 0.9 + 0.1 / n)
        batch = rng.integers(0, n, size=(8, 1))
        grad = jq_grad(Q, p0, state_frequencies(batch, n), schedule)[1]
        frozen = evolve_rows(p0.probs, Q, schedule.beta(1.0))[0, 0]
        fd = _fd_grad(Q, batch, schedule, frozen)
        denom = max(np.abs(fd).max(), 1e-8)
        ok_grad = ok_grad and np.abs(grad[0] - fd).max() / denom < 1e-4
    checks.append(("matrix-loss gradient vs finite differences", ok_grad, ""))

    # with exact ratios, one step from T of every state, weighted by the
    # terminal, is the data marginal evolved to eps_t
    worst = 0.0
    d, eps_t = 3, 1e-3
    for _ in range(5):
        n = int(rng.integers(2, 13))
        Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.2, 2.0, (d, n - 1)))
        mu = ProductDistribution(rng.dirichlet(np.ones(n), size=d) * 0.9 + 0.1 / n)
        states = np.repeat(np.arange(n)[:, None], d, axis=1)
        terminal = predict_terminal(Q, mu, schedule).probs
        got = np.zeros((d, n))
        for part, rows in _step_chunks(states, 1.0, eps_t, oracle_ratio_fn(mu, Q, schedule), Q, schedule):
            got += np.einsum("ybi,ib->iy", rows / rows.sum(axis=0), terminal[:, part])
        want = evolve_rows(mu.probs, Q, schedule.beta(eps_t))[0]
        worst = max(worst, float(np.abs(got - want).max()))
    checks.append(("exact reverse step from T (5 chains)", worst <= 1e-12, f"max-abs {worst:.3g}"))

    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    return all(ok for _, ok, _ in checks)


def _fixed_n_matrix(rng, n):
    return FactorizedRateMatrix(rng.permutation(n)[None, :], rng.uniform(0.2, 2.0, (1, n - 1)))


def _point_mass(n, x):
    row = np.zeros(n)
    row[x] = 1.0
    return ProductDistribution(row[None, :])


def _fd_grad(Q, batch, schedule, frozen_target, h=1e-5):
    beta_T = schedule.beta(1.0)
    out = np.zeros(Q.n - 1)
    logt = np.log(np.maximum(frozen_target, RATIO_FLOOR))
    for k in range(Q.n - 1):
        vals = []
        for sign in (+1.0, -1.0):
            a = Q.a.copy()
            a[0, k] += sign * h
            rows = kernel_rows(Q.replace_a(a), np.full(batch.shape[0], beta_T), batch)[:, 0]
            w = np.log(np.maximum(rows, RATIO_FLOOR)) - logt[None, :]
            vals.append(float(np.mean(np.sum(rows * w, axis=1))))
        out[k] = (vals[0] - vals[1]) / (2 * h)
    return out
