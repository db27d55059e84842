"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against dense matrices and brute
force, not the package's closed-form eigen route, so agreement is meaningful.
The one exception, :func:`step_probs`, only reshapes the sampler's own rows.
:func:`peak_traced_bytes` is the one measure of the memory-budget tests.
"""

import tracemalloc

import numpy as np

from markov_bridge.sampler import _step_chunks


def peak_traced_bytes(fn):
    """``(peak, result)``: the most bytes tracemalloc saw allocated at once
    while ``fn()`` ran, counted from its start, and what it returned."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def taylor_expm(M, terms=45):
    """Scaling-and-squaring truncated Taylor series on a dense matrix."""
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


def dense_generator(perm, a):
    """Dense rate matrix from (perm, a), entry by entry.

    Sorted slot i jumps to each later slot j at rate a[j-1]; ``perm[i]`` is
    the original state in slot i.
    """
    n = len(perm)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            H[i, j] = a[j - 1]
        H[i, i] = -H[i].sum()
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            G[perm[i], perm[j]] = H[i, j]
    return G


def kernel_longdouble(perm, a, beta):
    """Dense exp(beta Q) of one chain in np.longdouble, entry by entry.

    In sorted slots the kernel is upper triangular: exp(beta lambda_p) on the
    diagonal and e_j - e_{j-1} = e_{j-1} (exp(beta a_{j-1}) - 1) after it,
    with e = exp(beta lambda). The difference is written as that product so
    that it keeps its relative accuracy at tiny rates.
    """
    ld = np.longdouble
    n = len(perm)
    a = np.asarray(a, dtype=ld)
    lam = [-sum(a[j:], ld(0)) for j in range(n - 1)] + [ld(0)]
    e = [np.exp(ld(beta) * lam_j) for lam_j in lam]
    K = np.zeros((n, n), dtype=ld)
    for p in range(n):
        K[perm[p], perm[p]] = e[p]
        for j in range(p + 1, n):
            K[perm[p], perm[j]] = e[j - 1] * np.expm1(ld(beta) * a[j - 1])
    return K


def expm_frechet(M, E):
    """Derivative of expm at M in direction E: the top-right block of the
    exponential of [[M, E], [0, M]]."""
    n = M.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = M
    block[n:, n:] = M
    block[:n, n:] = E
    return taylor_expm(block)[:n, n:]


def jq_per_row(perms, a, p0, batch, beta_T, floor=1e-12):
    """Per-row brute-force matrix-stage loss J_Q and its frozen-target gradient.

    J_Q is the mean over batch rows of the summed per-dimension
    KL(exp(beta_T Q_i)[x_i] || p0_i exp(beta_T Q_i)), with dense Taylor
    kernels. The gradient holds the target and the floored logs fixed and
    differentiates the kernel rows through the Frechet derivative of expm.
    """
    batch = np.asarray(batch)
    B, d = batch.shape
    n = len(perms[0])
    loss = 0.0
    grad = np.zeros((d, n - 1))
    for i in range(d):
        G = dense_generator(perms[i], a[i])
        K = taylor_expm(beta_T * G)
        log_target = np.log(np.maximum(p0[i] @ K, floor))
        dK = []
        for k in range(n - 1):
            bump = np.zeros(n - 1)
            bump[k] = 1.0
            dK.append(expm_frechet(beta_T * G, beta_T * dense_generator(perms[i], bump)))
        for row in batch:
            x = row[i]
            w = np.log(np.maximum(K[x], floor)) - log_target
            loss += float(np.sum(K[x] * w)) / B
            for k in range(n - 1):
                grad[i, k] += float(dK[k][x] @ w) / B
    return loss, grad


def kl_brute(p, q, floor=1e-12):
    """Plain elementwise KL with clamped logs."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(p * (np.log(np.maximum(p, floor)) - np.log(np.maximum(q, floor)))))


def tv_distance(p, q) -> float:
    """Total variation distance between two categorical distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must share a state count")
    return 0.5 * float(np.abs(p - q).sum())


def joint_kernel_row(rows):
    """Kronecker product of per-dimension kernel rows: the joint conditional."""
    out = np.ones(1)
    for row in rows:
        out = np.kron(out, row)
    return out


def random_positive_vector(rng, n, floor_scale=0.15):
    """Dirichlet draw mixed with uniform mass so entries stay interior."""
    v = rng.dirichlet(np.ones(n)) * (1.0 - floor_scale) + floor_scale / n
    return v / v.sum()


def random_chain_arrays(rng, n, d, a_lo, a_hi):
    """(d, n) permutations and (d, n-1) rates of d chains drawn in turn, each
    as a permutation of n states followed by its n-1 uniform rates."""
    chains = [(rng.permutation(n), rng.uniform(a_lo, a_hi, n - 1)) for _ in range(d)]
    return np.stack([perm for perm, _ in chains]), np.stack([a for _, a in chains])


def step_probs(xt, t, s, ratios, Q, schedule):
    """Categoricals of one reverse step from t to s, shape (B, d, n): the
    sampler's state-major chunk rows for the (B, d, n) ``ratios`` of a (B, d)
    batch, normalized. The sampler scores each distinct state once, so rows
    that hold the same states must hold the same ratios, and each state a
    ratio call gets is looked up among the batch's rows."""
    xt = np.asarray(xt, dtype=np.int64)
    ratios = np.asarray(ratios, dtype=np.float64)
    first = (xt[:, None, :] == xt[None, :, :]).all(axis=2).argmax(axis=1)
    assert np.array_equal(ratios[first], ratios, equal_nan=True), "ratios must be a function of the states"

    def lookup(states, time):
        same = (states[:, None, :] == xt[None, :, :]).all(axis=2)
        assert same.any(axis=1).all(), "a ratio call got a state outside the batch"
        return ratios[same.argmax(axis=1)]

    probs = np.empty(xt.shape + (Q.n,))
    for part, rows in _step_chunks(xt, t, s, lookup, Q, schedule):
        probs[part] = (rows / rows.sum(axis=0)).transpose(1, 2, 0)
    return probs
