"""Workload definitions and the seeded inputs they hand to the program.

Every workload runs the same user session in one fresh process: ``train()``
on a config, then ``dmb sample`` and ``dmb eval`` on a checkpoint the
benchmark draws from its seed. The workloads differ in shape and in how much
of each operation they do, so that a different module dominates each one.
Sample and eval read the benchmark's checkpoint, never the trained one, so
a change to training cannot change their inputs.

The program sees only generated inputs: config text holding just the keys
that define the workload, and one checkpoint file.
"""

from __future__ import annotations

WORKLOADS = {
    # Desk shape: arrays are tiny, so per-call overhead and the 128x128 MLP
    # dominate; the score stage and estimate_mu outweigh the matrix stage.
    "train-desk": {
        "n": 8, "d": 4,
        "train": {"epochs": 1, "max_step_matrix": 200, "max_step_score": 400,
                  "mu_trajectories": 4096, "sampler_steps": 64, "mc_samples": 4096},
        "sample": {"count": 8192, "steps": 32},
        "eval": {"mc_samples": 32768},
        "elbo_from": "train",
    },
    # The text8 shape: the O(B d n) matrix stage and the bridge arithmetic
    # of the score loss dominate; peak memory is set by (B, d, n) arrays.
    "train-text8": {
        "n": 27, "d": 256,
        "train": {"epochs": 1, "max_step_matrix": 6, "max_step_score": 5,
                  "mu_trajectories": 128, "sampler_steps": 4, "mc_samples": 256},
        "sample": {"count": 128, "steps": 8},
        "eval": {"mc_samples": 512},
        "elbo_from": "train",
    },
    # Read-mostly: the reverse sampler and the forward score-entropy
    # arithmetic at a large batch. Training is one minimal step of each
    # stage, there only so that every workload reports train_s.
    "sample-text8": {
        "n": 27, "d": 256,
        "train": {"epochs": 1, "max_step_matrix": 1, "max_step_score": 1,
                  "mu_trajectories": 16, "sampler_steps": 1, "mc_samples": 16},
        "sample": {"count": 256, "steps": 16},
        "eval": {"mc_samples": 1536},
        "elbo_from": "eval",
    },
}

# Self-test size: the same operations on a toy shape, a second or so each.
TOY = {
    "n": 4, "d": 2,
    "train": {"epochs": 1, "max_step_matrix": 2, "max_step_score": 2,
              "mu_trajectories": 16, "sampler_steps": 2, "mc_samples": 16},
    "sample": {"count": 8, "steps": 2},
    "eval": {"mc_samples": 16},
}


def spec(name: str, toy: bool = False) -> dict:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    base = WORKLOADS[name]
    return dict(base, **TOY) if toy else dict(base)


def config_text(spec: dict, seed: int, out_dir: str) -> str:
    """The train config: n, d, seed, the workload's sizes and out_dir only."""
    keys = {"n": spec["n"], "d": spec["d"], "seed": seed, **spec["train"], "out_dir": out_dir}
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def write_checkpoint(mb, spec: dict, seed: int, path: str) -> None:
    """Draw rates, p0 and MLP weights from ``seed`` and save them.

    Uses the package's own ``save_checkpoint``. The last MLP layer is drawn
    non-zero so the sampler and the bound see ratios other than 1.
    """
    import numpy as np

    n, d = spec["n"], spec["d"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7C]))
    hidden = (128, 128)
    sizes = [d * n + 16, *hidden, d * n]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
        biases.append(rng.normal(0.0, 0.1, size=fan_out))
    weights[-1] *= 0.5
    ck = mb.Checkpoint(
        config_text=f"n = {n}\nd = {d}\nseed = {seed}\n",
        epoch=1,
        perms=np.stack([rng.permutation(n) for _ in range(d)]),
        a=rng.gamma(1.0, 0.05, size=(d, n - 1)),
        p0_estimate=rng.dirichlet(np.ones(n), size=d),
        score_weights=weights,
        score_biases=biases,
        rng_state=mb.checkpoint.rng_state_to_json(rng),
        epoch_history=np.zeros((1, 4)),
    )
    mb.save_checkpoint(ck, path)
