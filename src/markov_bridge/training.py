"""Outer alternating training loop: matrix stage, score stage, then a fresh
estimate of the data distribution feeding the next epoch.

The matrix stage fits the full data's state frequencies, counted once per
run, and draws nothing at random; its final loss is the epoch's ``kl_term``,
the KL part of the bound written to ``metrics.csv``.

Permutations are fixed once at startup from the data histograms (sorted
against a uniform terminal, i.e. by ascending marginal) and never re-sorted.
All stochastic work inside an epoch draws from one advancing generator whose
state is checkpointed, except the mu estimator, which reuses a fixed stream
every epoch (common random numbers) so the epoch-to-epoch KL trend is not
drowned in Monte Carlo noise.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, rng_from_json, rng_state_to_json, save_checkpoint
from .config import RunConfig, config_echo, parse_config_text
from .core import FactorizedRateMatrix, ProductDistribution, kl_divergence, state_frequencies
from .data import Dataset, load_dataset
from .errors import CheckpointError, ConfigError
from .evaluation import elbo_estimate
from .matrix_learning import MatrixLearnState, init_rate_matrices, matrix_learning_loop, predict_terminal
from .sampler import SamplerConfig, estimate_mu
from .score_learning import ScoreModel, make_score_batch, score_learning_loop
from .solver import estimate_marginals, permutation_from_data

_MU_SALT = 0xB41D
_MODEL_SALT = 0x5C0E

METRICS_HEADER = "epoch,kl_term,j_score,elbo_bits_per_dim,kl_mu_p0,wall_seconds"


def _score_batches(dataset: Dataset, Q_per_dim, schedule, config: RunConfig, rng):
    Q_list = list(Q_per_dim)
    while True:
        idx = rng.integers(0, dataset.size, size=config.score_batch_size)
        yield make_score_batch(dataset.samples[idx], Q_list, schedule, rng, eps_t=config.eps_t)


def restore(ck: Checkpoint):
    """Rebuild a run from a checkpoint: (config, schedule, Q_per_dim, model, p0).

    Arrays whose shapes disagree with the checkpoint's own configuration, and
    rates or p0 that violate their invariants, raise CheckpointError.
    """
    config = parse_config_text(ck.config_text)
    d, n = config.d, config.n
    model = ScoreModel(n, d, hidden=config.score_hidden)
    expected = [(d, n), (d, n - 1), (d, n)] + [p.shape for p in model.weights + model.biases]
    found = [np.shape(x) for x in [ck.perms, ck.a, ck.p0_estimate, *ck.score_weights, *ck.score_biases]]
    if found != expected:
        raise CheckpointError("checkpoint arrays do not have the shapes its configuration implies")
    try:
        Q_per_dim = [FactorizedRateMatrix.from_parts(ck.perms[i], ck.a[i]) for i in range(d)]
        p0 = ProductDistribution.from_array(ck.p0_estimate)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint does not hold a valid run: {exc}") from exc
    # layer by layer, so each random initial layer is freed as its copy arrives
    for layer, (w, b) in enumerate(zip(ck.score_weights, ck.score_biases)):
        model.weights[layer] = w.copy()
        model.biases[layer] = b.copy()
    return config, config.schedule(), Q_per_dim, model, p0


def train(config: RunConfig, resume_from: str | None = None, stop_after: int | None = None) -> Checkpoint:
    """Run the alternating loop until convergence or the epoch cap.

    Writes one metrics row and one checkpoint per epoch under
    ``config.out_dir`` and returns the final checkpoint. ``resume_from``
    restores an earlier checkpoint of the same config; ``stop_after`` caps
    how many epochs this call performs (for interruption tests).
    """
    config.validate()
    schedule = config.schedule()
    dataset = load_dataset(config)
    os.makedirs(config.out_dir, exist_ok=True)

    if resume_from is None:
        mu_hat = estimate_marginals(dataset.samples, config.n)
        perms = permutation_from_data(mu_hat, ProductDistribution.uniform(config.n, config.d))
        Q_per_dim = init_rate_matrices(perms, config.n, config.init_scheme)
        p0 = mu_hat if config.p0_init == "data_marginal" else ProductDistribution.uniform(config.n, config.d)
        model = ScoreModel(
            config.n,
            config.d,
            hidden=config.score_hidden,
            rng=np.random.default_rng(np.random.SeedSequence([config.seed, _MODEL_SALT])),
        )
        run_rng = np.random.default_rng(config.seed)
        history = []
        start_epoch = 0
    else:
        saved = load_checkpoint(resume_from)
        if saved.config_text != config_echo(config):
            raise ConfigError("checkpoint was written with a different configuration")
        _, _, Q_per_dim, model, p0 = restore(saved)
        run_rng = rng_from_json(saved.rng_state)
        history = list(saved.epoch_history)
        start_epoch = saved.epoch
    state = MatrixLearnState(Q_per_dim=Q_per_dim, p0_estimate=p0, step_size=config.matrix_step_size)
    freqs = state_frequencies(dataset.samples, config.n)

    metrics_path = os.path.join(config.out_dir, "metrics.csv")
    if start_epoch > 0 and os.path.exists(metrics_path):
        # keep the header and the checkpoint's epochs: a crash between the
        # metrics write and the checkpoint save leaves a row past them
        with open(metrics_path, "rb") as fh:
            keep = sum(len(line) for line in itertools.islice(fh, start_epoch + 1))
        os.truncate(metrics_path, keep)
        metrics = open(metrics_path, "a", encoding="utf-8")
    else:
        metrics = open(metrics_path, "w", encoding="utf-8")
        metrics.write(METRICS_HEADER + "\n")
        metrics.flush()

    sampler_cfg = SamplerConfig(num_steps=config.sampler_steps, eps_t=config.eps_t)
    ck = None
    last = min(config.epochs, start_epoch + stop_after) if stop_after is not None else config.epochs
    try:
        for epoch in range(start_epoch + 1, last + 1):
            tick = time.perf_counter()
            state.step_size = config.matrix_step_size

            state = matrix_learning_loop(state, freqs, schedule, config.max_step_matrix, config.eps_q)
            terminal = predict_terminal(state.Q_per_dim, state.p0_estimate, schedule)

            model = score_learning_loop(
                model,
                _score_batches(dataset, state.Q_per_dim, schedule, config, run_rng),
                state.Q_per_dim,
                schedule,
                config.max_step_score,
                config.eps_score,
                lr=config.score_lr,
                eps_t=config.eps_t,
            )

            mu_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MU_SALT]))
            state.p0_estimate = estimate_mu(
                sampler_cfg, terminal, state.Q_per_dim, schedule, model.forward_batch, mu_rng, config.mu_trajectories
            )

            report = elbo_estimate(
                model.forward_batch, dataset.samples, state.Q_per_dim, schedule, terminal,
                config.mc_samples, run_rng, eps_t=config.eps_t,
            )
            kl_mu = ""
            kl_value = np.nan
            if dataset.ground_truth is not None:
                kl_value = sum(
                    kl_divergence(dataset.ground_truth.marginals[i], state.p0_estimate.marginals[i])
                    for i in range(config.d)
                )
                kl_mu = f"{kl_value:.12g}"
            wall = 0.0 if config.deterministic_timing else time.perf_counter() - tick
            metrics.write(
                f"{epoch},{report.kl_term:.12g},{report.j_score:.12g},"
                f"{report.bits_per_dim:.12g},{kl_mu},{wall:.3f}\n"
            )
            metrics.flush()
            history.append([report.kl_term, report.j_score, report.bits_per_dim, kl_value])

            ck = Checkpoint(
                config_text=config_echo(config),
                epoch=epoch,
                perms=np.stack([Q.perm for Q in state.Q_per_dim]),
                a=np.stack([Q.a for Q in state.Q_per_dim]),
                p0_estimate=state.p0_estimate.as_array(),
                score_weights=[w.copy() for w in model.weights],
                score_biases=[b.copy() for b in model.biases],
                rng_state=rng_state_to_json(run_rng),
                epoch_history=np.asarray(history, dtype=np.float64).reshape(-1, 4),
            )
            save_checkpoint(ck, os.path.join(config.out_dir, f"epoch_{epoch:04d}.ckpt"))

            if report.total_nats < config.eps_total:
                break
    finally:
        metrics.close()
    if ck is None:
        raise ConfigError("nothing to do: epoch cap already reached by the resumed checkpoint")
    return ck
