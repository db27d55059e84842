"""Outer alternating training loop: matrix stage, score stage, then a fresh
estimate of the data distribution feeding the next epoch.

The matrix stage fits the full data's state frequencies, counted once per
run (the same table, smoothed, gives the data marginals that fix the
permutations), and draws nothing at random; its final loss is the epoch's
``kl_term``, the KL part of the bound written to ``metrics.csv``. Q and p0
pass from stage to stage as plain values. Every run starts from a
checkpoint: a fresh one from epoch 0's, a resumed one from its own.

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
from .matrix_learning import init_rate_matrices, matrix_learning_loop, predict_terminal
from .sampler import estimate_mu
from .score_learning import ScoreModel, layer_sizes, make_score_batch, score_learning_loop
from .solver import estimate_marginals, permutation_from_data

_MU_SALT = 0xB41D
_MODEL_SALT = 0x5C0E

METRICS_HEADER = "epoch,kl_term,j_score,elbo_bits_per_dim,kl_mu_p0,wall_seconds"


def _score_batches(dataset: Dataset, Q: FactorizedRateMatrix, schedule, config: RunConfig, rng):
    while True:
        idx = rng.integers(0, dataset.size, size=config.score_batch_size)
        yield make_score_batch(dataset.samples[idx], Q, schedule, rng, eps_t=config.eps_t)


def restore(ck: Checkpoint):
    """Rebuild a run from a checkpoint: (config, schedule, Q, model, p0).

    A configuration that no longer parses, arrays whose shapes disagree with
    it, an epoch history without one row per epoch, rates or p0 that violate
    their invariants, and non-finite score weights raise CheckpointError.
    The history may hold NaN: its kl_mu column has no value for a corpus.
    """
    try:
        config = parse_config_text(ck.config_text)
    except ConfigError as exc:
        raise CheckpointError(f"the checkpoint's configuration does not parse: {exc}") from exc
    d, n = config.d, config.n
    sizes = layer_sizes(n, d, config.score_hidden)
    layers = list(zip(sizes[1:], sizes[:-1]))
    # the epoch history holds one row of four values per finished epoch
    expected = [(d, n), (d, n - 1), (d, n), (ck.epoch, 4)] + layers + [(fan_out,) for fan_out, _ in layers]
    arrays = [ck.perms, ck.a, ck.p0_estimate, ck.epoch_history, *ck.score_weights, *ck.score_biases]
    if [np.shape(x) for x in arrays] != expected:
        raise CheckpointError("checkpoint arrays do not have the shapes its configuration and epoch imply")
    if not all(np.isfinite(x).all() for x in ck.score_weights + ck.score_biases):
        raise CheckpointError("checkpoint score weights are not all finite")
    try:
        Q = FactorizedRateMatrix(ck.perms, ck.a)
        p0 = ProductDistribution(ck.p0_estimate)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint does not hold a valid run: {exc}") from exc
    model = ScoreModel(n, d, params=(ck.score_weights, ck.score_biases))
    return config, config.schedule(), Q, model, p0


def _checkpoint_of(config: RunConfig, epoch: int, Q, model, p0, rng, history) -> Checkpoint:
    """The run's state after ``epoch`` epochs, as a checkpoint holding copies of it."""
    return Checkpoint(
        config_text=config_echo(config),
        epoch=epoch,
        perms=Q.perm.copy(),
        a=Q.a.copy(),
        p0_estimate=p0.probs.copy(),
        score_weights=[w.copy() for w in model.weights],
        score_biases=[b.copy() for b in model.biases],
        rng_state=rng_state_to_json(rng),
        epoch_history=np.asarray(history, dtype=np.float64).reshape(-1, 4),
    )


def initial_checkpoint(config: RunConfig, freqs) -> Checkpoint:
    """Epoch 0 of a run on data with the (d, n) state-frequency table ``freqs``."""
    mu_hat = estimate_marginals(freqs)
    uniform = ProductDistribution.uniform(config.n, config.d)
    Q = init_rate_matrices(permutation_from_data(mu_hat, uniform), config.init_scheme)
    p0 = mu_hat if config.p0_init == "data_marginal" else uniform
    model_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MODEL_SALT]))
    model = ScoreModel(config.n, config.d, hidden=config.score_hidden, rng=model_rng)
    return _checkpoint_of(config, 0, Q, model, p0, np.random.default_rng(config.seed), [])


def train(config: RunConfig, resume_from: str | None = None) -> Checkpoint:
    """Run the alternating loop until convergence or the epoch cap.

    Writes one metrics row and one checkpoint per epoch under
    ``config.out_dir`` and returns the final checkpoint. The run starts from
    :func:`initial_checkpoint`, or from ``resume_from``, a checkpoint of the
    same config, dropping any metrics rows past it. A checkpoint already at
    the epoch cap, or an ``out_dir`` that cannot be created, raises
    ConfigError.
    """
    config.validate()
    dataset = load_dataset(config)
    freqs = state_frequencies(dataset.samples, config.n)
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {config.out_dir!r}: {exc}") from exc

    start = initial_checkpoint(config, freqs) if resume_from is None else load_checkpoint(resume_from)
    if start.config_text != config_echo(config):
        raise ConfigError("checkpoint was written with a different configuration")
    if start.epoch >= config.epochs:
        raise ConfigError("nothing to do: epoch cap already reached by the resumed checkpoint")
    _, schedule, Q, model, p0 = restore(start)
    run_rng = rng_from_json(start.rng_state)
    history = list(start.epoch_history)
    start_epoch = start.epoch
    del start  # its weight copies: the restored model holds its own

    metrics_path = os.path.join(config.out_dir, "metrics.csv")
    if start_epoch > 0 and os.path.exists(metrics_path):
        # keep the header and the checkpoint's epochs: a crash between the
        # metrics write and the checkpoint save leaves a row past them
        with open(metrics_path, "rb") as fh:
            keep = sum(len(line) for line in itertools.islice(fh, start_epoch + 1))
        os.truncate(metrics_path, keep)
    else:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(METRICS_HEADER + "\n")

    for epoch in range(start_epoch + 1, config.epochs + 1):
        tick = time.perf_counter()

        Q = matrix_learning_loop(
            Q, p0, freqs, schedule, config.max_step_matrix, config.eps_q, config.matrix_step_size
        ).Q
        terminal = predict_terminal(Q, p0, schedule)

        model = score_learning_loop(
            model,
            _score_batches(dataset, Q, schedule, config, run_rng),
            Q,
            schedule,
            config.max_step_score,
            config.eps_score,
            lr=config.score_lr,
        )

        mu_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MU_SALT]))
        p0 = estimate_mu(
            terminal, Q, schedule, model.forward_batch, mu_rng,
            config.mu_trajectories, config.sampler_steps, config.eps_t,
        )

        report = elbo_estimate(
            model.forward_batch, dataset.samples, Q, schedule, terminal,
            config.mc_samples, run_rng, eps_t=config.eps_t,
        )
        # the KL of product distributions is the sum of the row KLs; a
        # corpus has no true distribution to compare with
        kl_mu = np.nan if dataset.ground_truth is None else kl_divergence(dataset.ground_truth.probs, p0.probs)
        history.append([report.kl_term, report.j_score, report.bits_per_dim, kl_mu])
        wall = time.perf_counter() - tick
        row = ",".join("" if np.isnan(v) else f"{v:.12g}" for v in history[-1])
        with open(metrics_path, "a", encoding="utf-8") as fh:
            fh.write(f"{epoch},{row},{wall:.3f}\n")

        ck = _checkpoint_of(config, epoch, Q, model, p0, run_rng, history)
        save_checkpoint(ck, os.path.join(config.out_dir, f"epoch_{epoch:04d}.ckpt"))

        if report.total_nats < config.eps_total:
            break
    return ck
