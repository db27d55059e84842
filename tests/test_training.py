"""Golden values, resume equality and an end-to-end CLI run of the training loop.

The golden numbers were recorded from a fixed-seed run of this config; a
refactor that is meant to keep behaviour must reproduce them. Score batches
and the bound draw x_t with ``core.kernel_draw``, which sums each kernel row
in sorted-slot order: a draw that sums it in another order maps a uniform to
another state of the same distribution, and moves every value here but the
samples, which the reverse sampler alone draws from the trained checkpoint.
"""

import csv
import os

import numpy as np
import pytest

from markov_bridge import (ConfigError, core, load_checkpoint, matrix_learning_loop, parse_config_text, save_checkpoint,
                           train, training)
from markov_bridge.data import load_dataset
from markov_bridge.matrix_learning import init_rate_matrices, jq_grad
from markov_bridge.solver import estimate_marginals, permutation_from_data
from markov_bridge.training import restore
from markov_bridge.cli import cli

CONFIG = """\
dataset = synthetic
n = 4
d = 3
seed = 7
synthetic_samples = 500
epochs = 3
max_step_matrix = 20
max_step_score = 30
score_hidden = 16,16
mu_trajectories = 256
sampler_steps = 8
mc_samples = 256
"""

GOLDEN_HISTORY = [
    [0.011283429263158364, 37.995324272218596, 18.27731481731334, 31.71179804619877],
    [0.01103936237255468, 38.23993480497707, 18.394830246802385, 31.768060981529025],
    [0.009899270565815207, 34.311259440856375, 16.504988490177283, 20.830951257154705],
]

# the exact zeros sit in the sorted-last slots of chains 1 and 2: a reverse step
# only moves to earlier slots, and the trained ratios carried every trajectory out
GOLDEN_P0 = [
    [0.36363869582657343, 0.003113606833779623, 0.41262103672349, 0.22062666061615696],
    [0.23121756629958093, 0.3930184134369132, 0.3757640202635058, 0.0],
    [0.43296294009919384, 0.0, 0.1806192327406228, 0.3864178271601834],
]


# `dmb sample --count 8` and `dmb eval --mc-samples 64` on the 3-epoch checkpoint
GOLDEN_SAMPLES = ["3 0 0", "3 2 2", "0 1 0", "3 2 0", "0 2 0", "2 1 3", "2 2 3", "2 2 3"]

GOLDEN_EVAL = """\
j_score        = 34.080614 nats
kl_term        = 0.009961 nats
total          = 34.090575 nats
bits_per_dim   = 16.394101
mc_std_error   = 3.043386 nats
"""


def config_in(out_dir):
    return parse_config_text(CONFIG + f"out_dir = {out_dir}\n")


def metrics_rows(out_dir):
    """metrics.csv without its wall column, which is real time and so differs between runs."""
    with open(out_dir / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row.pop("wall_seconds")) >= 0.0
    return rows


def test_golden_history_and_p0(tmp_path):
    ck = train(config_in(tmp_path))
    assert ck.epoch == 3
    np.testing.assert_allclose(ck.epoch_history, GOLDEN_HISTORY, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(ck.p0_estimate, GOLDEN_P0, rtol=1e-9, atol=1e-15)


def test_cache_chunks_of_a_few_elements_move_no_bit(tmp_path, monkeypatch):
    # the golden shapes fit in one chunk; a budget of a few elements drives
    # every chunked pass (draws, score-entropy terms, Adam) through many
    want = train(config_in(tmp_path / "whole"))
    monkeypatch.setattr(core, "CHUNK_ELEMENTS", 5)
    got = train(config_in(tmp_path / "tiny"))
    assert np.array_equal(got.epoch_history, want.epoch_history)
    assert np.array_equal(got.p0_estimate, want.p0_estimate)
    for a, b in zip(got.score_weights + got.score_biases, want.score_weights + want.score_biases):
        assert np.array_equal(a, b)


def test_kl_term_is_the_matrix_stage_loss(tmp_path, monkeypatch):
    final_losses = []

    def recording_loop(*args, **kwargs):
        fit = matrix_learning_loop(*args, **kwargs)
        final_losses.append(fit.loss_history[-1])
        return fit

    monkeypatch.setattr(training, "matrix_learning_loop", recording_loop)
    ck = train(config_in(tmp_path))
    assert len(final_losses) == ck.epoch == 3
    np.testing.assert_allclose(ck.epoch_history[:, 0], final_losses, rtol=1e-12, atol=0.0)
    with open(tmp_path / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["kl_term"] for row in rows] == [f"{loss:.12g}" for loss in final_losses]


def test_data_marginal_p0_init_starts_from_the_data(tmp_path, monkeypatch):
    p0_seen = []

    def recording_loop(Q, p0, *args, **kwargs):
        p0_seen.append(p0.probs.copy())
        return matrix_learning_loop(Q, p0, *args, **kwargs)

    monkeypatch.setattr(training, "matrix_learning_loop", recording_loop)
    config = parse_config_text(CONFIG + f"out_dir = {tmp_path}\np0_init = data_marginal\nepochs = 1\n")
    train(config)
    want = estimate_marginals(core.state_frequencies(load_dataset(config).samples, config.n)).probs
    assert len(p0_seen) == 1
    np.testing.assert_array_equal(p0_seen[0], want)


def test_bound_below_eps_total_stops_training_early(tmp_path):
    ck = train(parse_config_text(CONFIG + f"out_dir = {tmp_path}\neps_total = 1e30\n"))
    assert ck.epoch == 1
    np.testing.assert_allclose(ck.epoch_history, GOLDEN_HISTORY[:1], rtol=1e-9, atol=0.0)
    assert sorted(os.listdir(tmp_path)) == ["epoch_0001.ckpt", "metrics.csv"]
    assert len(metrics_rows(tmp_path)) == 1


def assert_same_run(got, want):
    assert got.epoch == want.epoch == 3
    for name in ("perms", "a", "p0_estimate", "epoch_history"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got.score_weights + got.score_biases, want.score_weights + want.score_biases, strict=True):
        assert np.array_equal(a, b)
    assert got.rng_state == want.rng_state


def test_resume_matches_uninterrupted(tmp_path):
    # resuming from a full run's first checkpoint redoes its last two epochs
    config = config_in(tmp_path)
    full = train(config)
    want_rows = metrics_rows(tmp_path)
    resumed = train(config, resume_from=str(tmp_path / "epoch_0001.ckpt"))
    assert_same_run(resumed, full)
    assert metrics_rows(tmp_path) == want_rows


def test_fresh_run_is_a_resume_from_epoch_0(tmp_path, monkeypatch):
    # a fresh run restores epoch 0's checkpoint as a resumed run restores its
    # own, so the same state saved to a file and resumed repeats it bit for bit
    restored = []

    def recording_restore(ck):
        restored.append(ck.epoch)
        return restore(ck)

    monkeypatch.setattr(training, "restore", recording_restore)
    config = config_in(tmp_path)
    fresh = train(config)
    want_rows = metrics_rows(tmp_path)
    start = training.initial_checkpoint(config, core.state_frequencies(load_dataset(config).samples, config.n))
    path = str(tmp_path / "epoch_0000.ckpt")
    save_checkpoint(start, path)
    assert load_checkpoint(path).epoch_history.shape == (0, 4)
    assert_same_run(train(config, resume_from=path), fresh)
    assert metrics_rows(tmp_path) == want_rows
    assert restored == [0, 0]


def test_rates_in_either_memory_order_give_one_gradient(tmp_path):
    # at this shape the last bits of the matrix stage's gradient would move
    # with the memory order of the rates, so they are frozen row-major
    config = parse_config_text(f"n = 8\nd = 4\nseed = 1\nout_dir = {tmp_path}\n")
    freqs = core.state_frequencies(load_dataset(config).samples, config.n)
    _, schedule, Q, _, p0 = restore(training.initial_checkpoint(config, freqs))
    by_column = jq_grad(core.FactorizedRateMatrix(Q.perm, np.asfortranarray(Q.a)), p0, freqs, schedule)
    by_row = jq_grad(core.FactorizedRateMatrix(Q.perm, np.ascontiguousarray(Q.a)), p0, freqs, schedule)
    assert by_column[0] == by_row[0] and np.array_equal(by_column[1], by_row[1])


def test_epoch_0_rates_restore_as_built(tmp_path):
    # a saved and restored epoch 0 gives the matrix stage the loss and
    # gradient, to the last bit, of the rates init_rate_matrices builds
    config = parse_config_text(f"n = 8\nd = 4\nseed = 1\nout_dir = {tmp_path}\n")
    freqs = core.state_frequencies(load_dataset(config).samples, config.n)
    path = str(tmp_path / "epoch_0000.ckpt")
    save_checkpoint(training.initial_checkpoint(config, freqs), path)
    _, schedule, Q, _, p0 = restore(load_checkpoint(path))
    uniform = core.ProductDistribution.uniform(config.n, config.d)
    built = init_rate_matrices(permutation_from_data(estimate_marginals(freqs), uniform), config.init_scheme)
    got, want = jq_grad(Q, p0, freqs, schedule), jq_grad(built, p0, freqs, schedule)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


def test_resume_drops_metrics_rows_past_the_checkpoint(tmp_path):
    # a crash after the epoch-2 metrics row but before its checkpoint
    config = config_in(tmp_path)
    train(config)
    want_rows = metrics_rows(tmp_path)
    metrics = tmp_path / "metrics.csv"
    header_and_epoch_1 = metrics.read_text(encoding="utf-8").splitlines(keepends=True)[:2]
    metrics.write_text("".join(header_and_epoch_1) + "2,0.5,0.5,0.5,0.5,0.000\n", encoding="utf-8")
    train(config, resume_from=str(tmp_path / "epoch_0001.ckpt"))
    assert metrics_rows(tmp_path) == want_rows


def test_resume_from_the_final_checkpoint_is_bad_input(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG + f"out_dir = {tmp_path / 'run'}\nepochs = 1\n", encoding="utf-8")
    assert cli(["train", str(config_path)]) == 0
    metrics = tmp_path / "run" / "metrics.csv"
    before = metrics.read_bytes()
    assert cli(["train", str(config_path), "--resume", str(tmp_path / "run" / "epoch_0001.ckpt")]) == 1
    assert "nothing to do" in capsys.readouterr().err
    assert metrics.read_bytes() == before


def test_resume_under_another_config_is_refused(tmp_path):
    # the checkpoint of one config cannot carry on a run of another, and the
    # refusal leaves the run's metrics as they were
    train(parse_config_text(CONFIG + f"out_dir = {tmp_path}\nepochs = 1\n"))
    metrics = tmp_path / "metrics.csv"
    before = metrics.read_bytes()
    other = parse_config_text(CONFIG + f"out_dir = {tmp_path}\nepochs = 2\nseed = 8\n")
    with pytest.raises(ConfigError, match="different configuration"):
        train(other, resume_from=str(tmp_path / "epoch_0001.ckpt"))
    assert metrics.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["epoch_0001.ckpt", "metrics.csv"]


def test_cli_train_sample_eval(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG + f"out_dir = {tmp_path / 'run'}\n", encoding="utf-8")
    assert cli(["train", str(config_path)]) == 0
    ckpt = str(tmp_path / "run" / "epoch_0003.ckpt")
    assert load_checkpoint(ckpt).epoch == 3
    samples = tmp_path / "samples.txt"
    assert cli(["sample", ckpt, "--count", "8", "--out", str(samples)]) == 0
    assert samples.read_text(encoding="utf-8").splitlines() == GOLDEN_SAMPLES
    capsys.readouterr()
    assert cli(["eval", ckpt, "--mc-samples", "64"]) == 0
    assert capsys.readouterr().out == GOLDEN_EVAL
    assert os.path.exists(tmp_path / "run" / "metrics.csv")


@pytest.mark.parametrize("bad_key", [
    "epochs = 0",
    "bogus = 1",
    "sigma_min = -1",
    "sigma_max = 0.01",
    "schedule_kind = cosine",
    "deterministic_timing = true",
    "horizon = 1.0",
    "score_hidden = 0",
    "score_hidden = -5",
    "score_hidden = ",  # no hidden layer at all
])
def test_cli_train_rejects_bad_config(tmp_path, bad_key):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(CONFIG + f"out_dir = {tmp_path}\n{bad_key}\n", encoding="utf-8")
    assert cli(["train", str(config_path)]) == 1
