"""Golden values, resume equality and an end-to-end CLI run of the training loop.

The golden numbers were recorded from a fixed-seed run of this config; a
refactor that is meant to keep behaviour must reproduce them.
"""

import csv
import os

import numpy as np
import pytest

from markov_bridge import load_checkpoint, matrix_learning_loop, parse_config_text, train, training
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
deterministic_timing = true
"""

GOLDEN_HISTORY = [
    [0.01128342926315828, 37.835113273938475, 18.20026961307514, 31.80433805429545],
    [0.011240792106710841, 36.178124169656435, 17.40340578775217, 31.85551811155991],
    [0.010031282148619067, 33.68150304362764, 16.202203163912568, 31.915924267264582],
]

GOLDEN_P0 = [
    [0.328650696004268, 0.0, 0.4496230435146259, 0.22172626048110608],
    [0.15223943370020285, 0.4179488171716759, 0.42981174912812126, 0.0],
    [0.4823422619543917, 0.0, 0.13610483937235143, 0.3815528986732568],
]


# `dmb sample --count 8` and `dmb eval --mc-samples 64` on the 3-epoch checkpoint
GOLDEN_SAMPLES = ["0 0 0", "2 1 2", "0 2 0", "2 1 0", "0 1 0", "2 2 0", "0 1 2", "2 2 3"]

GOLDEN_EVAL = """\
j_score        = 34.383763 nats
kl_term        = 0.010115 nats
total          = 34.393878 nats
bits_per_dim   = 16.539959
mc_std_error   = 3.082198 nats
"""


def config_in(out_dir):
    return parse_config_text(CONFIG + f"out_dir = {out_dir}\n")


def test_golden_history_and_p0(tmp_path):
    ck = train(config_in(tmp_path))
    assert ck.epoch == 3
    np.testing.assert_allclose(ck.epoch_history, GOLDEN_HISTORY, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(ck.p0_estimate, GOLDEN_P0, rtol=1e-9, atol=1e-15)


def test_kl_term_is_the_matrix_stage_loss(tmp_path, monkeypatch):
    final_losses = []

    def recording_loop(*args, **kwargs):
        state = matrix_learning_loop(*args, **kwargs)
        final_losses.append(state.loss_history[-1])
        return state

    monkeypatch.setattr(training, "matrix_learning_loop", recording_loop)
    ck = train(config_in(tmp_path))
    assert len(final_losses) == ck.epoch == 3
    np.testing.assert_allclose(ck.epoch_history[:, 0], final_losses, rtol=1e-12, atol=0.0)
    with open(tmp_path / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["kl_term"] for row in rows] == [f"{loss:.12g}" for loss in final_losses]


def test_resume_matches_uninterrupted(tmp_path):
    full_dir, split_dir = tmp_path / "full", tmp_path / "split"
    full = train(config_in(full_dir))
    config = config_in(split_dir)
    first = train(config, stop_after=1)
    assert first.epoch == 1
    resumed = train(config, resume_from=str(split_dir / "epoch_0001.ckpt"))
    assert resumed.epoch == full.epoch == 3
    for name in ("perms", "a", "p0_estimate", "epoch_history"):
        assert np.array_equal(getattr(resumed, name), getattr(full, name)), name
    for got, want in zip(resumed.score_weights + resumed.score_biases, full.score_weights + full.score_biases):
        assert np.array_equal(got, want)
    assert resumed.rng_state == full.rng_state
    with open(full_dir / "metrics.csv", "rb") as fh_full, open(split_dir / "metrics.csv", "rb") as fh_split:
        assert fh_split.read() == fh_full.read()


def test_resume_drops_metrics_rows_past_the_checkpoint(tmp_path):
    # a crash after the epoch-2 metrics row but before its checkpoint
    full_dir, split_dir = tmp_path / "full", tmp_path / "split"
    train(config_in(full_dir))
    config = config_in(split_dir)
    train(config, stop_after=1)
    with open(split_dir / "metrics.csv", "a", encoding="utf-8") as fh:
        fh.write("2,0.5,0.5,0.5,0.5,0.000\n")
    train(config, resume_from=str(split_dir / "epoch_0001.ckpt"))
    assert (split_dir / "metrics.csv").read_bytes() == (full_dir / "metrics.csv").read_bytes()


def test_cli_train_sample_eval(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DMB_SEED", raising=False)
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
    "score_hidden = 0",
    "score_hidden = -5",
])
def test_cli_train_rejects_bad_config(tmp_path, bad_key):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(CONFIG + f"out_dir = {tmp_path}\n{bad_key}\n", encoding="utf-8")
    assert cli(["train", str(config_path)]) == 1
