"""Checkpoint decoding of damaged files, CLI exit codes and the bundled self-checks."""

import json
import os
import struct

import numpy as np
import pytest

from markov_bridge import CheckpointError, DivergenceError, load_checkpoint, load_config, save_checkpoint
import markov_bridge.cli as cli_module
from markov_bridge.checkpoint import (
    Checkpoint,
    _pack_array,
    deserialize_checkpoint,
    rng_state_to_json,
    serialize_checkpoint,
)
from markov_bridge.cli import cli
from markov_bridge.training import restore
from markov_bridge.config import config_echo


def small_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    n, d, hidden = 3, 2, 4
    sizes = [d * n + 16, hidden, d * n]
    return Checkpoint(
        config_text=f"n = {n}\nd = {d}\nseed = 1\nsynthetic_samples = 50\nscore_hidden = {hidden}\n",
        epoch=1,
        perms=np.stack([rng.permutation(n) for _ in range(d)]),
        a=rng.uniform(0.1, 1.0, (d, n - 1)),
        p0_estimate=np.full((d, n), 1.0 / n),
        score_weights=[rng.normal(0.0, 0.1, (o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        score_biases=[np.zeros(o) for o in sizes[1:]],
        rng_state=rng_state_to_json(rng),
        epoch_history=np.zeros((1, 4)),
    )


def resume_config(tmp_path, ck):
    """Write a two-epoch config for ``ck`` and make it the checkpoint's own."""
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        ck.config_text
        + "epochs = 2\nmax_step_matrix = 2\nmax_step_score = 2\nmu_trajectories = 8\n"
        + f"sampler_steps = 2\nmc_samples = 8\nout_dir = {tmp_path / 'run'}\n",
        encoding="utf-8",
    )
    ck.config_text = config_echo(load_config(str(config_path)))
    return str(config_path)


def loads_or_checkpoint_error(blob):
    try:
        deserialize_checkpoint(blob)
    except CheckpointError:
        return False
    return True


class TestCorruptedCheckpoint:
    def test_round_trip(self):
        ck = small_checkpoint()
        blob = serialize_checkpoint(ck)
        assert serialize_checkpoint(deserialize_checkpoint(blob)) == blob

    def test_every_truncation(self):
        blob = serialize_checkpoint(small_checkpoint())
        loaded = [loads_or_checkpoint_error(blob[:k]) for k in range(len(blob))]
        assert not any(loaded)

    def test_byte_flips(self):
        blob = serialize_checkpoint(small_checkpoint())
        rng = np.random.default_rng(2)
        outcomes = []
        for _ in range(600):
            damaged = bytearray(blob)
            damaged[int(rng.integers(0, len(blob)))] ^= int(rng.integers(1, 256))
            outcomes.append(loads_or_checkpoint_error(bytes(damaged)))
        # both outcomes occur: payload bytes load, framing bytes are refused
        assert any(outcomes) and not all(outcomes)

    @staticmethod
    def perms_payload(ck):
        """Offset of the perms array's payload: magic, version, the config
        text block and the epoch block come first, then the perms length."""
        return 9 + (8 + len(ck.config_text.encode("utf-8"))) + (8 + 8) + 8

    def test_unsupported_version(self):
        blob = bytearray(serialize_checkpoint(small_checkpoint()))
        blob[8] = 2
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
            deserialize_checkpoint(bytes(blob))

    def test_unknown_dtype_code(self):
        ck = small_checkpoint()
        blob = bytearray(serialize_checkpoint(ck))
        start = self.perms_payload(ck)
        assert blob[start] == 0  # int64
        blob[start] = 7
        with pytest.raises(CheckpointError, match="unknown dtype code 7"):
            deserialize_checkpoint(bytes(blob))

    def test_shape_header_disagrees_with_payload(self):
        ck = small_checkpoint()
        blob = bytearray(serialize_checkpoint(ck))
        start = self.perms_payload(ck)
        # dtype code, ndim, then the first extent: (2, 3) becomes (3, 3)
        assert struct.unpack_from("<BBQ", blob, start) == (0, 2, 2)
        struct.pack_into("<Q", blob, start + 2, 3)
        with pytest.raises(CheckpointError, match="corrupted checkpoint"):
            deserialize_checkpoint(bytes(blob))

    def test_bytes_after_the_last_block(self):
        blob = serialize_checkpoint(small_checkpoint())
        with pytest.raises(CheckpointError, match="after the last checkpoint block"):
            deserialize_checkpoint(blob + b"junk")


class TestCrashSafeSave:
    """A save that fails part way leaves the previous file whole and nothing else."""

    def check_failed_save_keeps_previous(self, tmp_path, next_checkpoint, break_save=lambda: None):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(small_checkpoint(seed=0), path)
        break_save()
        with pytest.raises((ValueError, OSError)):
            save_checkpoint(next_checkpoint, path)
        assert serialize_checkpoint(load_checkpoint(path)) == serialize_checkpoint(small_checkpoint(seed=0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]

    def test_serialization_error(self, tmp_path):
        broken = small_checkpoint(seed=1)
        # the last block does not convert to float64, so serialization fails late
        broken.score_biases[-1] = np.array(["not a number"] * broken.score_biases[-1].size)
        self.check_failed_save_keeps_previous(tmp_path, broken)

    def test_write_error(self, tmp_path, monkeypatch):
        real_fsync = os.fsync

        def fsync_then_fail(fd):
            real_fsync(fd)
            raise OSError("no space left on device")

        self.check_failed_save_keeps_previous(
            tmp_path,
            small_checkpoint(seed=1),
            lambda: monkeypatch.setattr(os, "fsync", fsync_then_fail),
        )


def test_restore_builds_the_model_without_drawing_weights(monkeypatch):
    ck = small_checkpoint()

    def no_draws(*args, **kwargs):
        raise AssertionError("restore drew weights it then overwrites")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    _, _, Q, model, _ = restore(ck)
    for got, saved in zip(model.weights + model.biases, ck.score_weights + ck.score_biases):
        assert np.array_equal(got, saved) and not np.shares_memory(got, saved)
    assert model.weights[0].flags.f_contiguous  # the first layer gathers columns of W1
    assert np.array_equal(Q.perm, ck.perms) and np.array_equal(Q.a, ck.a)


class TestCliExitCodes:
    def test_eval_of_good_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(small_checkpoint(), path)
        assert cli(["eval", path, "--mc-samples", "32"]) == 0
        assert cli(["sample", path, "--count", "4", "--steps", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5 + 4

    def test_eval_of_truncated_checkpoint_is_bad_input(self, tmp_path):
        blob = serialize_checkpoint(small_checkpoint())
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[: len(blob) // 2])
        assert cli(["eval", str(path)]) == 1

    @pytest.mark.parametrize("damage", [
        lambda ck: ck.perms.__setitem__(0, [0, 0, 1]),  # not a permutation
        lambda ck: ck.a.__setitem__((1, 0), np.nan),
        lambda ck: ck.score_weights.__setitem__(0, np.ascontiguousarray(ck.score_weights[0].T)),
        lambda ck: setattr(ck, "p0_estimate", np.full((3, 3), 1.0 / 3.0)),  # one row too many
        lambda ck: ck.perms.__setitem__(1, [0, 1, 7]),  # a state outside 0..n-1
    ])
    def test_checkpoint_that_loads_but_is_invalid_is_bad_input(self, tmp_path, damage):
        ck = small_checkpoint()
        damage(ck)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(ck, path)
        assert load_checkpoint(path).epoch == 1
        assert cli(["eval", path]) == 1
        assert cli(["sample", path]) == 1

    def test_checkpoint_config_that_no_longer_parses_is_bad_input(self, tmp_path, capsys):
        ck = small_checkpoint()
        ck.config_text += "schedule_kind = linear\n"  # a key that configurations no longer have
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(ck, path)
        assert cli(["eval", path]) == 1
        assert "the checkpoint's configuration does not parse" in capsys.readouterr().err

    @pytest.mark.parametrize("rng_state, code", [
        (None, 0),  # the saved state, to show that only the damage fails the resume
        ("{not json", 1),
        (json.dumps(np.random.PCG64DXSM(0).state), 1),  # another generator's state
    ])
    def test_resume_from_damaged_rng_state(self, tmp_path, monkeypatch, capsys, rng_state, code):
        monkeypatch.delenv("DMB_SEED", raising=False)
        ck = small_checkpoint()
        config_path = resume_config(tmp_path, ck)
        if rng_state is not None:
            ck.rng_state = rng_state
        path = str(tmp_path / "epoch_0001.ckpt")
        save_checkpoint(ck, path)
        assert cli(["train", config_path, "--resume", path]) == code
        err = capsys.readouterr().err
        assert "runtime failure" not in err
        assert ("no valid generator state" in err) == (code == 1)

    @pytest.mark.parametrize("shape", [(1, 3), (0, 4), (5, 4)])
    def test_epoch_history_without_one_row_per_epoch_is_bad_input(self, tmp_path, monkeypatch, capsys, shape):
        # the checkpoint is at epoch 1, so its history must be (1, 4)
        monkeypatch.delenv("DMB_SEED", raising=False)
        ck = small_checkpoint()
        config_path = resume_config(tmp_path, ck)
        blob = serialize_checkpoint(ck)
        # serialization reshapes a history to rows of 4, so swap the last block by hand
        tail = len(_pack_array(ck.epoch_history))
        path = tmp_path / "epoch_0001.ckpt"
        path.write_bytes(blob[:-tail] + _pack_array(np.zeros(shape)))
        assert load_checkpoint(str(path)).epoch_history.shape == shape
        assert cli(["train", config_path, "--resume", str(path)]) == 1
        assert cli(["eval", str(path)]) == 1
        err = capsys.readouterr().err
        assert "runtime failure" not in err and err.count("error:") == 2
        assert not (tmp_path / "run" / "epoch_0002.ckpt").exists()

    def test_corpus_with_more_distinct_bytes_than_n_is_bad_input(self, tmp_path, capsys):
        (tmp_path / "corpus.txt").write_bytes(b"0123456789" * 4)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"dataset = char_corpus\ncorpus_path = {tmp_path / 'corpus.txt'}\nn = 4\nd = 2\n"
            f"out_dir = {tmp_path / 'run'}\n",
            encoding="utf-8",
        )
        assert cli(["train", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus has 10 distinct bytes but n = 4")

    def test_solve(self, tmp_path, capsys):
        (tmp_path / "p.txt").write_text("0.2 0.3 0.5\n", encoding="utf-8")
        (tmp_path / "q.txt").write_text("0.5 0.25 0.25\n", encoding="utf-8")
        (tmp_path / "bad.txt").write_text("0.5 0.6\n", encoding="utf-8")
        (tmp_path / "two.txt").write_text("0.5 0.5\n", encoding="utf-8")
        assert cli(["solve", str(tmp_path / "p.txt"), str(tmp_path / "q.txt")]) == 0
        residual = float(capsys.readouterr().out.split("residual =")[1])
        assert residual <= 1e-12
        assert cli(["solve", str(tmp_path / "bad.txt"), str(tmp_path / "q.txt")]) == 1
        assert cli(["solve", str(tmp_path / "p.txt"), str(tmp_path / "two.txt")]) == 1

    def test_solve_of_an_unreadable_or_non_numeric_vector_is_bad_input(self, tmp_path, capsys):
        (tmp_path / "q.txt").write_text("0.5 0.5\n", encoding="utf-8")
        (tmp_path / "words.txt").write_text("0.5 half\n", encoding="utf-8")
        assert cli(["solve", str(tmp_path), str(tmp_path / "q.txt")]) == 1  # a directory
        assert "cannot read vector file" in capsys.readouterr().err
        assert cli(["solve", str(tmp_path / "words.txt"), str(tmp_path / "q.txt")]) == 1
        assert "non-numeric entry" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, message", [
        (DivergenceError("Euler row total overflows"), "runtime failure: Euler row total overflows"),
        (RuntimeError("boom"), "runtime failure: RuntimeError: boom"),
    ])
    def test_failure_inside_a_command_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys, exc, message):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(small_checkpoint(), path)

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli_module, "generate", fail)
        assert cli(["sample", path, "--count", "4"]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_solve_accepts_a_sum_off_by_less_than_the_tolerance(self, tmp_path, capsys):
        # 1 + 5e-10 is a valid probability vector, so the solver must not refuse it
        (tmp_path / "p.txt").write_text("0.3 0.7000000005\n", encoding="utf-8")
        (tmp_path / "q.txt").write_text("0.5 0.5\n", encoding="utf-8")
        assert cli(["solve", str(tmp_path / "p.txt"), str(tmp_path / "q.txt")]) == 0
        assert float(capsys.readouterr().out.split("residual =")[1]) <= 1e-9

    @pytest.mark.parametrize("p, q, message", [
        ("0 1", "0.5 0.5", "target prefix mass is exactly zero"),
        ("0.5 0.5", "0 1", "target has mass at state 0 of dimension 0"),
    ])
    def test_solve_of_an_unsolvable_pair_is_bad_input(self, tmp_path, capsys, p, q, message):
        (tmp_path / "p.txt").write_text(p + "\n", encoding="utf-8")
        (tmp_path / "q.txt").write_text(q + "\n", encoding="utf-8")
        assert cli(["solve", str(tmp_path / "p.txt"), str(tmp_path / "q.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no bridge from ") and message in err

    def test_missing_checkpoint_is_bad_input(self, tmp_path):
        assert cli(["sample", str(tmp_path / "absent.ckpt")]) == 1

    def test_sample_to_an_unwritable_path_is_bad_input(self, tmp_path, capsys):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(small_checkpoint(), path)
        for out in (tmp_path, tmp_path / "missing" / "x.txt"):
            assert cli(["sample", path, "--count", "2", "--steps", "1", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write samples to {str(out)!r}"), err

    def test_train_into_an_out_dir_that_is_a_file_is_bad_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DMB_SEED", raising=False)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"n = 3\nd = 2\nsynthetic_samples = 20\nout_dir = {taken}\n", encoding="utf-8")
        assert cli(["train", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create out_dir {str(taken)!r}"), err
        assert taken.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["eval"],
        ["sample", "CKPT", "--count", "0"],
        ["sample", "CKPT", "--count", "-1"],
        ["sample", "CKPT", "--count", "two"],
        ["sample", "CKPT", "--steps", "0"],
        ["eval", "CKPT", "--mc-samples", "0"],
        ["eval", "CKPT", "--mc-samples", "1"],
    ])
    def test_usage_errors(self, argv, tmp_path, capsys):
        # CKPT names a good checkpoint, so only the bad value can fail
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(small_checkpoint(), path)
        assert cli([path if arg == "CKPT" else arg for arg in argv]) == 1
        assert "runtime failure" not in capsys.readouterr().err

    def test_selftest_passes(self, capsys):
        assert cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("[PASS]") == 6
