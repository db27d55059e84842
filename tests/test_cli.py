"""Checkpoint decoding of damaged files, CLI exit codes and the bundled self-checks."""

import os

import numpy as np
import pytest

from markov_bridge import CheckpointError, load_checkpoint, save_checkpoint
from markov_bridge.checkpoint import Checkpoint, deserialize_checkpoint, rng_state_to_json, serialize_checkpoint
from markov_bridge.cli import cli


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
    ])
    def test_checkpoint_that_loads_but_is_invalid_is_bad_input(self, tmp_path, damage):
        ck = small_checkpoint()
        damage(ck)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(ck, path)
        assert load_checkpoint(path).epoch == 1
        assert cli(["eval", path]) == 1
        assert cli(["sample", path]) == 1

    def test_solve(self, tmp_path, capsys):
        (tmp_path / "p.txt").write_text("0.2 0.3 0.5\n", encoding="utf-8")
        (tmp_path / "q.txt").write_text("0.5 0.25 0.25\n", encoding="utf-8")
        (tmp_path / "bad.txt").write_text("0.5 0.6\n", encoding="utf-8")
        assert cli(["solve", str(tmp_path / "p.txt"), str(tmp_path / "q.txt")]) == 0
        residual = float(capsys.readouterr().out.split("residual =")[1])
        assert residual <= 1e-12
        assert cli(["solve", str(tmp_path / "bad.txt"), str(tmp_path / "q.txt")]) == 1

    def test_missing_checkpoint_is_bad_input(self, tmp_path):
        assert cli(["sample", str(tmp_path / "absent.ckpt")]) == 1

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
