"""Checkpoint archives and their damage, CLI exit codes and the bundled self-checks."""

import json
import os
import struct
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from markov_bridge import CheckpointError, DivergenceError, load_checkpoint, load_config, save_checkpoint
import markov_bridge.cli as cli_module
from markov_bridge.checkpoint import Checkpoint, rng_state_to_json
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


def same_checkpoint(got, want):
    """Equal strings and epoch, and arrays equal in dtype, shape and value."""
    arrays = [[ck.perms, ck.a, ck.p0_estimate, ck.epoch_history, *ck.score_weights, *ck.score_biases]
              for ck in (got, want)]
    return (
        (got.config_text, got.epoch, got.rng_state) == (want.config_text, want.epoch, want.rng_state)
        and len(arrays[0]) == len(arrays[1])
        and all(x.dtype == np.asarray(y).dtype and np.array_equal(x, y) and x.shape == np.shape(y)
                for x, y in zip(*arrays))
    )


def rewrite_members(path, **changes):
    """Rewrite the archive at ``path`` with members replaced; a None drops one."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    members.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{name: value for name, value in members.items() if value is not None})


def saved_small_checkpoint(tmp_path):
    ck = small_checkpoint()
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(ck, path)
    return ck, path


class TestCorruptedCheckpoint:
    def test_round_trip(self, tmp_path):
        ck, path = saved_small_checkpoint(tmp_path)
        assert same_checkpoint(load_checkpoint(path), ck)
        with zipfile.ZipFile(path) as archive:
            assert archive.testzip() is None
            # a fixed date on every member: equal checkpoints are equal files
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_every_truncation(self, tmp_path):
        # every length within the central directory and the end record, and every 11th before them
        ck, path = saved_small_checkpoint(tmp_path)
        blob = Path(path).read_bytes()
        directory = struct.unpack_from("<I", blob, len(blob) - 6)[0]
        lengths = sorted(set(range(0, directory, 11)) | set(range(directory, len(blob))))
        for k in lengths:
            Path(path).write_bytes(blob[:k])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_byte_flips(self, tmp_path):
        """No flipped byte loads changed contents: each flip is refused or
        loads what was saved. Every byte of the central directory and the end
        record is flipped, and every 61st byte of the members before them;
        odd positions flip all eight bits, even ones the lowest."""
        ck, path = saved_small_checkpoint(tmp_path)
        blob = Path(path).read_bytes()
        directory = struct.unpack_from("<I", blob, len(blob) - 6)[0]  # the end record's directory offset
        assert blob[directory:directory + 4] == b"PK\x01\x02"
        outcomes = []
        for i in sorted(set(range(0, directory, 61)) | set(range(directory, len(blob)))):
            damaged = bytearray(blob)
            damaged[i] ^= 0xFF if i % 2 else 0x01
            Path(path).write_bytes(damaged)
            try:
                got = load_checkpoint(path)
            except CheckpointError:
                outcomes.append(False)
                continue
            assert same_checkpoint(got, ck), i
            outcomes.append(True)
        # both occur: a damaged timestamp loads, a damaged CRC or name is refused
        assert any(outcomes) and not all(outcomes)

    def test_compression_method_flips(self, tmp_path):
        # zipfile takes each member's method from the central directory; one flipped
        # bit there (0x08 makes it DEFLATED) must not hand raw .npy bytes to a decompressor
        ck, path = saved_small_checkpoint(tmp_path)
        blob = Path(path).read_bytes()
        entry = struct.unpack_from("<I", blob, len(blob) - 6)[0]
        while blob[entry:entry + 4] == b"PK\x01\x02":
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[entry + 10] ^= 1 << bit
                Path(path).write_bytes(damaged)
                with pytest.raises(CheckpointError, match="is not stored uncompressed"):
                    load_checkpoint(path)
            entry += 46 + sum(struct.unpack_from("<3H", blob, entry + 28))  # header, name, extra, comment

    def test_shape_header_disagrees_with_payload(self, tmp_path):
        # an .npy header shape that does not match its payload, with a valid CRC:
        # (2, 3) becomes (1, 3), which leaves bytes past the array, or (3, 3)
        for shape in (b"(1, 3)", b"(3, 3)"):
            ck, path = saved_small_checkpoint(tmp_path)
            with zipfile.ZipFile(path) as archive:
                members = {name: archive.read(name) for name in archive.namelist()}
            assert b"(2, 3)" in members["perms.npy"]
            members["perms.npy"] = members["perms.npy"].replace(b"(2, 3)", shape, 1)
            with zipfile.ZipFile(path, "w") as archive:
                for name, data in members.items():
                    archive.writestr(name, data)
            with pytest.raises(CheckpointError, match="cannot read checkpoint"):
                load_checkpoint(path)

    def test_unknown_dtype_code(self, tmp_path):
        # a member stored with another dtype or rank
        ck, path = saved_small_checkpoint(tmp_path)
        for name, value in [("perms", ck.perms.astype(np.int32)), ("a", ck.a.astype(np.float32)),
                            ("weight_1", ck.score_weights[1].astype(">f8")), ("epoch", np.float64(1.0)),
                            ("config_text", np.bytes_(ck.config_text.encode())), ("layers", np.array([2])),
                            ("bias_0", ck.score_biases[0][None, :])]:
            save_checkpoint(ck, path)
            rewrite_members(path, **{name: value})
            with pytest.raises(CheckpointError, match=f"checkpoint member '{name}' is missing or not a rank-"):
                load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ck, path = saved_small_checkpoint(tmp_path)
        for version in (1, 3):
            rewrite_members(path, version=np.int64(version))
            with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version} "):
                load_checkpoint(path)

    def test_version_one_file_is_refused(self, tmp_path):
        # the length-prefixed container that version 1 wrote: magic, version byte, blocks
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"DMBCHKPT\x01" + struct.pack("<Q", 6) + b"n = 3\n")
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("changes", [
        {"junk": np.zeros(3)},
        {"bias_1": None},
        {"rng_state": None},
        {"layers": np.int64(1)},  # the last layer's two members are left over
        {"layers": np.int64(3)},  # a third layer's two members are missing
        {"layers": np.int64(-1)},
    ])
    def test_other_members_than_the_layers_imply(self, tmp_path, changes):
        ck, path = saved_small_checkpoint(tmp_path)
        rewrite_members(path, **changes)
        with pytest.raises(CheckpointError, match="are not those of"):
            load_checkpoint(path)

    def test_bytes_around_the_archive_leave_its_contents_unchanged(self, tmp_path):
        # zip readers find the archive by its end record, so bytes around it load the same contents
        ck, path = saved_small_checkpoint(tmp_path)
        blob = Path(path).read_bytes()
        for framed in (blob + b"junk", b"junk" + blob):
            Path(path).write_bytes(framed)
            assert same_checkpoint(load_checkpoint(path), ck)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(str(tmp_path))


class TestCrashSafeSave:
    """A save that fails part way leaves the previous file whole and nothing else."""

    def check_failed_save_keeps_previous(self, tmp_path, next_checkpoint, break_save=lambda: None):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(small_checkpoint(seed=0), path)
        break_save()
        with pytest.raises((ValueError, OSError)):
            save_checkpoint(next_checkpoint, path)
        assert same_checkpoint(load_checkpoint(path), small_checkpoint(seed=0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]

    def test_serialization_error(self, tmp_path):
        broken = small_checkpoint(seed=1)
        # the last bias does not convert to float64, so the save fails
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
        _, path = saved_small_checkpoint(tmp_path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) // 2])
        assert cli(["eval", path]) == 1

    @pytest.mark.parametrize("damage", [
        lambda ck: ck.perms.__setitem__(0, [0, 0, 1]),  # not a permutation
        lambda ck: ck.a.__setitem__((1, 0), np.nan),
        lambda ck: ck.score_weights.__setitem__(0, np.ascontiguousarray(ck.score_weights[0].T)),
        lambda ck: setattr(ck, "p0_estimate", np.full((3, 3), 1.0 / 3.0)),  # one row too many
        lambda ck: ck.perms.__setitem__(1, [0, 1, 7]),  # a state outside 0..n-1
        lambda ck: ck.score_weights[0].__setitem__((2, 5), np.nan),
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
    def test_resume_from_damaged_rng_state(self, tmp_path, capsys, rng_state, code):
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
    def test_epoch_history_without_one_row_per_epoch_is_bad_input(self, tmp_path, capsys, shape):
        # the checkpoint is at epoch 1, so its history must be (1, 4)
        ck = small_checkpoint()
        config_path = resume_config(tmp_path, ck)
        ck.epoch_history = np.zeros(shape)
        path = tmp_path / "epoch_0001.ckpt"
        save_checkpoint(ck, str(path))
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

    def test_train_with_one_monte_carlo_sample_is_bad_input(self, tmp_path, capsys):
        # refused before any work, not after a whole epoch
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"n = 4\nd = 2\nmc_samples = 1\nout_dir = {tmp_path / 'run'}\n", encoding="utf-8")
        assert cli(["train", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith("error: mc_samples must be >= 2")
        assert not (tmp_path / "run").exists()

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
        (tmp_path / "empty.txt").write_text(" \n", encoding="utf-8")
        assert cli(["solve", str(tmp_path / "empty.txt"), str(tmp_path / "q.txt")]) == 1
        assert "no entries" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, message", [
        (DivergenceError("row total overflows"), "runtime failure: row total overflows"),
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

    @pytest.mark.parametrize("p, code", [("0.2 0.3 0.5", 0), ("0.5 0.6", 1)])
    def test_main_exits_with_the_code_of_its_command(self, tmp_path, capsys, monkeypatch, p, code):
        (tmp_path / "p.txt").write_text(p + "\n", encoding="utf-8")
        (tmp_path / "q.txt").write_text("0.5 0.25 0.25\n", encoding="utf-8")
        monkeypatch.setattr(sys, "argv", ["dmb", "solve", str(tmp_path / "p.txt"), str(tmp_path / "q.txt")])
        with pytest.raises(SystemExit) as exit_info:
            cli_module.main()
        assert exit_info.value.code == code

    def test_missing_checkpoint_is_bad_input(self, tmp_path):
        assert cli(["sample", str(tmp_path / "absent.ckpt")]) == 1

    def test_sample_to_an_unwritable_path_is_bad_input(self, tmp_path, capsys):
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(small_checkpoint(), path)
        for out in (tmp_path, tmp_path / "missing" / "x.txt"):
            assert cli(["sample", path, "--count", "2", "--steps", "1", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write samples to {str(out)!r}"), err

    def test_train_into_an_out_dir_that_is_a_file_is_bad_input(self, tmp_path, capsys):
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
        assert "FAIL" not in out and out.count("[PASS]") == 7
