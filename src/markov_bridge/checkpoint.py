"""Checkpoints in numpy's uncompressed ``.npz`` container.

One stored zip member (an ``.npy`` array, as ``np.savez`` writes it) per
field, each dated 1980-01-01 so that equal checkpoints are equal files:

- ``version`` (2), ``epoch``, ``layers``: 0-d int64. ``layers`` counts the
  MLP layers, so an archive whose damaged directory hides some entries
  does not read as a smaller, consistent network;
- ``config_text``, ``rng_state``: 0-d unicode;
- ``perms``: (d, n) int64;
- ``a`` (d, n-1), ``p0_estimate`` (d, n), ``epoch_history`` (epoch, 4),
  and for k < layers ``weight_<k>`` (fan_out, fan_in) and ``bias_<k>``
  (fan_out,): float64.

Every member is read to its end, so zip's CRC-32 covers all of it: a
damaged or truncated file raises CheckpointError instead of loading changed
contents, as do another version, other members, and a compressed member or
one of another dtype or rank. ``training.restore`` checks the shapes.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

VERSION = 2

# each member's dtype.str (its prefix, for text) and rank, apart from the layers'
_FIELDS = {"version": ("<i8", 0), "epoch": ("<i8", 0), "layers": ("<i8", 0), "config_text": ("<U", 0),
           "rng_state": ("<U", 0), "perms": ("<i8", 2), "a": ("<f8", 2), "p0_estimate": ("<f8", 2),
           "epoch_history": ("<f8", 2)}
# what a damaged zip or .npy header raises while it is read
_READ_ERRORS = (OSError, EOFError, ValueError, KeyError, RuntimeError, NotImplementedError, zipfile.BadZipFile)


@dataclass(eq=False)
class Checkpoint:
    """Everything needed to resume or sample: parameters, estimates, RNG state."""

    config_text: str
    epoch: int
    perms: np.ndarray          # (d, n) int64
    a: np.ndarray              # (d, n-1) float64
    p0_estimate: np.ndarray    # (d, n) float64
    score_weights: list
    score_biases: list
    rng_state: str             # canonical JSON of the generator state
    epoch_history: np.ndarray  # (k, 4) float64: kl_term, j_score, elbo_bpd, kl_mu


def _fields(layers: int) -> dict:
    return {**_FIELDS, **{f"{kind}_{k}": ("<f8", rank) for k in range(layers)
                          for kind, rank in (("weight", 2), ("bias", 1))}}


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    """Write ``ck`` to ``path`` so that a crash mid-save never damages it:
    the archive goes to ``path + ".tmp"``, is flushed to disk, and only then
    replaces ``path`` in one rename; on any failure the temp file is removed
    and the previous file at ``path`` is left as it was."""
    tmp = path + ".tmp"
    try:
        layers = len(ck.score_weights)
        values = {"version": VERSION, "layers": layers, **vars(ck)}
        for k, (w, b) in enumerate(zip(ck.score_weights, ck.score_biases, strict=True)):
            values[f"weight_{k}"], values[f"bias_{k}"] = w, b
        with open(tmp, "wb") as fh:
            with zipfile.ZipFile(fh, "w") as archive:
                for name, (dtype, _) in _fields(layers).items():
                    with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as out:
                        np.lib.format.write_array(out, np.asarray(values[name], dtype=dtype), allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_members(path: str) -> dict:
    """Every member of the archive at ``path``, each read to its last byte:
    ``np.load`` stops where the array header says the data ends, so a
    damaged header that shortens a large member would skip its CRC check."""
    members = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:  # refused before a decompressor sees raw bytes
                raise ValueError(f"member {info.filename!r} is not stored uncompressed")
            with archive.open(info) as fh:
                members[info.filename.removesuffix(".npy")] = np.lib.format.read_array(fh, allow_pickle=False)
                if fh.read(1):
                    raise ValueError(f"member {info.filename!r} holds bytes past its array")
    return members


def _member(members: dict, name: str, dtype: str, rank: int) -> np.ndarray:
    value = members.get(name)
    if value is None or not value.dtype.str.startswith(dtype) or value.ndim != rank:
        raise CheckpointError(f"checkpoint member {name!r} is missing or not a rank-{rank} {dtype} array")
    return value


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint at ``path``. A file that cannot be read, is damaged or
    truncated, has another version, or holds other members, dtypes or ranks
    than ``layers`` implies raises CheckpointError."""
    try:
        members = _read_members(path)
    except _READ_ERRORS as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {type(exc).__name__}: {exc}") from exc
    version = int(_member(members, "version", *_FIELDS["version"]))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
    layers = int(_member(members, "layers", *_FIELDS["layers"]))
    fields = _fields(layers) if 0 <= layers <= len(members) else {}
    if set(members) != set(fields):
        raise CheckpointError(f"checkpoint members {sorted(members)} are not those of {layers} layers")
    ck = {name: _member(members, name, *kind) for name, kind in fields.items()}
    return Checkpoint(
        config_text=str(ck["config_text"]), epoch=int(ck["epoch"]), rng_state=str(ck["rng_state"]),
        perms=ck["perms"], a=ck["a"], p0_estimate=ck["p0_estimate"], epoch_history=ck["epoch_history"],
        score_weights=[ck[f"weight_{k}"] for k in range(layers)],
        score_biases=[ck[f"bias_{k}"] for k in range(layers)],
    )


def rng_state_to_json(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def rng_from_json(state: str) -> np.random.Generator:
    """The generator a checkpoint saved; a damaged or foreign state raises CheckpointError."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = json.loads(state)
    except (ValueError, TypeError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise CheckpointError(f"checkpoint holds no valid generator state: {exc}") from exc
    return rng
