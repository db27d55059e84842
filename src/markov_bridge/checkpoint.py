"""Length-prefixed binary checkpoint container.

Layout: 8-byte magic, 1 version byte, then a fixed sequence of blocks, each a
little-endian u64 length followed by the payload; no bytes follow the last
block. Arrays carry an explicit dtype tag and shape so the round trip is
byte-exact on any host.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

MAGIC = b"DMBCHKPT"
VERSION = 1

_DTYPES = {0: "<i8", 1: "<f8"}
_DTYPE_CODES = {np.dtype("int64"): 0, np.dtype("float64"): 1}


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


def _pack_block(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


def _pack_array(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    code = _DTYPE_CODES[arr.dtype]
    header = struct.pack("<BB", code, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return _pack_block(header + arr.astype(_DTYPES[code]).tobytes())


def _pack_text(text: str) -> bytes:
    return _pack_block(text.encode("utf-8"))


def _pack_u64(value: int) -> bytes:
    return _pack_block(struct.pack("<Q", value))


class _Reader:
    def __init__(self, blob: bytes, offset: int):
        self.blob = blob
        self.offset = offset

    def block(self) -> bytes:
        if self.offset + 8 > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        (length,) = struct.unpack_from("<Q", self.blob, self.offset)
        self.offset += 8
        if self.offset + length > len(self.blob):
            raise CheckpointError("truncated checkpoint block")
        payload = self.blob[self.offset : self.offset + length]
        self.offset += length
        return payload

    def text(self) -> str:
        return self.block().decode("utf-8")

    def u64(self) -> int:
        return struct.unpack("<Q", self.block())[0]

    def array(self) -> np.ndarray:
        payload = self.block()
        code, ndim = struct.unpack_from("<BB", payload, 0)
        shape = struct.unpack_from(f"<{ndim}Q", payload, 2)
        if code not in _DTYPES:
            raise CheckpointError(f"unknown dtype code {code}")
        data = np.frombuffer(payload, dtype=_DTYPES[code], offset=2 + 8 * ndim)
        return data.reshape(shape).copy()


def serialize_checkpoint(ck: Checkpoint) -> bytes:
    parts = [MAGIC, bytes([VERSION])]
    parts.append(_pack_text(ck.config_text))
    parts.append(_pack_u64(ck.epoch))
    parts.append(_pack_array(np.asarray(ck.perms, dtype=np.int64)))
    parts.append(_pack_array(np.asarray(ck.a, dtype=np.float64)))
    parts.append(_pack_array(np.asarray(ck.p0_estimate, dtype=np.float64)))
    parts.append(_pack_u64(len(ck.score_weights)))
    for w, b in zip(ck.score_weights, ck.score_biases):
        parts.append(_pack_array(np.asarray(w, dtype=np.float64)))
        parts.append(_pack_array(np.asarray(b, dtype=np.float64)))
    parts.append(_pack_text(ck.rng_state))
    parts.append(_pack_array(np.asarray(ck.epoch_history, dtype=np.float64).reshape(-1, 4)))
    return b"".join(parts)


def deserialize_checkpoint(blob: bytes) -> Checkpoint:
    if len(blob) < 9 or blob[:8] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = blob[8]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
    reader = _Reader(blob, 9)
    try:
        config_text = reader.text()
        epoch = reader.u64()
        perms = reader.array()
        a = reader.array()
        p0 = reader.array()
        layers = reader.u64()
        weights, biases = [], []
        for _ in range(layers):
            weights.append(reader.array())
            biases.append(reader.array())
        rng_state = reader.text()
        history = reader.array()
    except (ValueError, struct.error) as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"corrupted checkpoint: {exc}") from exc
    if reader.offset != len(blob):
        raise CheckpointError(f"{len(blob) - reader.offset} unexpected bytes after the last checkpoint block")
    return Checkpoint(
        config_text=config_text,
        epoch=epoch,
        perms=perms,
        a=a,
        p0_estimate=p0,
        score_weights=weights,
        score_biases=biases,
        rng_state=rng_state,
        epoch_history=history,
    )


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    """Write ``ck`` to ``path`` so that a crash mid-save never damages it.

    The bytes go to ``path + ".tmp"`` in the same directory, are flushed to
    disk, and only then replace ``path`` in one rename; on any failure the
    temp file is removed and the previous file at ``path`` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        blob = serialize_checkpoint(ck)
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    return deserialize_checkpoint(blob)


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
