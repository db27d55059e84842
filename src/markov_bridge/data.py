"""Dataset ingestion: seeded synthetic draws from a factorized ground truth,
or a byte-level character corpus chunked into fixed-length tuples.

States are held in the narrowest unsigned type that holds n - 1
(``np.min_scalar_type``): one byte each for n <= 256. The synthetic draws
come from ``core.draw_columns``, the same numbers as one ``rng.choice`` per
dimension. A corpus is read once into a byte array; its alphabet (every
distinct byte, in ascending order) numbers the states, and a 256-entry
lookup table maps bytes to state ids. The bytes are counted and looked up
one memory block at a time, so a load holds the file's bytes, the samples
and a block's index, never a wider copy of the whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import ProductDistribution, draw_columns, row_blocks
from .errors import ConfigError, VocabularyOverflowError

_DATA_SALT = 0x5EED


@dataclass(eq=False)
class Dataset:
    """Samples of shape (N, d), in the narrowest unsigned type that holds
    n - 1, plus optional vocab and ground truth."""

    samples: np.ndarray
    n: int
    vocab: dict | None = None
    ground_truth: ProductDistribution | None = None

    @property
    def d(self) -> int:
        return int(self.samples.shape[1])

    @property
    def size(self) -> int:
        return int(self.samples.shape[0])

    def decode(self, rows) -> list:
        """Rows back to strings (char mode) or space-joined ints (synthetic).

        In char mode each state is its corpus byte read as latin-1; a state
        that no corpus byte maps to (the corpus has fewer than n distinct
        bytes) decodes as U+FFFD.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        if self.vocab is None:
            return [" ".join(str(v) for v in row) for row in rows]
        chars = ["\ufffd"] * self.n
        for byte, idx in self.vocab.items():
            chars[idx] = chr(byte)
        return ["".join(chars[v] for v in row) for row in rows]


def synthetic_ground_truth(n: int, d: int, seed: int) -> ProductDistribution:
    """Random factorized target with every state bounded away from zero."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _DATA_SALT]))
    rows = 0.85 * rng.dirichlet(2.0 * np.ones(n), size=d) + 0.15 / n
    rows /= rows.sum(axis=1, keepdims=True)
    return ProductDistribution(rows)


def read_corpus(config: RunConfig) -> tuple:
    """The corpus file as a uint8 array and its vocabulary, ``(bytes, vocab)``.

    The vocabulary maps every distinct byte of the whole file to its rank
    among them, so bytes past the last full tuple count too. An unreadable
    or empty file is a ConfigError, more distinct bytes than ``config.n`` a
    VocabularyOverflowError.
    """
    try:
        with open(config.corpus_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {config.corpus_path!r}: {exc}") from exc
    if not raw:
        raise ConfigError("corpus file is empty")
    buf = np.frombuffer(raw, dtype=np.uint8)
    counts = np.zeros(256, dtype=np.int64)
    for part in row_blocks(buf.size, 1):
        counts += np.bincount(buf[part], minlength=256)
    alphabet = np.flatnonzero(counts)
    if alphabet.size > config.n:
        raise VocabularyOverflowError(f"corpus has {alphabet.size} distinct bytes but n = {config.n}")
    return buf, {int(byte): idx for idx, byte in enumerate(alphabet)}


def load_dataset(config: RunConfig) -> Dataset:
    """Materialize the dataset the config describes.

    Synthetic: ``config.synthetic_samples`` draws from the seeded ground
    truth on the data stream. Char corpus: the file's state ids cut into
    length-d tuples, a trailing partial tuple dropped.
    """
    if config.dataset == "synthetic":
        truth = synthetic_ground_truth(config.n, config.d, config.seed)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _DATA_SALT, 1]))
        samples = draw_columns(truth.probs, config.synthetic_samples, rng)
        return Dataset(samples=samples, n=config.n, ground_truth=truth)
    # RunConfig.validate admits no other kind: a char corpus
    buf, vocab = read_corpus(config)
    usable = (buf.size // config.d) * config.d
    if usable == 0:
        raise ConfigError(f"corpus shorter than one length-{config.d} tuple")
    ids = np.zeros(256, dtype=np.min_scalar_type(config.n - 1))
    ids[list(vocab)] = np.arange(len(vocab))
    samples = np.empty(usable, dtype=ids.dtype)
    for part in row_blocks(usable, 1):  # each block's bytes widen to an intp index
        np.take(ids, buf[part], out=samples[part])
    return Dataset(samples=samples.reshape(-1, config.d), n=config.n, vocab=vocab)
