"""Dataset ingestion: seeded synthetic draws from a factorized ground truth,
or a byte-level character corpus chunked into fixed-length tuples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import ProductDistribution
from .errors import ConfigError, VocabularyOverflowError

_DATA_SALT = 0x5EED


@dataclass(eq=False)
class Dataset:
    """Integer samples of shape (N, d) plus optional vocab and ground truth."""

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


def load_dataset(config: RunConfig) -> Dataset:
    """Materialize the dataset the config describes."""
    if config.dataset == "synthetic":
        truth = synthetic_ground_truth(config.n, config.d, config.seed)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _DATA_SALT, 1]))
        samples = np.stack(
            [rng.choice(config.n, size=config.synthetic_samples, p=row) for row in truth.probs],
            axis=1,
        ).astype(np.int64)
        return Dataset(samples=samples, n=config.n, ground_truth=truth)
    if config.dataset == "char_corpus":
        try:
            with open(config.corpus_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read corpus {config.corpus_path!r}: {exc}") from exc
        if not raw:
            raise ConfigError("corpus file is empty")
        alphabet = sorted(set(raw))
        if len(alphabet) > config.n:
            raise VocabularyOverflowError(
                f"corpus has {len(alphabet)} distinct bytes but n = {config.n}"
            )
        vocab = {byte: idx for idx, byte in enumerate(alphabet)}
        ids = np.array([vocab[b] for b in raw], dtype=np.int64)
        usable = (ids.size // config.d) * config.d
        if usable == 0:
            raise ConfigError(f"corpus shorter than one length-{config.d} tuple")
        samples = ids[:usable].reshape(-1, config.d)
        return Dataset(samples=samples, n=config.n, vocab=vocab)
    raise ConfigError(f"unknown dataset kind {config.dataset!r}")
