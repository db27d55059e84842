"""Dataset ingestion: the byte-level character corpus and the synthetic draws."""

import numpy as np
import pytest

from markov_bridge import Checkpoint, ConfigError, RunConfig, VocabularyOverflowError, load_dataset, save_checkpoint
from markov_bridge.checkpoint import rng_state_to_json
from markov_bridge.cli import cli
from markov_bridge.config import config_echo
from markov_bridge.score_learning import ScoreModel


def corpus_config(tmp_path, raw: bytes, n=8, d=4):
    path = tmp_path / "corpus.txt"
    path.write_bytes(raw)
    return RunConfig(dataset="char_corpus", corpus_path=str(path), n=n, d=d)


class TestCharCorpus:
    def test_vocabulary_and_decode_round_trip(self, tmp_path):
        # nine bytes at d = 4: two tuples; the trailing byte is dropped but
        # still in the vocabulary
        ds = load_dataset(corpus_config(tmp_path, b"abac\xe9b!ax"))
        assert ds.vocab == {ord("!"): 0, ord("a"): 1, ord("b"): 2, ord("c"): 3, ord("x"): 4, 0xE9: 5}
        assert (ds.n, ds.d, ds.size) == (8, 4, 2)
        assert ds.ground_truth is None
        assert ds.samples.tolist() == [[1, 2, 1, 3], [5, 2, 0, 1]]
        assert ds.decode(ds.samples) == ["abac", "\xe9b!a"]
        assert ds.decode(ds.samples[1]) == ["\xe9b!a"]

    def test_alphabet_of_exactly_n_bytes(self, tmp_path):
        ds = load_dataset(corpus_config(tmp_path, b"abcdabcd", n=4, d=2))
        assert ds.samples.max() == 3
        assert "".join(ds.decode(ds.samples)) == "abcdabcd"

    def test_state_without_a_byte_decodes_as_replacement_character(self, tmp_path):
        # four bytes at n = 8: states 4 to 7 have no byte
        ds = load_dataset(corpus_config(tmp_path, b"abcd", n=8, d=4))
        assert ds.decode([[0, 4, 3, 7]]) == ["a\ufffdd\ufffd"]

    def test_sample_draws_states_without_a_byte(self, tmp_path):
        # zero rates keep each draw at its terminal state, uniform over all 8
        config = corpus_config(tmp_path, b"abcd", n=8, d=4)
        config.score_hidden = (4,)
        model = ScoreModel(8, 4, hidden=(4,))
        ck = Checkpoint(
            config_text=config_echo(config),
            epoch=1,
            perms=np.tile(np.arange(8), (4, 1)),
            a=np.zeros((4, 7)),
            p0_estimate=np.full((4, 8), 1.0 / 8.0),
            score_weights=model.weights,
            score_biases=model.biases,
            rng_state=rng_state_to_json(np.random.default_rng(0)),
            epoch_history=np.zeros((1, 4)),
        )
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(ck, path)
        out = tmp_path / "samples.txt"
        assert cli(["sample", path, "--count", "8", "--steps", "2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 8
        assert all(len(line) == 4 and set(line) <= set("abcd\ufffd") for line in lines)
        assert "\ufffd" in "".join(lines)

    def test_more_distinct_bytes_than_n(self, tmp_path):
        with pytest.raises(VocabularyOverflowError):
            load_dataset(corpus_config(tmp_path, b"abcde", n=4, d=1))

    def test_empty_corpus(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            load_dataset(corpus_config(tmp_path, b""))

    def test_corpus_shorter_than_one_tuple(self, tmp_path):
        with pytest.raises(ConfigError, match="shorter"):
            load_dataset(corpus_config(tmp_path, b"abc", d=4))

    def test_unreadable_corpus(self, tmp_path):
        config = RunConfig(dataset="char_corpus", corpus_path=str(tmp_path), d=1)
        with pytest.raises(ConfigError, match="cannot read"):
            load_dataset(config)


class TestSynthetic:
    def test_shape_range_and_seed(self):
        config = RunConfig(n=5, d=3, seed=4, synthetic_samples=200)
        ds = load_dataset(config)
        assert ds.samples.shape == (200, 3) and ds.samples.dtype == np.int64
        assert 0 <= ds.samples.min() and ds.samples.max() < 5
        assert ds.ground_truth.d == 3 and ds.ground_truth.n == 5
        assert np.array_equal(load_dataset(config).samples, ds.samples)
        assert ds.decode(ds.samples[:1]) == [" ".join(str(v) for v in ds.samples[0])]
