"""Dataset ingestion: the byte-level character corpus and the synthetic draws."""

import numpy as np
import pytest

from markov_bridge import (
    Checkpoint,
    ConfigError,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    RunConfig,
    VocabularyOverflowError,
    elbo_estimate,
    estimate_mu,
    generate,
    load_dataset,
    save_checkpoint,
)
from markov_bridge import cli as cli_module
from markov_bridge import core, sampler
from markov_bridge.checkpoint import rng_state_to_json
from markov_bridge.cli import cli
from markov_bridge.config import config_echo
from markov_bridge.data import _DATA_SALT
from markov_bridge.score_learning import ScoreModel

from oracles import peak_traced_bytes, random_chain_arrays


def corpus_config(tmp_path, raw: bytes, n=8, d=4):
    path = tmp_path / "corpus.txt"
    path.write_bytes(raw)
    return RunConfig(dataset="char_corpus", corpus_path=str(path), n=n, d=d)


def zero_rate_checkpoint(tmp_path, config) -> str:
    """A checkpoint of ``config`` whose zero rates keep each draw at its
    terminal state, uniform over all n."""
    n, d = config.n, config.d
    config.score_hidden = (4,)
    model = ScoreModel(n, d, hidden=(4,))
    ck = Checkpoint(
        config_text=config_echo(config),
        epoch=1,
        perms=np.tile(np.arange(n), (d, 1)),
        a=np.zeros((d, n - 1)),
        p0_estimate=np.full((d, n), 1.0 / n),
        score_weights=model.weights,
        score_biases=model.biases,
        rng_state=rng_state_to_json(np.random.default_rng(0)),
        epoch_history=np.zeros((1, 4)),
    )
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(ck, path)
    return path


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
        path = zero_rate_checkpoint(tmp_path, config)
        out = tmp_path / "samples.txt"
        assert cli(["sample", path, "--count", "8", "--steps", "2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 8
        assert all(len(line) == 4 and set(line) <= set("abcd\ufffd") for line in lines)
        assert "\ufffd" in "".join(lines)

    def test_ids_and_vocabulary_match_a_per_byte_lookup(self, tmp_path):
        # bytes >= 0x80 and a newline; the dropped tail holds the only b and 0x01
        raw = b"na\xefve caf\xe9\nr\xe9sum\xe9 \xff\n" * 3 + b"ab\x01"
        d = 5
        ds = load_dataset(corpus_config(tmp_path, raw, n=32, d=d))
        vocab = {byte: idx for idx, byte in enumerate(sorted(set(raw)))}
        ids = np.array([vocab[b] for b in raw], dtype=np.int64)
        usable = (ids.size // d) * d
        assert usable == len(raw) - 3
        assert ds.vocab == vocab and all(type(byte) is int for byte in ds.vocab)
        assert ds.samples.dtype == np.uint8
        np.testing.assert_array_equal(ds.samples, ids[:usable].reshape(-1, d))

    def test_memory_holds_the_bytes_the_samples_and_a_few_blocks(self, tmp_path, monkeypatch):
        # 2 MiB of text: an intp copy of the bytes, made by a whole-corpus count
        # or lookup, would be 16 MiB, against memory blocks of 128 KiB an array
        raw = np.random.default_rng(7).integers(ord("a"), ord("z") + 2, size=2**21, dtype=np.uint8).tobytes()
        config = corpus_config(tmp_path, raw, n=27, d=256)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 2**14)
        peak, samples = peak_traced_bytes(lambda: load_dataset(config).samples)
        assert samples.dtype == np.uint8 and samples.shape == (2**21 // 256, 256)
        assert peak < len(raw) + samples.nbytes + 4 * 8 * core.BLOCK_ELEMENTS

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
        assert ds.samples.shape == (200, 3) and ds.samples.dtype == np.uint8
        assert 0 <= ds.samples.min() and ds.samples.max() < 5
        assert ds.ground_truth.d == 3 and ds.ground_truth.n == 5
        assert np.array_equal(load_dataset(config).samples, ds.samples)
        assert ds.decode(ds.samples[:1]) == [" ".join(str(v) for v in ds.samples[0])]

    @pytest.mark.parametrize(
        "n, d, size, chunk, blocks",
        [
            (2, 5, 300, None, 1),  # two states
            (5, 4, 1, None, 1),  # one draw per dimension
            (27, 17, 10000, None, 3),  # blocks of eight dimensions, the floor, the last one of one
            (27, 65, 50, 600, 6),  # blocks of twelve dimensions, the last one of five
            (300, 3, 500, None, 1),  # more states than a uint8 counts
        ],
    )
    def test_draws_match_one_choice_per_dimension(self, monkeypatch, n, d, size, chunk, blocks):
        if chunk is not None:
            monkeypatch.setattr(core, "CHUNK_ELEMENTS", chunk)
        draws = []

        class Spy:  # a generator recording each block's (dims, size) draw of uniforms
            def random(self, shape):
                draws.append(shape)
                return uniforms.random(shape)

        uniforms = np.random.default_rng(0)
        core.draw_columns(np.full((d, n), 1.0 / n), size, Spy())
        assert len(draws) == blocks and all(dims >= 8 for dims, _ in draws[:-1])
        config = RunConfig(n=n, d=d, seed=11, synthetic_samples=size)
        ds = load_dataset(config)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _DATA_SALT, 1]))
        want = np.stack([rng.choice(n, size=size, p=row) for row in ds.ground_truth.probs], axis=1).astype(np.int64)
        assert ds.samples.dtype == np.min_scalar_type(n - 1)
        np.testing.assert_array_equal(ds.samples, want)
        again = np.random.default_rng(np.random.SeedSequence([config.seed, _DATA_SALT, 1]))
        np.testing.assert_array_equal(core.draw_columns(ds.ground_truth.probs, size, again), want)
        assert again.bit_generator.state == rng.bit_generator.state

    def test_memory_holds_the_samples_and_a_few_cache_chunks(self):
        # a (d, N) float64 temporary alone is as large as the samples
        config = RunConfig(n=27, d=64, seed=3, synthetic_samples=4096)
        load_dataset(RunConfig(n=2, d=1, synthetic_samples=1))  # so the first draw's imports are not counted
        peak, samples = peak_traced_bytes(lambda: load_dataset(config).samples)
        assert peak < samples.nbytes + 4 * 8 * core.CHUNK_ELEMENTS


@pytest.mark.parametrize("n", [256, 257])
class TestNarrowStates:
    """States are held in the narrowest type that holds n - 1: uint8 up to
    n = 256, uint16 past it. Every user of the states reads the same numbers
    from them as from the same states held as int64."""

    def test_loads_hold_the_int64_states(self, tmp_path, n):
        dtype = np.uint8 if n == 256 else np.uint16
        ds = load_dataset(RunConfig(n=n, d=3, seed=2, synthetic_samples=4000))
        rng = np.random.default_rng(np.random.SeedSequence([2, _DATA_SALT, 1]))
        want = np.stack([rng.choice(n, size=4000, p=row) for row in ds.ground_truth.probs], axis=1)
        assert ds.samples.dtype == dtype and ds.samples.max() == n - 1
        np.testing.assert_array_equal(ds.samples, want)
        # every byte value once per 256-byte tuple, so state 255 is in use
        raw = np.random.default_rng(3).permuted(np.tile(np.arange(256, dtype=np.uint8), (6, 1)), axis=1).tobytes()
        ds = load_dataset(corpus_config(tmp_path, raw, n=n, d=256))
        assert ds.samples.dtype == dtype and ds.samples.max() == 255
        np.testing.assert_array_equal(ds.samples, np.frombuffer(raw, dtype=np.uint8).reshape(6, 256))

    def test_frequencies_and_bound_match_int64_states(self, n):
        ds = load_dataset(RunConfig(n=n, d=3, seed=2, synthetic_samples=4000))
        wide = ds.samples.astype(np.int64)
        np.testing.assert_array_equal(core.state_frequencies(ds.samples, n), core.state_frequencies(wide, n))
        rng = np.random.default_rng(5)
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, 3, 0.05, 1.5))
        model = ScoreModel(n, 3, hidden=(8,), rng=rng)
        model.weights[-1][:] = rng.normal(0.0, 0.1, model.weights[-1].shape)
        terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=3))
        reports = [elbo_estimate(model.forward_batch, x, Q, NoiseSchedule(), terminal, 300, np.random.default_rng(9))
                   for x in (ds.samples, wide)]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("run", [generate, estimate_mu])
    def test_sampler_matches_int64_terminal_draws(self, monkeypatch, n, run):
        # the terminal puts half its mass on the last state; at n = 256, 85 rows
        # of 3 states make a 255-entry cache chunk, 255 * 255 past a uint8
        rng = np.random.default_rng(6)
        Q = FactorizedRateMatrix(*random_chain_arrays(rng, n, 3, 0.05, 1.5))
        terminal = ProductDistribution(0.5 * rng.dirichlet(np.ones(n), size=3) + 0.5 * np.eye(n)[[n - 1] * 3])
        ratio_fn = ScoreModel(n, 3, hidden=(8,), rng=rng).forward_batch
        args = (terminal, Q, NoiseSchedule(), ratio_fn)
        narrow = run(*args, np.random.default_rng(8), 300, 3, 1e-3)
        real = core.draw_columns
        monkeypatch.setattr(sampler, "draw_columns", lambda *a: real(*a).astype(np.int64))
        wide = run(*args, np.random.default_rng(8), 300, 3, 1e-3)
        if run is generate:
            assert narrow.dtype == np.int64
            np.testing.assert_array_equal(narrow, wide)
        else:
            np.testing.assert_array_equal(narrow.probs, wide.probs)


@pytest.mark.parametrize("kind", ["synthetic", "char_corpus"])
def test_sample_decodes_without_building_the_dataset(tmp_path, monkeypatch, kind):
    if kind == "synthetic":
        config = RunConfig(n=8, d=3)
        alphabet = None
    else:
        config = corpus_config(tmp_path, b"ab cd\xe9ab", n=8, d=3)
        alphabet = set("ab cd\xe9\ufffd")
    path = zero_rate_checkpoint(tmp_path, config)

    def refuse(config):
        raise AssertionError("dmb sample built the dataset")

    monkeypatch.setattr(cli_module, "load_dataset", refuse)
    out = tmp_path / "samples.txt"
    assert cli(["sample", path, "--count", "16", "--steps", "2", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16
    for line in lines:
        if alphabet is None:
            states = [int(tok) for tok in line.split(" ")]
            assert len(states) == 3 and all(0 <= x < 8 for x in states)
        else:
            assert len(line) == 3 and set(line) <= alphabet
