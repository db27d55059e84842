"""Run configuration: validation, the key = value round trip and loading from a file."""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markov_bridge import ConfigError, RunConfig, load_config, parse_config_text
from markov_bridge.config import config_echo

CHOICES = {
    "dataset": ["synthetic", "char_corpus"],
    "init_scheme": ["absorbing_text", "uniform_small"],
    "p0_init": ["uniform", "data_marginal"],
}


# text built mostly from the characters the line format treats specially
TEXT = st.text(st.one_of(st.sampled_from("a/#= \t\r\n\x0c\x1c\x85\u2028"), st.characters()), max_size=8)


def value_strategy(field):
    if field.type == "int":
        return st.one_of(st.integers(1, 64), st.integers())
    if field.type == "float":
        return st.one_of(st.floats(1e-4, 0.5), st.floats(1.0, 20.0), st.floats())
    if field.type == "tuple":
        return st.lists(st.integers(-2, 300), max_size=3).map(tuple)
    return st.one_of(st.sampled_from(CHOICES.get(field.name, ["runs/a", "x=y"])), TEXT)


# a few fields at a time, so that most draws pass every other check, and
# half of them the free-text fields
FREE_TEXT = [f for f in fields(RunConfig) if f.name in ("corpus_path", "out_dir")]
FIELD_VALUES = st.lists(
    st.one_of(st.sampled_from(FREE_TEXT), st.sampled_from(fields(RunConfig))).flatmap(
        lambda f: st.tuples(st.just(f.name), value_strategy(f))
    ),
    max_size=3,
).map(dict)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(FIELD_VALUES)
@example({"matrix_step_size": float("nan")})
@example({"out_dir": "runs/#1"})
def test_echo_round_trip_or_refused(values):
    cfg = RunConfig(**values)
    try:
        cfg.validate()
    except ConfigError:
        return
    assert parse_config_text(config_echo(cfg)) == cfg


@pytest.mark.parametrize("value", ["runs/#1", "runs/a\nb", "runs/a\rb", " runs/a", "runs/a\t", "runs/ a"])
def test_string_the_line_format_cannot_carry_is_refused(value):
    with pytest.raises(ConfigError):
        RunConfig(out_dir=value).validate()
    with pytest.raises(ConfigError):
        RunConfig(corpus_path=value).validate()


@pytest.mark.parametrize("key, value", [
    ("sigma_min", float("nan")),
    ("matrix_step_size", float("nan")),
    ("seed", -1),
])
def test_non_finite_floats_and_negative_seed_refused(key, value):
    with pytest.raises(ConfigError):
        RunConfig(**{key: value}).validate()


def test_fewer_than_two_monte_carlo_samples_refused():
    with pytest.raises(ConfigError, match="mc_samples must be >= 2"):
        RunConfig(mc_samples=1).validate()
    assert RunConfig(mc_samples=2).validate().mc_samples == 2


def test_corpus_path_that_does_not_exist_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        RunConfig(dataset="char_corpus", corpus_path=str(tmp_path / "absent.txt")).validate()


def test_line_without_equals_sign_is_refused():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config_text("n = 4\nd 3\n")


def test_value_that_does_not_parse_is_refused():
    # a tuple's parts each parse: an empty one is no width
    for line, value in [("n = abc", "n: 'abc'"), ("score_hidden = 16,,16", "score_hidden: '16,,16'"),
                        ("score_hidden = 16,", "score_hidden: '16,'")]:
        with pytest.raises(ConfigError, match=f"bad value for {value}"):
            parse_config_text(line + "\n")


class TestLoadConfig:
    def write(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 4  # states\nseed = 3\n\nd = 2\n", encoding="utf-8")
        return str(path)

    def test_file_without_override(self, tmp_path):
        cfg = load_config(self.write(tmp_path))
        assert (cfg.n, cfg.d, cfg.seed) == (4, 2, 3)

    @pytest.mark.parametrize("value", ["17", "junk"])
    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch, value):
        # the file alone sets a run: DMB_SEED once overrode its seed
        monkeypatch.setenv("DMB_SEED", value)
        cfg = load_config(self.write(tmp_path))
        assert (cfg.n, cfg.d, cfg.seed) == (4, 2, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))
