"""Flat key = value run configuration.

One ``key = value`` per line, ``#`` starts a comment, blank lines ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .core import NoiseSchedule
from .errors import ConfigError


@dataclass
class RunConfig:
    n: int = 8
    d: int = 1
    seed: int = 0
    dataset: str = "synthetic"
    corpus_path: str = ""
    synthetic_samples: int = 10000
    sigma_min: float = 0.1
    sigma_max: float = 10.0
    init_scheme: str = "absorbing_text"
    p0_init: str = "uniform"
    epochs: int = 5
    max_step_matrix: int = 200
    max_step_score: int = 2000
    eps_q: float = 1e-6
    eps_score: float = 1e-6
    eps_total: float = 1e-3
    matrix_step_size: float = 0.1
    score_lr: float = 3e-4
    score_batch_size: int = 256
    score_hidden: tuple = (128, 128)
    eps_t: float = 1e-3
    sampler_steps: int = 128
    mu_trajectories: int = 16384
    mc_samples: int = 8192
    out_dir: str = "runs/latest"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a value the ``key = value`` line cannot carry would not come back
            if isinstance(value, str) and ("#" in value or value != value.strip() or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} cannot hold '#', line breaks or surrounding whitespace")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.dataset not in ("synthetic", "char_corpus"):
            raise ConfigError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "char_corpus":
            if not self.corpus_path:
                raise ConfigError("char_corpus needs corpus_path")
            if not os.path.exists(self.corpus_path):
                raise ConfigError(f"corpus_path {self.corpus_path!r} does not exist")
        if self.init_scheme not in ("absorbing_text", "uniform_small"):
            raise ConfigError(f"unknown init scheme {self.init_scheme!r}")
        if self.p0_init not in ("uniform", "data_marginal"):
            raise ConfigError(f"unknown p0 init {self.p0_init!r}")
        for name in ("eps_q", "eps_score", "eps_total", "eps_t", "matrix_step_size", "score_lr"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.eps_t < 1.0):
            raise ConfigError("need 0 < eps_t < 1")
        for name in (
            "epochs",
            "max_step_matrix",
            "max_step_score",
            "score_batch_size",
            "sampler_steps",
            "mu_trajectories",
            "synthetic_samples",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.mc_samples < 2:  # the bound's standard error needs two draws
            raise ConfigError("mc_samples must be >= 2")
        if not self.score_hidden or any(width < 1 for width in self.score_hidden):
            raise ConfigError("score_hidden needs at least one width, each >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        try:
            self.schedule()
        except ValueError as exc:
            raise ConfigError(f"bad noise schedule: {exc}") from exc
        return self

    def schedule(self) -> NoiseSchedule:
        """The noise schedule these settings describe."""
        return NoiseSchedule(sigma_min=self.sigma_min, sigma_max=self.sigma_max)


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple":
            return tuple(int(part) for part in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg.validate()


def load_config(path: str) -> RunConfig:
    """Parse a config file: its text alone sets the run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


def config_echo(cfg: RunConfig) -> str:
    """Canonical one-key-per-line rendering (field order, round-trip stable)."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
