"""Backward-stage training: a small network estimates the probability ratios
p_t(y)/p_t(x_t) that assemble the reversed generator.

The training objective is the score-entropy form: for every off-state y the
integrand is rate * (s - r + r (ln r - ln s)) with r the conditional kernel
ratio, a Bregman divergence that is nonnegative and zero only at s = r. Time
is sampled uniformly on (eps_t, T) and weighted by (T - eps_t); the full sum
over y is taken (no y-subsampling) since desk-scale n keeps it cheap.

A :class:`ScoreBatch` carries its target r = K_t[x0, :] / K_t[x0, xt], built
from the kernel rows xt was drawn from: one kernel-row pass per dimension.

Everything works on batches: ratio estimators are functions
``(xt_batch, t) -> (B, d, n)`` such as ``ScoreModel.forward_batch`` or
:func:`oracle_ratio_fn`, and single tuples are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RATIO_FLOOR,
    NoiseSchedule,
    ProductDistribution,
    evolve_rows,
    kernel_rows,
    rate_columns,
    sample_categorical,
)
from .errors import DegenerateStateError, DivergenceError

TIME_EMBED_WIDTH = 16
DEFAULT_EPS_T = 1e-3
DEFAULT_LR = 3e-4

# Adam hyperparameters and the smoothed-loss stop/divergence rules
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SMOOTH_WINDOW = 50
DIVERGENCE_FACTOR = 10.0

_FREQS = np.pi * 2.0 ** np.arange(TIME_EMBED_WIDTH // 2)


def time_embedding(t) -> np.ndarray:
    """Sinusoidal embedding of shape (B, 16) on geometric frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    phases = np.outer(t, _FREQS)
    return np.concatenate([np.sin(phases), np.cos(phases)], axis=1)


class ScoreModel:
    """MLP from (one-hot states per dimension, time embedding) to d*n ratios.

    The output head is exponentiated so every ratio estimate is strictly
    positive, and the final layer starts at zero so a fresh model outputs the
    uniform ratio 1 everywhere.
    """

    def __init__(self, n: int, d: int, hidden=(128, 128), rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.n = int(n)
        self.d = int(d)
        self.hidden = tuple(int(h) for h in hidden)
        sizes = [self.d * self.n + TIME_EMBED_WIDTH, *self.hidden, self.d * self.n]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.weights[-1][:] = 0.0

    def encode(self, xt, t) -> np.ndarray:
        xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
        B = xt.shape[0]
        onehot = np.zeros((B, self.d * self.n))
        onehot[np.arange(B)[:, None], xt + self.n * np.arange(self.d)[None, :]] = 1.0
        t = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)), (B,))
        return np.concatenate([onehot, time_embedding(t)], axis=1)

    def _forward_cached(self, X):
        acts = [X]
        h = X
        # each layer in place, so none holds two (B, width) temporaries
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W.T
            h += b
            np.tanh(h, out=h)
            acts.append(h)
        out = h @ self.weights[-1].T
        out += self.biases[-1]
        return acts, out

    def forward_batch(self, xt, t) -> np.ndarray:
        """Positive ratio estimates of shape (B, d, n)."""
        _, out = self._forward_cached(self.encode(xt, t))
        return np.exp(out).reshape(-1, self.d, self.n)

    def backward(self, acts, d_out):
        """Gradients for a cached forward pass given d(loss)/d(pre-exp output)."""
        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        delta = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_w[layer] = delta.T @ acts[layer]
            grad_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer]) * (1.0 - acts[layer] ** 2)
        return grad_w, grad_b


@dataclass(frozen=True)
class ScoreBatch:
    """Draws (t, xt) with the target r[b, i] = K[x0_bi, :] / K[x0_bi, xt_bi] of the
    rows K = exp(beta(t_b) Q_i) xt was drawn from (denominator floored); no x0."""

    t: np.ndarray
    xt: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        xt = np.atleast_2d(np.asarray(self.xt, dtype=np.int64))
        t = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        r = np.asarray(self.r, dtype=np.float64)
        if t.shape != (xt.shape[0],) or r.ndim != 3 or r.shape[:2] != xt.shape:
            raise ValueError("xt must be (B, d), t (B,) and r (B, d, n)")
        if xt.shape[0] == 0:
            raise ValueError("batch is empty")
        if np.any(t <= 0.0):
            raise ValueError("t entries must be positive")
        object.__setattr__(self, "xt", xt)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)

    @property
    def size(self) -> int:
        return self.xt.shape[0]


def sample_xt_batch(x0, Q_per_dim, schedule: NoiseSchedule, t, rng):
    """Draws xt from the rows exp(beta(t_b) Q_i)[x0_bi] and the (B, d, n) ratio
    target r of the same rows: the one kernel-row pass of a batch."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.int64))
    betas = schedule.beta(np.asarray(t, dtype=np.float64))
    xt = np.empty_like(x0)
    r = np.empty((*x0.shape, Q_per_dim[0].n))
    idx = np.arange(x0.shape[0])
    for i, Q in enumerate(Q_per_dim):
        rows = kernel_rows(Q, betas, x0[:, i])
        xt[:, i] = sample_categorical(rows, rng)
        den = np.maximum(rows[idx, xt[:, i]], RATIO_FLOOR)
        np.divide(rows, den[:, None], out=r[:, i, :])
    return xt, r


def make_score_batch(x0, Q_per_dim, schedule: NoiseSchedule, rng, eps_t: float = DEFAULT_EPS_T) -> ScoreBatch:
    """Draw times uniformly on (eps_t, T), then each xt and its ratio target."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.int64))
    t = rng.uniform(eps_t, schedule.horizon, size=x0.shape[0])
    xt, r = sample_xt_batch(x0, Q_per_dim, schedule, t, rng)
    return ScoreBatch(t=t, xt=xt, r=r)


def oracle_ratio_fn(mu: ProductDistribution, Q_per_dim, schedule: NoiseSchedule):
    """Batch ratio function from the exact posterior mixture over x0.

    Per dimension the optimum is p_t(y) / p_t(x_t) with p_t the evolved
    marginal, so a factorized mu gives it in closed form.
    """

    def ratios(xt, t):
        xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
        B = xt.shape[0]
        betas = np.broadcast_to(np.atleast_1d(schedule.beta(t)), (B,))
        out = np.empty((B, xt.shape[1], mu.n))
        for i, Q in enumerate(Q_per_dim):
            pt = evolve_rows(mu.marginals[i].probs, Q, betas)
            den = np.take_along_axis(pt, xt[:, i][:, None], axis=1)
            if np.any(den < 1e-300):
                raise DegenerateStateError(f"p_t underflow at dimension {i}")
            out[:, i, :] = pt / den
        return out

    return ratios


def _per_sample_values(s, batch: ScoreBatch, Q_per_dim, schedule: NoiseSchedule, eps_t: float):
    r = batch.r
    # rate * (s - r + r (ln r - ln s)), built in place: at most four (B, d, n)
    # arrays live, s, r, terms and a scratch that the rates replace
    terms = np.maximum(r, RATIO_FLOOR)
    np.log(terms, out=terms)
    scratch = np.maximum(s, RATIO_FLOOR)
    terms -= np.log(scratch, out=scratch)
    terms *= r
    terms += np.subtract(s, r, out=scratch)
    del scratch
    # each term is a Bregman divergence, so negatives can only be roundoff
    np.clip(terms, 0.0, None, out=terms)
    sigmas = schedule.sigma(batch.t)
    rates = np.empty_like(terms)
    for i, Q in enumerate(Q_per_dim):
        rates[:, i, :] = rate_columns(Q, sigmas, batch.xt[:, i])
    terms *= rates
    if not np.isfinite(terms).all():
        b, i, y = np.argwhere(~np.isfinite(terms))[0]
        raise DivergenceError(
            f"non-finite score-entropy term at dim {i}, state {y}, t={batch.t[b]:.6g}"
        )
    weight = schedule.horizon - eps_t
    return weight * terms.sum(axis=(1, 2)), rates


def score_entropy_loss(ratio_fn, batch: ScoreBatch, Q_per_dim, schedule: NoiseSchedule, eps_t: float = DEFAULT_EPS_T) -> float:
    """Monte Carlo estimate of the score-entropy objective; always >= 0."""
    values = _per_sample_values(ratio_fn(batch.xt, batch.t), batch, Q_per_dim, schedule, eps_t)[0]
    return float(values.mean())


def score_loss_and_grad(model: ScoreModel, batch: ScoreBatch, Q_per_dim, schedule: NoiseSchedule, eps_t: float = DEFAULT_EPS_T):
    """Batch loss and its exact reverse-mode gradients for a fixed batch.

    Returns (loss, grad_weights, grad_biases), the gradients shaped like the
    model parameters.
    """
    acts, out = model._forward_cached(model.encode(batch.xt, batch.t))
    s = np.exp(out).reshape(batch.size, model.d, model.n)
    values, rates = _per_sample_values(s, batch, Q_per_dim, schedule, eps_t)
    # d(term)/d(pre-exp output) = rate * (s - r) via the exp head
    weight = (schedule.horizon - eps_t) / batch.size
    d_out = weight * rates
    d_out *= s - batch.r
    d_out = d_out.reshape(batch.size, model.d * model.n)
    grad_w, grad_b = model.backward(acts, d_out)
    return float(values.mean()), grad_w, grad_b


def score_learning_loop(
    model: ScoreModel,
    batches,
    Q_per_dim,
    schedule: NoiseSchedule,
    max_step: int,
    eps_score: float,
    lr: float = DEFAULT_LR,
    eps_t: float = DEFAULT_EPS_T,
) -> ScoreModel:
    """Adam on the score-entropy loss until the step cap or smoothed loss
    drops below eps_score; aborts if the smoothed loss exceeds 10x its start.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    history = []
    initial_smoothed = None
    for step in range(max_step):
        batch = next(batches)
        loss, grad_w, grad_b = score_loss_and_grad(model, batch, Q_per_dim, schedule, eps_t)
        history.append(loss)
        smoothed = float(np.mean(history[-SMOOTH_WINDOW:]))
        if initial_smoothed is None:
            initial_smoothed = max(smoothed, 1e-30)
        if smoothed < eps_score:
            break
        if smoothed > DIVERGENCE_FACTOR * initial_smoothed:
            raise DivergenceError(
                "score training diverged",
                diagnostics={"step": step, "smoothed": smoothed, "initial": initial_smoothed},
            )
        tt = step + 1
        scale = lr * np.sqrt(1.0 - ADAM_BETA2**tt) / (1.0 - ADAM_BETA1**tt)
        for layer in range(len(model.weights)):
            m_w[layer] = ADAM_BETA1 * m_w[layer] + (1.0 - ADAM_BETA1) * grad_w[layer]
            v_w[layer] = ADAM_BETA2 * v_w[layer] + (1.0 - ADAM_BETA2) * grad_w[layer] ** 2
            model.weights[layer] -= scale * m_w[layer] / (np.sqrt(v_w[layer]) + ADAM_EPS)
            m_b[layer] = ADAM_BETA1 * m_b[layer] + (1.0 - ADAM_BETA1) * grad_b[layer]
            v_b[layer] = ADAM_BETA2 * v_b[layer] + (1.0 - ADAM_BETA2) * grad_b[layer] ** 2
            model.biases[layer] -= scale * m_b[layer] / (np.sqrt(v_b[layer]) + ADAM_EPS)
    return model
