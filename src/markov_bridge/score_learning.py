"""Backward-stage training: a small network estimates the probability ratios
p_t(y)/p_t(x_t) that assemble the reversed generator.

The training objective is the score-entropy form: for every off-state y the
integrand is rate * (s - r + r (ln r - ln s)) with r the conditional kernel
ratio, a Bregman divergence that is nonnegative and zero only at s = r. Time
is sampled uniformly on (eps_t, T) and weighted by (T - eps_t); the full sum
over y is taken (no y-subsampling) since desk-scale n keeps it cheap.

Training and the bound draw a :class:`ScoreBatch` alike: t, x0 and xt, O(B d).
The loss builds its target r = K_t[x0, :] / K_t[x0, xt] per cache chunk.

The elementwise work runs one cache chunk of rows at a time
(``core.row_blocks`` with ``cache`` set): the targets, the score-entropy
terms, their rates and the output gradient in one pass per chunk, and each
Adam update in place over a parameter's memory. No operation is reordered,
so results do not depend on the chunk size. A training step's matrix
products take the whole batch; ``forward_batch`` takes memory blocks.

Everything works on batches: ratio estimators ``(xt_batch, t) -> (B, d, n)``
such as ``ScoreModel.forward_batch`` or :func:`oracle_ratio_fn` are scored by
the one estimator, :func:`score_entropy_values`; single tuples are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RATIO_FLOOR,
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    block_index,
    evolve_rows,
    kernel_draw,
    kernel_rows,
    row_blocks,
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

# rows per block of the first layer's gather: small enough that a (rows, H)
# running sum stays in cache while d dimensions are added to it
GATHER_ROWS = 256

_FREQS = np.pi * 2.0 ** np.arange(TIME_EMBED_WIDTH // 2)


def time_embedding(t) -> np.ndarray:
    """Sinusoidal embedding (B, 16) of a scalar or B times in [0, 1] on geometric frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    # NaN fails both comparisons
    if t.ndim != 1 or not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("times must be a scalar or a vector of values in [0, 1]")
    phases = np.outer(t, _FREQS)
    return np.concatenate([np.sin(phases), np.cos(phases)], axis=1)


def layer_sizes(n: int, d: int, hidden) -> list:
    """MLP layer widths, input first: one-hot plus time embedding, hidden, d*n outputs."""
    return [d * n + TIME_EMBED_WIDTH, *hidden, d * n]


class ScoreModel:
    """MLP from (state per dimension, time embedding) to d*n ratios.

    The forward takes state indices, not a one-hot input: the first layer sums
    the columns of W1 that the states pick, plus the time embedding's product,
    so h1 = emb(t) W1[:, d*n:]^T + b1 + sum_i W1[:, i*n + x_i], the time term
    built once per time given (one row for a reverse step's one t). W1 is
    stored column-major, which makes its token block a contiguous (d*n, H)
    table of those columns. Only ``backward`` builds the one-hot input, for
    dW1, from the forward's emb(t). Training and ``forward_batch`` share one
    forward, ``_forward``, whose output head is exponentiated so every ratio
    estimate is strictly positive; the final layer starts at zero so a fresh
    model outputs the uniform ratio 1 everywhere. It needs a hidden layer.
    """

    def __init__(self, n: int, d: int, hidden=(128, 128), rng=None, params=None):
        """Draw fresh weights from ``rng``, or copy ``params`` = (weights, biases),
        shaped as :func:`layer_sizes` says, with no draws."""
        self.n = int(n)
        self.d = int(d)
        if params is None:
            rng = np.random.default_rng(0) if rng is None else rng
            sizes = layer_sizes(self.n, self.d, [int(h) for h in hidden])
            weights = [rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
                       for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
            weights[-1][:] = 0.0
            params = (weights, [np.zeros(fan_out) for fan_out in sizes[1:]])
        self.weights = [np.array(w, dtype=np.float64, order="F" if layer == 0 else "C")
                        for layer, w in enumerate(params[0])]
        self.biases = [np.array(b, dtype=np.float64) for b in params[1]]
        if len(self.weights) < 2:
            raise ValueError("the score model needs at least one hidden layer")

    def encode(self, xt, emb) -> np.ndarray:
        """The (B, d*n + 16) input W1 multiplies: one-hot states, then time rows ``emb``."""
        xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
        B = xt.shape[0]
        dn = self.d * self.n
        X = np.zeros((B, dn + TIME_EMBED_WIDTH))
        X[np.arange(B)[:, None], block_index(xt, self.d, self.n)] = 1.0
        X[:, dn:] = emb
        return X

    def first_layer(self, xt, emb, out) -> np.ndarray:
        """Pre-activation h1 = encode(xt, emb) @ W1.T + b1, gathered without the
        one-hot, into ``out``, a (len(xt), H1) array.

        ``emb`` holds one time row or one per state row (``forward_batch``
        checks). Each block of GATHER_ROWS rows starts from its time terms, or
        the one time term broadcast, plus bias, then adds each dimension's
        picked columns in place, so the block's running sum stays in cache.
        """
        xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
        dn = self.d * self.n
        W1 = self.weights[0]
        table = np.ascontiguousarray(W1[:, :dn].T)  # a view while W1 stays column-major
        tokens = block_index(xt, self.d, self.n).T.copy()
        for start in range(0, len(xt), GATHER_ROWS):
            rows = slice(start, start + GATHER_ROWS)
            hb = out[rows]
            own = emb[start % len(emb):][: len(hb)]  # the block's time rows, or the only one
            np.matmul(own, W1[:, dn:].T, out=hb[: len(own)])
            hb[: len(own)] += self.biases[0]
            hb[len(own):] = hb[:1]
            for col in tokens[:, rows]:
                hb += table[col]
        return out

    def _forward(self, xt, emb, out, acts=None, space=None) -> np.ndarray:
        """Ratios exp(h W_last^T + b_last) of states ``xt`` at time rows ``emb``
        into ``out``, (len(xt), d*n). The hidden layers go end to end into the
        flat array ``space`` (made if not given) of len(xt) rows of their
        widths' sum; into a list ``acts`` goes what ``backward`` needs:
        (xt, emb), then each hidden activation."""
        widths = [len(W) for W in self.weights[:-1]]
        space = np.empty(len(xt) * sum(widths)) if space is None else space
        if acts is not None:
            acts.append((xt, emb))
        for layer, width in enumerate(widths):
            into, space = space[: len(xt) * width].reshape(-1, width), space[len(xt) * width:]
            if layer == 0:
                h = self.first_layer(xt, emb, into)
            else:
                # each layer into its own place, so none makes a (B, width) temporary
                h = np.matmul(h, self.weights[layer].T, out=into)
                h += self.biases[layer]
            np.tanh(h, out=h)
            if acts is not None:
                acts.append(h)
        np.matmul(h, self.weights[-1].T, out=out)
        out += self.biases[-1]
        return np.exp(out, out=out)

    def forward_batch(self, xt, t) -> np.ndarray:
        """Positive ratio estimates (B, d, n), one memory block of rows at a
        time, each block's ratios written into one (B, d*n) result.

        A block holds all its hidden layers at once, so its rows are cut by
        the sum of the hidden widths, or by d*n if wider: 4096 rows at the
        desk shape, a multiple of GATHER_ROWS, so the first layer's time
        products keep their row counts and every bit. Every block writes its
        layers into one array made once per call: arrays made and freed per
        block would be returned to the system and faulted in again each
        block. A scalar time is embedded once, per-row times block by block.
        """
        xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if len(t) not in (1, len(xt)):
            raise ValueError(f"need one time or one per state row, not {len(t)} for {len(xt)} rows")
        emb = time_embedding(t) if len(t) == 1 else None
        width = sum(len(W) for W in self.weights[:-1])
        blocks = row_blocks(len(xt), max(width, self.d * self.n))
        # the result before the hidden array: the other order slowed text8 sampling by 2-3%
        out = np.empty((len(xt), self.d * self.n))
        space = np.empty(len(xt[blocks[0]]) * width) if blocks else None
        for rows in blocks:
            self._forward(xt[rows], time_embedding(t[rows]) if emb is None else emb, out[rows], space=space)
        return out.reshape(-1, self.d, self.n)

    def backward(self, acts, grads):
        """Gradients for a cached forward pass, written into ``grads`` =
        (grad_w, grad_b), lists of arrays laid out like the weights and biases.

        ``acts`` is the list ``_forward`` filled, then d(loss)/d(pre-exp
        output) appended. The one-hot input is built here, for dW1 = delta^T X
        at the training batch size, into dW1 taken as (X^T delta)^T, so that
        it is column-major like W1 and an update walks both in memory order.
        ``acts`` is consumed, last entry first: each hidden activation a is
        overwritten by tanh' = 1 - a**2 and then by the next delta, and each
        entry is dropped from the list once that delta exists. The output
        gradient, (B, d*n), is therefore freed as soon as delta @ W_last is
        made, before the one-hot, if the caller holds no other reference to it.
        """
        grad_w, grad_b = grads
        delta = acts.pop()
        for layer in range(len(self.weights) - 1, 0, -1):
            a = acts.pop()
            np.matmul(delta.T, a, out=grad_w[layer])
            np.sum(delta, axis=0, out=grad_b[layer])
            # tanh' in the activation's own memory: delta @ W is the one temporary
            np.subtract(1.0, np.square(a, out=a), out=a)
            delta = np.multiply(delta @ self.weights[layer], a, out=a)
        np.matmul(self.encode(*acts.pop()).T, delta, out=grad_w[0].T)
        np.sum(delta, axis=0, out=grad_b[0])
        return grad_w, grad_b


@dataclass(frozen=True, eq=False)
class ScoreBatch:
    """Draws (t, x0, xt): times on [eps_t, T] and each xt from the rows
    exp(beta(t_b) Q_i)[x0_bi]. Every array is (B,) or (B, d)."""

    t: np.ndarray
    x0: np.ndarray
    xt: np.ndarray
    eps_t: float

    def __post_init__(self):
        x0 = np.atleast_2d(np.asarray(self.x0, dtype=np.int64))
        xt = np.atleast_2d(np.asarray(self.xt, dtype=np.int64))
        t = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        if xt.ndim != 2 or x0.shape != xt.shape or t.shape != (xt.shape[0],):
            raise ValueError("x0 and xt must be (B, d) and t (B,)")
        if xt.shape[0] == 0:
            raise ValueError("batch is empty")
        # NaN fails every comparison
        if not (0.0 < self.eps_t < 1.0 and np.all((t >= self.eps_t) & (t <= 1.0))):
            raise ValueError("need 0 < eps_t < 1 and eps_t <= t <= 1")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xt", xt)
        object.__setattr__(self, "t", t)

    @property
    def size(self) -> int:
        return self.xt.shape[0]


def make_score_batch(x0, Q: FactorizedRateMatrix, schedule: NoiseSchedule, rng, eps_t: float = DEFAULT_EPS_T) -> ScoreBatch:
    """Draw times uniformly on [eps_t, T), then each xt from the kernel rows of x0."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.int64))
    t = rng.uniform(eps_t, 1.0, size=x0.shape[0])
    # dimension-major, so the generator is consumed one dimension at a time
    xt = kernel_draw(Q, schedule.beta(t), x0, rng.random(x0.shape[::-1]).T)
    return ScoreBatch(t=t, x0=x0, xt=xt, eps_t=eps_t)


def oracle_ratio_fn(mu: ProductDistribution, Q: FactorizedRateMatrix, schedule: NoiseSchedule):
    """Batch ratio function from the exact posterior mixture over x0.

    Per dimension the optimum is p_t(y) / p_t(x_t) with p_t the evolved
    marginal, so a factorized mu gives it in closed form.
    """

    def ratios(xt, t):
        xt = np.atleast_2d(np.asarray(xt, dtype=np.int64))
        B = xt.shape[0]
        pt = evolve_rows(mu.probs, Q, np.broadcast_to(np.atleast_1d(schedule.beta(t)), (B,)))
        den = np.take_along_axis(pt.reshape(B, -1), block_index(xt, Q.d, Q.n), axis=1)
        if np.any(den < 1e-300):
            raise DegenerateStateError(f"p_t underflow at dimension {np.argwhere(den < 1e-300)[0][1]}")
        return pt / den[:, :, None]

    return ratios


def _per_sample_values(s, batch: ScoreBatch, Q, schedule: NoiseSchedule, d_out=None):
    """Per-draw score-entropy values, weighted by (T - eps_t), one cache chunk
    of rows at a time; with ``d_out``, a (B, d, n) array, also the gradient
    of their mean in the pre-exp outputs, rate * (s - r) / B * (T - eps_t).

    The rate is column x_t of sigma(t) Q_i off its diagonal: one value,
    sigma(t) times ``Q.state_rates`` at x_t (the rate into x_t), on the
    states sorted before x_t and 0 elsewhere, applied as a boolean mask and a
    (rows, d) factor. States outside [0, n) are refused before any gather.
    A chunk's target r comes from its kernel rows, the denominator floored; a
    negative ratio in ``s`` raises DivergenceError. ``d_out`` may be ``s``
    itself: a chunk is read before it is overwritten.
    """
    B, d, n = s.shape
    sigmas = schedule.sigma(batch.t)
    betas = schedule.beta(batch.t)
    weight = 1.0 - batch.eps_t
    values = np.empty(B)
    for rows in row_blocks(B, d * n, cache=True):
        at = block_index(batch.xt[rows], d, n)  # refuses states outside [0, n) before any gather
        rc, sc = kernel_rows(Q, betas[rows], batch.x0[rows]), s[rows]
        if sc.min() < 0.0:  # NaN compares false, and the terms' check below names it
            b, i, y = np.argwhere(sc < 0.0)[0]
            raise DivergenceError(f"negative ratio estimate at dim {i}, state {y}, t={batch.t[rows][b]:.6g}")
        rc /= np.maximum(np.take_along_axis(rc.reshape(len(at), -1), at, axis=1), RATIO_FLOOR)[:, :, None]
        # rate * (s - r + r (ln r - ln s)), in place on two chunk temporaries
        terms = np.maximum(rc, RATIO_FLOOR)
        np.log(terms, out=terms)
        diff = np.maximum(sc, RATIO_FLOOR)
        terms -= np.log(diff, out=diff)
        terms *= rc
        terms += np.subtract(sc, rc, out=diff)
        # each term is a Bregman divergence, so negatives can only be roundoff
        np.clip(terms, 0.0, None, out=terms)
        rate = np.take(Q.state_rates, at) * sigmas[rows, None]
        below = Q.inv_perm < np.take(Q.inv_perm, at)[:, :, None]
        terms *= below
        terms *= rate[:, :, None]
        if not np.isfinite(terms).all():
            b, i, y = np.argwhere(~np.isfinite(terms))[0]
            raise DivergenceError(
                f"non-finite score-entropy term at dim {i}, state {y}, t={batch.t[rows][b]:.6g}"
            )
        values[rows] = weight * terms.sum(axis=(1, 2))
        if d_out is not None:
            # d(term)/d(pre-exp output) = rate * (s - r) via the exp head
            grad = np.multiply(below, (weight / B) * rate[:, :, None], out=d_out[rows])
            grad *= diff
    return values


def score_entropy_values(ratio_fn, batch: ScoreBatch, Q, schedule: NoiseSchedule) -> np.ndarray:
    """Per-draw score-entropy values (B,), each >= 0: one ``ratio_fn`` call per memory block of ratios."""
    values = np.empty(batch.size)
    for rows in row_blocks(batch.size, Q.d * Q.n):
        part = ScoreBatch(batch.t[rows], batch.x0[rows], batch.xt[rows], batch.eps_t)
        values[rows] = _per_sample_values(ratio_fn(part.xt, part.t), part, Q, schedule)
    return values


def score_loss_and_grad(model: ScoreModel, batch: ScoreBatch, Q, schedule: NoiseSchedule, grads=None):
    """Batch loss and its exact reverse-mode gradients for a fixed batch.

    Returns (loss, grad_weights, grad_biases), the gradients shaped and laid
    out like the model parameters: written into ``grads``, an earlier call's
    (grad_weights, grad_biases), when given, else into new arrays. One
    ``ScoreModel._forward`` call over the batch keeps the activations. The
    output gradient overwrites the ratios in place and is handed to
    ``backward`` as the last entry of ``acts``, with no other reference, so
    it is freed before the one-hot input is built.
    """
    acts = []
    out = model._forward(batch.xt, time_embedding(batch.t), np.empty((batch.size, model.d * model.n)), acts)
    s = out.reshape(batch.size, model.d, model.n)
    values = _per_sample_values(s, batch, Q, schedule, d_out=s)
    acts.append(out)
    del out, s
    if grads is None:
        grads = ([np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases])
    grad_w, grad_b = model.backward(acts, grads)
    return float(values.mean()), grad_w, grad_b


def _adam_update(param, grad, m, v, scale: float) -> None:
    """One Adam step on ``param`` in place, with moments ``m`` and ``v``
    (laid out like ``param``), one cache chunk at a time.

    All four are walked in ``param``'s memory order, so chunks pair the same
    entries; a gradient in another order is copied into that order first.
    """
    if not (param.flags.c_contiguous or param.flags.f_contiguous):
        raise ValueError("a parameter must be one contiguous array to be updated in place")
    order = "C" if param.flags.c_contiguous else "F"
    p, g, m, v = (np.reshape(x, -1, order=order) for x in (param, grad, m, v))
    parts = row_blocks(p.size, 1, cache=True)
    step, scratch = np.empty(parts[0].stop), np.empty(parts[0].stop)
    for part in parts:
        gp, mp, vp = g[part], m[part], v[part]
        a, b = step[: len(mp)], scratch[: len(mp)]
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2
        mp *= ADAM_BETA1
        mp += np.multiply(1.0 - ADAM_BETA1, gp, out=a)
        vp *= ADAM_BETA2
        vp += np.multiply(1.0 - ADAM_BETA2, np.square(gp, out=a), out=a)
        # param -= scale * m / (sqrt(v) + eps)
        np.multiply(scale, mp, out=a)
        a /= np.add(np.sqrt(vp, out=b), ADAM_EPS, out=b)
        p[part] -= a


def score_learning_loop(
    model: ScoreModel,
    batches,
    Q,
    schedule: NoiseSchedule,
    max_step: int,
    eps_score: float,
    lr: float = DEFAULT_LR,
) -> ScoreModel:
    """Adam on the score-entropy loss until the step cap or smoothed loss
    drops below eps_score; aborts if the smoothed loss exceeds 10x its start.

    Every step writes its gradients into the arrays the first step made, and
    a step's batch is released after its Adam update, before the next batch
    is drawn, so only one step's arrays are alive at a time. Gradients made
    afresh each step and freed after the update would hold no more, but at
    small shapes the allocator would hand the freed top of its heap back to
    the system every step and fault it in again.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    params = model.weights + model.biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    history = []
    grads = None
    initial_smoothed = None
    for step in range(max_step):
        batch = next(batches)
        loss, grad_w, grad_b = score_loss_and_grad(model, batch, Q, schedule, grads)
        grads = (grad_w, grad_b)
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
        for param, grad, (m, v) in zip(params, grad_w + grad_b, moments):
            _adam_update(param, grad, m, v, scale)
        del batch
    return model
