"""One repetition of a workload, run by run.py in a fresh Python process.

Imports the package from ``<root>/src``, wraps its functions (a few op-level
timers when untraced, every traced name when traced), then runs the
workload's session through public entry points only: ``train()``,
``cli(["sample", ...])`` and ``cli(["eval", ...])``. Checks each output and
prints one JSON object with the raw measurements as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

import checks
import spans
import workloads

SAMPLER_UNDER = ("estimate_mu", "generate")

# name -> unit of every per-layer metric; run.py adds trace.overhead_s.
LAYER_UNITS = {
    "data.load_s": "s",
    "solver.init_s": "s",
    "matrix_learning.stage_s": "s",
    "matrix_learning.grad_calls": "count",
    "matrix_learning.grad_s": "s",
    "matrix_learning.steps_accepted": "count",
    "matrix_learning.kernel_calls": "count",
    "matrix_learning.kernel_s": "s",
    "matrix_learning.peak_mb": "MB",
    "score_learning.stage_s": "s",
    "score_learning.steps": "count",
    "score_learning.batch_s": "s",
    "score_learning.batch.kernel_rows_s": "s",
    "score_learning.batch.kernel_rows_calls": "count",
    "score_learning.loss.kernel_rows_s": "s",
    "score_learning.loss.kernel_rows_calls": "count",
    "score_learning.dense_s": "s",
    "score_learning.mlp_bwd_s": "s",
    "score_learning.self_s": "s",
    "score_learning.peak_mb": "MB",
    "sampler.mu_s": "s",
    "sampler.generate_s": "s",
    "sampler.steps": "count",
    "sampler.ratio_s": "s",
    "sampler.dense_s": "s",
    "sampler.categorical_s": "s",
    "sampler.categorical_calls": "count",
    "sampler.zero_rows": "count",
    "sampler.kl_mu_p0": "nats",
    "sampler.peak_mb": "MB",
    "evaluation.elbo_s": "s",
    "evaluation.kernel_rows_s": "s",
    "evaluation.ratio_s": "s",
    "evaluation.peak_mb": "MB",
    "evaluation.mc_std_error": "nats",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "B",
    "core.kernel_rows_calls": "count",
    "core.sample_categorical_calls": "count",
}


def probe() -> float:
    """Seconds taken by a fixed mix of numpy work: a small matmul and tanh
    (the MLP), exp and a reduction over a (256, 27, 64) array (the bridge
    arithmetic) and a Python loop of small calls (per-call overhead).

    The machine's speed drifts by up to 40% in phases that outlast a run,
    and this probe slows with it. Each repetition runs it twice before each
    op and twice after the last, and run.py scales the repetition's times
    by PROBE_REF_S over the median probe time. The large
    buffers are allocated and touched before the clock starts, so the probe
    times computation and not first-touch page faults.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((128, 128))
    m = np.empty_like(a)
    x = rng.random((256, 27, 64))
    buf = np.empty_like(x)
    start = time.perf_counter()
    for _ in range(40):
        np.tanh(np.matmul(a, a, out=m), out=m)
        np.exp(np.negative(x, out=buf), out=buf).sum(axis=2)
        for row in a[:64]:
            np.cumsum(row)
    return time.perf_counter() - start


def _first_start(ix, names, under):
    starts = [ix.spans[i][1] for name in names for i in ix.select(name, under=(under,))]
    return min(starts) if starts else None


def op_timings(ix, absent) -> dict:
    """Op wall times and the set-up share of each op, from the span list."""
    out = {}
    for op, work in (("train", spans.STAGES), ("sample", ("generate",)), ("eval", ("elbo_estimate",))):
        (idx,) = ix.select("op." + op)
        start, dur = ix.spans[idx][1], ix.dur(idx)
        first = _first_start(ix, work, "op." + op)
        if first is None:  # no work span seen: count the whole op as work
            absent.append(f"{op} work span")
            first = start
        out[op + "_s"] = dur
        out[op + "_setup_s"] = first - start
    out["generate_s"] = ix.total("generate", under=("op.sample",)) or out["sample_s"]
    out["elbo_s"] = ix.total("elbo_estimate", under=("op.eval",)) or out["eval_s"]
    return out


def layer_metrics(ix, extras: dict, elbo_from: str) -> dict:
    """Every per-layer metric; a layer whose names are absent reads 0."""
    score = ("score_learning_loop",)
    matrix = ("matrix_learning_loop",)
    elbo = ("elbo_estimate",)
    peaks = lambda names: max((v for n in names for v in ix.extra(n, "peak_mb")), default=0.0)  # noqa: E731
    mc_se = [ix.spans[i][4]["mc_std_error"] for i in ix.select("elbo_estimate", under=("op." + elbo_from,))
             if ix.spans[i][4] and "mc_std_error" in ix.spans[i][4]]
    sizes = ix.extra("save_checkpoint", "bytes")
    m = {
        "data.load_s": ix.total("load_dataset"),
        "solver.init_s": ix.total("estimate_marginals") + ix.total("permutation_from_data"),
        "matrix_learning.stage_s": ix.total("matrix_learning_loop"),
        "matrix_learning.grad_calls": ix.count("jq_grad"),
        "matrix_learning.grad_s": ix.total("jq_grad"),
        "matrix_learning.steps_accepted": sum(ix.extra("matrix_learning_loop", "accepted")),
        "matrix_learning.kernel_calls": ix.count("transition_kernel", under=matrix),
        "matrix_learning.kernel_s": ix.total("transition_kernel", under=matrix),
        "matrix_learning.peak_mb": peaks(matrix),
        "score_learning.stage_s": ix.total("score_learning_loop"),
        "score_learning.steps": ix.count("make_score_batch", under=score),
        "score_learning.batch_s": ix.total("make_score_batch", under=score),
        "score_learning.batch.kernel_rows_s": ix.total("kernel_rows", under=("make_score_batch",)),
        "score_learning.batch.kernel_rows_calls": ix.count("kernel_rows", under=("make_score_batch",)),
        "score_learning.loss.kernel_rows_s": ix.total("kernel_rows", score, ("make_score_batch",)),
        "score_learning.loss.kernel_rows_calls": ix.count("kernel_rows", score, ("make_score_batch",)),
        "score_learning.dense_s": ix.total("materialize_dense", under=score),
        "score_learning.mlp_bwd_s": ix.total("ScoreModel.backward", under=score),
        "score_learning.self_s": ix.self_time("score_learning_loop"),
        "score_learning.peak_mb": peaks(score),
        "sampler.mu_s": ix.total("estimate_mu"),
        "sampler.generate_s": ix.total("generate"),
        "sampler.steps": ix.count("ScoreModel.forward_batch", under=SAMPLER_UNDER),
        "sampler.ratio_s": ix.total("ScoreModel.forward_batch", under=SAMPLER_UNDER),
        "sampler.dense_s": ix.total("materialize_dense", under=SAMPLER_UNDER),
        "sampler.categorical_s": ix.total("sample_categorical", under=SAMPLER_UNDER),
        "sampler.categorical_calls": ix.count("sample_categorical", under=SAMPLER_UNDER),
        "sampler.peak_mb": peaks(SAMPLER_UNDER),
        "evaluation.elbo_s": ix.total("elbo_estimate"),
        "evaluation.kernel_rows_s": ix.total("kernel_rows", under=elbo),
        "evaluation.ratio_s": ix.total("ScoreModel.forward_batch", under=elbo),
        "evaluation.peak_mb": peaks(elbo),
        "evaluation.mc_std_error": mc_se[-1] if mc_se else 0.0,
        "checkpoint.save_s": ix.total("save_checkpoint"),
        "checkpoint.load_s": ix.total("load_checkpoint"),
        "checkpoint.bytes": sizes[-1] if sizes else 0,
        "core.kernel_rows_calls": ix.count("kernel_rows"),
        "core.sample_categorical_calls": ix.count("sample_categorical"),
    }
    m.update(extras)
    if set(m) != set(LAYER_UNITS):
        raise KeyError(f"layer metrics and LAYER_UNITS differ: {sorted(set(m) ^ set(LAYER_UNITS))}")
    return m


def _zero_rows(absent):
    diag = getattr(sys.modules.get("markov_bridge.sampler"), "diagnostics", None)
    if not isinstance(diag, dict):
        absent.append("sampler.diagnostics")
        return 0
    return sum(diag.values())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checkpoint", required=True, help="input checkpoint for sample and eval")
    p.add_argument("--work-dir", required=True, help="scratch dir; train's out_dir goes here")
    p.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                   help="0: op timers only; 1: spans; 2: spans and tracemalloc peaks")
    p.add_argument("--spans-out", default=None, help="file the traced spans are written to")
    p.add_argument("--toy", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import markov_bridge as mb
    from markov_bridge.cli import cli

    import_s = time.perf_counter() - t0
    src = os.path.join(os.path.abspath(args.root), "src") + os.sep
    if not os.path.abspath(mb.__file__).startswith(src):
        print(f"markov_bridge imported from {mb.__file__}, not from {src}", file=sys.stderr)
        return 3

    probes = []
    spec = workloads.spec(args.workload, args.toy)
    n, d = spec["n"], spec["d"]
    memory = args.trace == 2
    tracer = spans.Tracer(spans.FULL if args.trace else spans.STAGES, memory=memory)
    tracer.install()
    absent = tracer.absent
    zero_before = _zero_rows(absent)

    @contextlib.contextmanager
    def op_span(name):
        # tracemalloc runs only inside ops, so the probes between them are
        # timed the same way in every kind of repetition
        if memory:
            tracemalloc.start()
        try:
            with tracer.span(name):
                yield
        finally:
            if memory:
                tracemalloc.stop()

    ops = []
    fingerprint = {}
    elbo_bpd = None
    kl_mu = 0.0

    def record(op, reason):
        ops.append({"op": op, "ok": reason is None, "reason": reason})

    probes += [probe(), probe()]
    config = mb.parse_config_text(workloads.config_text(spec, args.seed, os.path.join(args.work_dir, "train")))
    with op_span("op.train"):
        try:
            ck = mb.train(config)
        except Exception:  # an op failure is counted, not fatal to the run
            ck = None
            reason = traceback.format_exc(limit=3)
    if ck is not None:
        reason = checks.check_train(ck, n, d)
    record("train", reason)
    if reason is None:
        history = ck.epoch_history
        fingerprint["train"] = _digest(history.tobytes().hex() + ck.p0_estimate.tobytes().hex())
        if spec["elbo_from"] == "train":
            elbo_bpd = float(history[-1][2])
        kl_mu = float(history[-1][3]) if history.shape[1] > 3 else 0.0

    probes += [probe(), probe()]
    out_path = os.path.join(args.work_dir, "samples.txt")
    count, steps = spec["sample"]["count"], spec["sample"]["steps"]
    err = io.StringIO()
    with op_span("op.sample"), contextlib.redirect_stderr(err):
        code = cli(["sample", args.checkpoint, "--count", str(count), "--steps", str(steps), "--out", out_path])
    reason = f"exit {code}: {err.getvalue().strip()}" if code != 0 else None
    if reason is None:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        reason = checks.check_sample(text, count, n, d)
        fingerprint["sample"] = _digest(text)
    record("sample", reason)

    probes += [probe(), probe()]
    mc = spec["eval"]["mc_samples"]
    out, err = io.StringIO(), io.StringIO()
    with op_span("op.eval"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(["eval", args.checkpoint, "--mc-samples", str(mc)])
    reason = f"exit {code}: {err.getvalue().strip()}" if code != 0 else None
    if reason is None:
        values = checks.parse_eval(out.getvalue())
        reason = checks.check_eval(values)
        fingerprint["eval"] = _digest(out.getvalue())
        if reason is None and spec["elbo_from"] == "eval":
            elbo_bpd = values["bits_per_dim"]
    record("eval", reason)

    probes += [probe(), probe()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ix = spans.SpanIndex(tracer.spans)
    for name, key in (("matrix_learning_loop", "accepted"), ("elbo_estimate", "mc_std_error"),
                      ("save_checkpoint", "bytes")):
        if ix.select(name) and not ix.extra(name, key):
            absent.append(f"{name}:{key}")
    rep = {
        "trace": args.trace,
        "ops": ops,
        "import_s": import_s,
        "probe_s": probes,
        "rss_mb": rss_mb,
        "elbo_bpd": elbo_bpd,
        "fingerprint": fingerprint,
        "absent": absent,
        "sample_count": count,
        "mc_samples": mc,
        **op_timings(ix, absent),
    }
    if args.trace:
        extras = {"sampler.zero_rows": _zero_rows([]) - zero_before, "sampler.kl_mu_p0": kl_mu}
        rep["layers"] = layer_metrics(ix, extras, spec["elbo_from"])
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
