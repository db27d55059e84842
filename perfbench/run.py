"""Benchmark driver for markov_bridge.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. Writes the workload's input
checkpoint from ``--seed``, then starts one fresh Python process per
repetition (perfbench/rep.py), one at a time, until ``--seconds`` have been
spent, and reports the median of each metric over the repetitions. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
cycles untraced, traced and traced-with-tracemalloc repetitions and reports
the per-layer metrics of the traced ones plus the tracing overhead. A failed
operation, or a repetition that crashes, is counted in the result and does
not stop the run. The last stdout line is the result object; the line
before it records the environment. The full record, every repetition
included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads
from rep import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # pinned for steady timings; never above nproc
# Reported times are scaled to a machine on which rep.probe() takes this long.
PROBE_REF_S = 0.065
REP_TIMEOUT_S = 60
# No repetition starts that could end after this many seconds of the run.
RUN_LIMIT_S = 150
# With --trace 1 the repetitions cycle through: untraced, spans, spans and
# tracemalloc.
TRACE_CYCLE = (0, 1, 2)

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "sample_seq_per_s": "seq/s",
    "eval_mc_per_s": "draws/s",
    "peak_rss_mb": "MB",
    "elbo_bpd": "bits/dim",
    "ok_frac": "share",
}


def child_env(src: Path) -> dict:
    """The repetition's environment: the checkout's src only, pinned BLAS,
    and no DMB_SEED (load_config would let it override the workload seed)."""
    env = {k: v for k, v in os.environ.items() if k not in ("DMB_SEED", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(mb, np, root: Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
        "markov_bridge": getattr(mb, "__version__", "?"),
    }


def scale(rep) -> float:
    """Factor that turns the repetition's wall times into reference seconds."""
    return PROBE_REF_S / median(rep["probe_s"])


def _median(values):
    return median(values) if values else None


def _passed(reps, *ops) -> list:
    """The repetitions in which every one of ``ops`` succeeded."""
    return [r for r in reps if all(op["ok"] for op in r["ops"] if op["op"] in ops)]


def end_to_end(reps) -> dict:
    """Each metric is the median over the repetitions in which the
    operations behind it succeeded; with no such repetition it is None."""
    setup = [scale(r) * (r["import_s"] + r["train_setup_s"] + r["sample_setup_s"] + r["eval_setup_s"])
             for r in _passed(reps, "train", "sample", "eval")]
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(not op["ok"] for r in reps for op in r["ops"])
    return {
        "setup_s": _median(setup),
        "train_s": _median([scale(r) * r["train_s"] for r in _passed(reps, "train")]),
        "sample_seq_per_s": _median([r["sample_count"] / (scale(r) * r["generate_s"])
                                     for r in _passed(reps, "sample")]),
        "eval_mc_per_s": _median([r["mc_samples"] / (scale(r) * r["elbo_s"]) for r in _passed(reps, "eval")]),
        "peak_rss_mb": _median([r["rss_mb"] for r in reps if "crashed" not in r]),
        "elbo_bpd": _median([r["elbo_bpd"] for r in reps if r.get("elbo_bpd") is not None]),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(reps) -> dict:
    """Medians over traced repetitions. tracemalloc slows every allocation,
    so `*.peak_mb` comes from the trace-2 repetitions and everything else,
    the overhead included, from the trace-1 ones. A crashed repetition has
    no layers and is left out; a metric with no data is None."""
    kind = {level: [r for r in reps if r["trace"] == level and "crashed" not in r] for level in TRACE_CYCLE}
    ops_s = lambda r: scale(r) * (r["train_s"] + r["sample_s"] + r["eval_s"])  # noqa: E731
    out = {name: _median([r["layers"][name] for r in kind[2 if name.endswith(".peak_mb") else 1]])
           for name in LAYER_UNITS}
    traced, untraced = _median([ops_s(r) for r in kind[1]]), _median([ops_s(r) for r in kind[0]])
    out["trace.overhead_s"] = None if traced is None or untraced is None else traced - untraced
    return out


def consistent(reps) -> list:
    """Same seed, same inputs: outputs and call counts must repeat exactly."""
    problems = []
    reps = [r for r in reps if "crashed" not in r]
    for key in ("fingerprint", "elbo_bpd"):
        if len({json.dumps(r[key], sort_keys=True) for r in reps}) > 1:
            problems.append(f"{key} differs between repetitions")
    traced = [r["layers"] for r in reps if "layers" in r]
    for name in ("core.kernel_rows_calls", "core.sample_categorical_calls"):
        if len({layers[name] for layers in traced}) > 1:
            problems.append(f"{name} differs between repetitions")
    return problems


def crashed(level: int, reason: str) -> dict:
    """A repetition that exited non-zero or timed out: all its ops failed."""
    return {"trace": level, "crashed": reason,
            "ops": [{"op": op, "ok": False, "reason": reason} for op in ("train", "sample", "eval")]}


def read_rep(proc, level: int) -> dict:
    if proc.returncode != 0:
        return crashed(level, f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return crashed(level, f"repetition printed no result: {proc.stdout.strip()[-2000:]}")


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        out_dir: Path = ROOT / ".perfbench_out") -> tuple:
    """Run the repetitions; returns (result, env, reps).

    ``toy`` runs the self-tests' sizes; ``out_dir`` receives the run record
    and the span files."""
    src = ROOT / "src"
    if not (src / "markov_bridge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no markov_bridge package under {src}")
    sys.path.insert(0, str(src))
    import markov_bridge as mb
    import numpy as np

    if not Path(mb.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"markov_bridge imported from {mb.__file__}, not from {src}")
    spec = workloads.spec(workload, toy)
    env = environment(mb, np, ROOT, seed)
    env["workload"] = {"name": workload, "toy": toy, **spec}

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_tmp"))
    reps = []
    try:
        ckpt = run_dir / "input.ckpt"
        workloads.write_checkpoint(mb, spec, seed, str(ckpt))
        started = time.perf_counter()
        while True:
            level = TRACE_CYCLE[len(reps) % len(TRACE_CYCLE)] if trace else 0
            work_dir = run_dir / f"rep{len(reps)}"
            work_dir.mkdir()
            cmd = [sys.executable, str(HERE / "rep.py"), "--root", str(ROOT), "--workload", workload,
                   "--seed", str(seed), "--checkpoint", str(ckpt), "--work-dir", str(work_dir),
                   "--trace", str(level)]
            if level:
                cmd += ["--spans-out", str(out_dir / f"{workload}-seed{seed}.spans.jsonl")]
            if toy:
                cmd.append("--toy")
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(src), capture_output=True,
                                      text=True, timeout=REP_TIMEOUT_S)
                reps.append(read_rep(proc, level))
            except subprocess.TimeoutExpired:
                reps.append(crashed(level, f"repetition timed out after {REP_TIMEOUT_S} s"))
            shutil.rmtree(work_dir)
            elapsed = time.perf_counter() - started
            enough = len(reps) >= 3 and (not trace or len(reps) % len(TRACE_CYCLE) == 0)
            if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
            if elapsed + REP_TIMEOUT_S > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(not op["ok"] for r in reps for op in r["ops"])
    problems = consistent(reps)
    metrics = per_layer(reps) if trace else end_to_end(reps)
    units = dict(LAYER_UNITS, **{"trace.overhead_s": "s"}) if trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env["repetitions"] = len(reps)
    env["absent"] = sorted({name for r in reps for name in r.get("absent", ())})
    env["problems"] = problems + sorted({f"{op['op']}: {op['reason']}" for r in reps for op in r["ops"]
                                         if not op["ok"]})
    record = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"env": env, "result": result, "repetitions": reps}, indent=1))
    return result, env, reps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # running repetition, and through the finally that removes the temp dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, env, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
