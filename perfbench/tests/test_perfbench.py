"""Self-tests of the benchmark: every workload at toy size, failure
accounting on doctored outputs, and the refusal to run without sources.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layers = dict(rep.LAYER_UNITS, **{"trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_emits_every_metric(workload, trace, tmp_path):
    result, env, reps = run.run(workload, seed=3, seconds=0.1, trace=trace, toy=True, out_dir=tmp_path)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert env["absent"] == [] and env["blas_threads"] <= env["nproc"]
    if trace:
        counts = {r["layers"]["core.kernel_rows_calls"] for r in reps if "layers" in r}
        assert len(counts) == 1 and counts.pop() > 0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def _run_rep(tmp_path, capsys, workload="train-desk"):
    import markov_bridge as mb

    ckpt = tmp_path / "input.ckpt"
    workloads.write_checkpoint(mb, workloads.spec(workload, toy=True), 5, str(ckpt))
    code = rep.main(["--root", str(ROOT), "--workload", workload, "--seed", "5", "--toy",
                     "--checkpoint", str(ckpt), "--work-dir", str(tmp_path)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_nan_p0_counts_as_failed(tmp_path, capsys, monkeypatch):
    import markov_bridge as mb

    real_train = mb.train

    def nan_train(config):
        ck = real_train(config)
        ck.p0_estimate[0, 0] = np.nan
        return ck

    monkeypatch.setattr(mb, "train", nan_train)
    out = _run_rep(tmp_path, capsys)
    assert [op["ok"] for op in out["ops"]] == [False, True, True]
    assert "non-finite p0" in out["ops"][0]["reason"]


def test_out_of_range_sample_counts_as_failed(tmp_path, capsys, monkeypatch):
    import markov_bridge.cli as mb_cli

    real_generate = mb_cli.generate
    monkeypatch.setattr(mb_cli, "generate", lambda *a, **k: real_generate(*a, **k) + 100)
    out = _run_rep(tmp_path, capsys)
    assert [op["ok"] for op in out["ops"]] == [True, False, True]
    assert "outside" in out["ops"][1]["reason"]
    reps = [out, dict(out, ops=[dict(op, ok=True) for op in out["ops"]])]
    assert run.end_to_end(reps)["ok_frac"] == pytest.approx(5 / 6)


# Appended to a copy of markov_bridge/__init__.py: train() returns a NaN p0.
NAN_TRAIN = """

_real_train = train


def train(config):
    ck = _real_train(config)
    ck.p0_estimate[0, 0] = float("nan")
    return ck
"""


def test_failing_train_in_every_repetition_is_reported(tmp_path):
    """A run whose train() fails every time still prints a result, with
    the failures counted and train's metrics null."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    init = tmp_path / "src" / "markov_bridge" / "__init__.py"
    init.write_text(init.read_text() + NAN_TRAIN)
    code = "import json, run; print(json.dumps(run.run('train-desk', 3, 0.1, False, toy=True)[0]))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path / "perfbench")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert not result["correct"] and result["attempted"] >= 9
    assert result["failed"] * 3 == result["attempted"]
    assert metrics["ok_frac"] == pytest.approx(2 / 3)
    assert metrics["train_s"] is None and metrics["setup_s"] is None and metrics["elbo_bpd"] is None
    assert metrics["sample_seq_per_s"] > 0 and metrics["eval_mc_per_s"] > 0


def test_crashed_repetition_counts_all_its_ops_failed():
    proc = subprocess.CompletedProcess([], returncode=1, stdout="", stderr="Segmentation fault")
    rep_out = run.read_rep(proc, level=0)
    assert [op["ok"] for op in rep_out["ops"]] == [False] * 3
    assert "Segmentation fault" in rep_out["crashed"]
    assert run.end_to_end([rep_out]) == {
        "setup_s": None, "train_s": None, "sample_seq_per_s": None, "eval_mc_per_s": None,
        "peak_rss_mb": None, "elbo_bpd": None, "ok_frac": 0.0}
    assert all(value is None for value in run.per_layer([rep_out]).values())
    assert run.consistent([rep_out]) == []


def test_checks_reject_doctored_outputs():
    assert checks.check_sample("0 1\n1 4\n", count=2, n=4, d=2) is not None
    assert checks.check_sample("0 1\n", count=2, n=4, d=2) is not None
    assert checks.check_sample("0 1\n3 2\n", count=2, n=4, d=2) is None
    good = {"j_score": 1.0, "kl_term": 0.5, "total": 1.5, "bits_per_dim": 0.3, "mc_std_error": 0.1}
    assert checks.check_eval(good) is None
    assert checks.check_eval(dict(good, total=1.6)) is not None
    assert checks.check_eval(dict(good, mc_std_error=math.nan)) is not None
    assert checks.parse_eval("total          = nan nats\n")["total"] != 0.0


def test_missing_name_is_reported_absent_not_fatal():
    tracer = spans.Tracer(["no_such_function", "ScoreModel.no_such_method", "kernel_rows"])
    tracer.install()
    assert tracer.absent == ["no_such_function", "ScoreModel.no_such_method"]
    metrics = rep.layer_metrics(spans.SpanIndex([]), {"sampler.zero_rows": 0, "sampler.kl_mu_p0": 0.0}, "eval")
    assert all(value == 0 for value in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
