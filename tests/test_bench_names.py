"""The names the benchmark traces and reads exist in the package, the
inputs it writes load, and its output checks pass.

perfbench wraps functions by name and reports a missing one as 0 rather than
failing, so a rename would silently zero its metrics. This pins the names,
the result attributes its hooks read, and its input files. A config key the
package no longer knows, or a `dmb eval` whose total is not j_score +
kl_term, would fail every repetition of the benchmark: its output checks run
here on the toy session.
"""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import markov_bridge
from markov_bridge import FactorizedRateMatrix, NoiseSchedule, ProductDistribution, parse_config_text
from markov_bridge.cli import cli
from markov_bridge.core import state_frequencies
from markov_bridge.training import restore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    return perfbench_module("spans").FULL


MODULES = [markov_bridge] + [
    importlib.import_module(f"markov_bridge.{info.name}") for info in pkgutil.iter_modules(markov_bridge.__path__)
]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_defined(name):
    if "." in name:
        cls_name, attr = name.split(".", 1)
        classes = [vars(mod)[cls_name] for mod in MODULES if isinstance(vars(mod).get(cls_name), type)]
        assert any(callable(vars(cls).get(attr)) for cls in classes), name
    else:
        found = [vars(mod).get(name) for mod in MODULES]
        assert any(callable(fn) and not isinstance(fn, type) for fn in found), name


def test_sampler_diagnostics_is_a_dict():
    assert isinstance(markov_bridge.sampler.diagnostics, dict)


def test_reverse_sampler_draws_through_the_traced_categorical(monkeypatch):
    # perfbench's sampler.categorical_* count and time sample_categorical
    # under generate and estimate_mu: one call per cache chunk of each sampled
    # step, and estimate_mu averages its last step's rows instead
    rng = np.random.default_rng(11)
    n, d, count, steps = 8, 4, 5000, 4
    Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.3, 1.5, (d, n - 1)))
    terminal = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
    table = rng.uniform(0.0, 3.0, (d, n, n))
    args = (terminal, Q, NoiseSchedule(), lambda xt, t: table[np.arange(d), xt])
    run_generate = lambda: markov_bridge.generate(*args, np.random.default_rng(1), count, steps, 1e-3)
    run_mu = lambda: markov_bridge.estimate_mu(*args, np.random.default_rng(2), count, steps, 1e-3).probs
    want_draws, want_p0 = run_generate(), run_mu()
    blocks = markov_bridge.core.row_blocks(count, d * n)
    chunks = sum(len(markov_bridge.core.row_blocks(b.stop - b.start, d * n, cache=True)) for b in blocks)
    assert chunks > 1
    calls = []
    draw = markov_bridge.sampler.sample_categorical
    monkeypatch.setattr(markov_bridge.sampler, "sample_categorical", lambda slabs, u: calls.append(1) or draw(slabs, u))
    assert np.array_equal(run_generate(), want_draws) and len(calls) == steps * chunks
    calls.clear()
    assert np.array_equal(run_mu(), want_p0) and len(calls) == (steps - 1) * chunks


# perfbench's hooks read two attributes of stage results, and a missing or
# zero value reads as absent: matrix_learning.steps_accepted is the length of
# matrix_learning_loop's loss_history less one, evaluation.mc_std_error is
# elbo_estimate's standard error.


def test_matrix_loop_history_counts_the_accepted_steps():
    # the case of test_matrix_learning's TestOneEvaluationPerCandidate, where
    # every step takes its first candidate
    rng = np.random.default_rng(241)
    n, d, k = 4, 2, 6
    Q = FactorizedRateMatrix(np.stack([rng.permutation(n) for _ in range(d)]), rng.uniform(0.3, 1.5, (d, n - 1)))
    p0 = ProductDistribution(rng.dirichlet(np.ones(n), size=d))
    freqs = state_frequencies(rng.integers(0, n, size=(16, d)), n)
    fit = markov_bridge.matrix_learning_loop(Q, p0, freqs, NoiseSchedule(0.4, 2.0), max_step=k, eps_Q=0.0,
                                             step_size=0.05)
    assert len(fit.loss_history) == 1 + k
    assert not np.array_equal(fit.Q.a, Q.a)


def test_elbo_report_has_a_finite_standard_error():
    rng = np.random.default_rng(5)
    n, d = 3, 2
    Q = FactorizedRateMatrix(np.tile(np.arange(n), (d, 1)), rng.uniform(0.3, 1.5, (d, n - 1)))
    terminal = ProductDistribution.uniform(n, d)
    report = markov_bridge.elbo_estimate(
        lambda xt, t: np.ones((xt.shape[0], d, n)), rng.integers(0, n, size=(20, d)), Q, NoiseSchedule(),
        terminal, 64, rng,
    )
    assert np.isfinite(report.mc_std_error) and report.mc_std_error > 0.0


workloads = perfbench_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_checkpoint_loads_and_restores(workload, tmp_path):
    # write_checkpoint saves through the module it is given, so a stand-in
    # keeps the checkpoint it built
    written = []

    def save(ck, path):
        written.append(ck)
        markov_bridge.save_checkpoint(ck, path)

    mb = types.SimpleNamespace(Checkpoint=markov_bridge.Checkpoint, checkpoint=markov_bridge.checkpoint,
                               save_checkpoint=save)
    path = str(tmp_path / "bench.ckpt")
    workloads.write_checkpoint(mb, workloads.spec(workload, toy=True), 1, path)
    (ck,) = written
    loaded = markov_bridge.load_checkpoint(path)
    assert (loaded.config_text, loaded.epoch, loaded.rng_state) == (ck.config_text, ck.epoch, ck.rng_state)
    _, _, Q, model, p0 = restore(loaded)
    pairs = [(Q.perm, ck.perms), (Q.a, ck.a), (p0.probs, ck.p0_estimate), (loaded.epoch_history, ck.epoch_history)]
    pairs += list(zip(model.weights + model.biases, ck.score_weights + ck.score_biases))
    assert all(np.array_equal(got, want) for got, want in pairs)


checks = perfbench_module("checks")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_config_parses(workload, tmp_path):
    spec = workloads.spec(workload)
    config = parse_config_text(workloads.config_text(spec, 1, str(tmp_path)))
    assert (config.n, config.d, config.seed, config.out_dir) == (spec["n"], spec["d"], 1, str(tmp_path))


def test_toy_session_passes_the_benchmark_checks(tmp_path, capsys):
    # the session of every benchmark repetition, at the self-tests' sizes
    spec = workloads.spec("train-desk", toy=True)
    n, d = spec["n"], spec["d"]
    ck = markov_bridge.train(parse_config_text(workloads.config_text(spec, 1, str(tmp_path / "train"))))
    assert checks.check_train(ck, n, d) is None
    path = str(tmp_path / "bench.ckpt")
    workloads.write_checkpoint(markov_bridge, spec, 1, path)
    out = tmp_path / "samples.txt"
    count, steps = spec["sample"]["count"], spec["sample"]["steps"]
    assert cli(["sample", path, "--count", str(count), "--steps", str(steps), "--out", str(out)]) == 0
    assert checks.check_sample(out.read_text(encoding="utf-8"), count, n, d) is None
    capsys.readouterr()
    assert cli(["eval", path, "--mc-samples", str(spec["eval"]["mc_samples"])]) == 0
    assert checks.check_eval(checks.parse_eval(capsys.readouterr().out)) is None
