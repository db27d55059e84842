"""Each bundled self-check fails when the function it guards is broken."""

import pytest

from markov_bridge import selftest


def scaled(fn, factor):
    return lambda *args, **kwargs: factor * fn(*args, **kwargs)


def scaled_gradient(fn, factor):
    def evaluate(*args, **kwargs):
        loss, grad = fn(*args, **kwargs)
        return loss, factor * grad

    return evaluate


def faster_rates(fn):
    def solve(p, q):
        Q = fn(p, q)
        return Q.replace_a(Q.a * 1.01)

    return solve


def squared_rows(fn):
    def chunks(*args):
        for part, rows in fn(*args):
            yield part, rows * rows

    return chunks


BREAKAGES = {
    "kernel vs series oracle": ("transition_kernel", lambda fn: scaled(fn, 1.0 + 1e-6)),
    "bridge round trip": ("exact_rate_matrices", faster_rates),
    "conservation fuzz": ("evolve_rows", lambda fn: scaled(fn, 1.0 + 1e-9)),
    "score loss at the exact ratio": (
        "oracle_ratio_fn",
        lambda fn: lambda *args: scaled(fn(*args), 1.5),
    ),
    "score loss positive once perturbed": ("score_entropy_values", lambda fn: scaled(fn, 0.0)),
    "matrix-loss gradient vs finite differences": ("jq_grad", lambda fn: scaled_gradient(fn, 2.0)),
    "exact reverse step from T": ("_step_chunks", squared_rows),
}


def report(capsys):
    ok = selftest.run_selftest()
    lines = capsys.readouterr().out.splitlines()
    return ok, {line.split("] ", 1)[1].split(" (")[0]: line.startswith("[PASS]") for line in lines}


def test_all_checks_pass_unpatched(capsys):
    ok, passed = report(capsys)
    assert ok
    assert sorted(passed) == sorted(BREAKAGES)
    assert all(passed.values())


@pytest.mark.parametrize("check", sorted(BREAKAGES))
def test_broken_function_fails_its_check(check, monkeypatch, capsys):
    name, breaker = BREAKAGES[check]
    monkeypatch.setattr(selftest, name, breaker(getattr(selftest, name)))
    ok, passed = report(capsys)
    assert not ok
    assert passed[check] is False
