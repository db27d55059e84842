"""In-memory span recorder that wraps the package's functions by name.

A function is wrapped in every ``markov_bridge`` module that looks it up
under the traced name (the defining module included), so a call is seen
whichever module makes it. A name that no module defines any more is listed
in ``Tracer.absent`` and its metrics read 0; nothing fails, so the benchmark
survives refactors that delete or rename a function.

Spans are ``[name, start, end, parent, extra]`` rows kept in a list and
written out only when the repetition ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc

PACKAGE = "markov_bridge"

# Stage-level spans: the only ones that measure peak traced memory, and the
# only names an untraced repetition wraps (for setup_s and the throughput
# timers; one call each per epoch or command, so nearly free).
STAGES = ("matrix_learning_loop", "score_learning_loop", "estimate_mu", "generate", "elbo_estimate")

FULL = STAGES + (
    "load_dataset",
    "estimate_marginals",
    "permutation_from_data",
    "jq_grad",
    "transition_kernel",
    "make_score_batch",
    "kernel_rows",
    "materialize_dense",
    "sample_categorical",
    "save_checkpoint",
    "load_checkpoint",
    "ScoreModel.backward",
    "ScoreModel.forward_batch",
)


# Hooks read a value around a call. Each tolerates the value being gone, so
# a refactor that drops it leaves the metric at 0 instead of failing the op.

def _after_matrix_loop(args, kwargs):
    # steps accepted = entries the loop appends to the state's loss_history
    state = args[0] if args else kwargs.get("state")
    before = len(getattr(state, "loss_history", ()))

    def after(result):
        history = getattr(result, "loss_history", None)
        return None if history is None else {"accepted": len(history) - before}

    return after


def _after_save(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return lambda result: {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else None


def _after_elbo(args, kwargs):
    return lambda result: ({"mc_std_error": float(result.mc_std_error)}
                           if hasattr(result, "mc_std_error") else None)


HOOKS = {
    "matrix_learning_loop": _after_matrix_loop,
    "save_checkpoint": _after_save,
    "elbo_estimate": _after_elbo,
}


class Tracer:
    """Records a span around every call of the wrapped names."""

    def __init__(self, names, memory: bool = False):
        self.names = tuple(names)
        self.memory = memory
        self.spans = []
        self.stack = []
        self.absent = []
        self._mem_open = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if self.memory and name in STAGES and self._mem_open is None:
            self._mem_open = (idx, tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if self._mem_open is not None and self._mem_open[0] == idx:
            peak = tracemalloc.get_traced_memory()[1] - self._mem_open[1]
            extra = dict(extra or {}, peak_mb=peak / 2**20)
            self._mem_open = None
        span[4] = extra

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = hook(args, kwargs) if hook else None
            idx = self.open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra = after(result)
                return result
            finally:
                self.close(idx, extra)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced name in every loaded package module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in self.names:
            found = False
            if "." in name:
                cls_name, attr = name.split(".", 1)
                for mod in modules:
                    cls = vars(mod).get(cls_name)
                    if isinstance(cls, type) and attr in vars(cls):
                        fn = vars(cls)[attr]
                        if not hasattr(fn, "__perfbench_wrapped__"):
                            setattr(cls, attr, self._wrap(fn, name))
                        found = True
            else:
                originals = {}
                for mod in modules:
                    fn = vars(mod).get(name)
                    if callable(fn) and not isinstance(fn, type):
                        fn = getattr(fn, "__perfbench_wrapped__", fn)
                        if id(fn) not in originals:
                            originals[id(fn)] = self._wrap(fn, name)
                        setattr(mod, name, originals[id(fn)])
                        found = True
            if not found:
                self.absent.append(name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "extra": extra}) + "\n")


class SpanIndex:
    """Queries over a finished span list: durations, ancestry and self time."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.by_name = {}
        below = {-1: frozenset()}  # names of a span and its ancestors
        self.anc = []
        for idx, span in enumerate(spans):
            parent = span[3]
            if parent >= 0:
                self.children[parent].append(idx)
            self.anc.append(below[parent])
            below[idx] = below[parent] | {span[0]}
            self.by_name.setdefault(span[0], []).append(idx)

    def dur(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def select(self, name: str, under=(), not_under=()):
        """Indices of ``name`` spans with an ancestor in ``under`` (if given)
        and none in ``not_under``."""
        return [i for i in self.by_name.get(name, ())
                if (not under or self.anc[i].intersection(under))
                and not self.anc[i].intersection(not_under)]

    def total(self, name: str, under=(), not_under=()) -> float:
        return sum(self.dur(i) for i in self.select(name, under, not_under))

    def count(self, name: str, under=(), not_under=()) -> int:
        return len(self.select(name, under, not_under))

    def self_time(self, name: str) -> float:
        """Duration of every ``name`` span minus the time its children cover."""
        return sum(self.dur(i) - sum(self.dur(c) for c in self.children[i])
                   for i in self.select(name))

    def extra(self, name: str, key: str):
        """Values of ``extra[key]`` over the ``name`` spans, in call order."""
        return [self.spans[i][4][key] for i in self.select(name)
                if self.spans[i][4] and key in self.spans[i][4]]
