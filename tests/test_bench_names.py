"""The names the benchmark traces and reads exist in the package.

perfbench wraps functions by name and reports a missing one as 0 rather than
failing, so a rename would silently zero its metrics. This pins the names.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import markov_bridge

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FULL


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
