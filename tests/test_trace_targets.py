"""Every function the benchmark traces must exist under the name it traces.

``bench/spans.py`` wraps package functions by (module, attribute) name, so
renaming or removing one of them breaks ``bench/run.py --trace 1``.  This
test makes the same break fail the unit suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("consem_bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module of a class through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_TARGETS = [(module, attr) for module, attr, _, _ in _load_spans().targets()]


@pytest.mark.parametrize("module,attr", _TARGETS, ids=[f"{m}.{a}" for m, a in _TARGETS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_traced_optimizer_step_resolves():
    assert callable(getattr(importlib.import_module("consem.optim").AdamW, "step", None))
