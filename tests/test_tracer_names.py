"""Every quline name the benchmark tracer (``bench/spans.py``) wraps must
exist, or ``bench/run.py --trace 1`` stops with AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, attr", spans.FUNCTIONS)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS)
def test_traced_method_exists(module, cls, method, span):
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])
