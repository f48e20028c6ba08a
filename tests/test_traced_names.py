"""The benchmark traces ivforest functions by name; every name must resolve.

``bench/spans.py`` wraps ``module.function`` names from ``LAYER_OF`` and
``FIT_PREDICT`` at run time. A refactor that deletes or renames one of
them breaks the benchmark run, so this test fails first. The file is
loaded by path and imports only the standard library.
"""

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


@pytest.mark.parametrize("qualified", sorted(set(spans.LAYER_OF) | set(spans.FIT_PREDICT)))
def test_traced_name_resolves(qualified):
    module_name, function_name = qualified.split(".")
    module = importlib.import_module(f"ivforest.{module_name}")
    assert callable(getattr(module, function_name, None)), f"ivforest.{qualified} is gone"
