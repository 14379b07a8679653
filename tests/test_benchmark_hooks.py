"""The names the benchmark reaches into by attribute still resolve.

``bench/tracer.py`` patches functions and methods by (module, attribute),
and ``bench/worker.py`` clears two caches before every operation; a rename
in the package would otherwise fail only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", sorted(tracer.FUNCTIONS))
def test_traced_function_resolves(name):
    module, attr = tracer.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(tracer.METHODS))
def test_traced_method_resolves(name):
    module, owner, attr = tracer.METHODS[name]
    assert callable(getattr(getattr(importlib.import_module(module), owner), attr))


@pytest.mark.parametrize("module, attr", [("schurbox.algebra", "basis_product"), ("schurbox.oracle", "pair_table")])
def test_cleared_cache_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr).cache_clear)
