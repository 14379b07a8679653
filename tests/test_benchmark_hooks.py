"""The names the benchmark reaches into by attribute still resolve.

``bench/tracer.py`` patches functions and methods by (module, attribute),
``bench/worker.py`` clears two caches before every operation, and
``bench/workloads.py`` passes fixed command lines to ``schurbox.cli``; a
rename or a dropped option in the package would otherwise fail only when the
benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from schurbox import cli


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_bench("tracer")
workloads = _load_bench("workloads")


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


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_command_lines_parse(workload, tmp_path):
    parser = cli.build_parser()
    for op in workloads.ops(workload, "tiny", 1, tmp_path):
        args = parser.parse_args(list(op.argv))
        assert callable(args.func), op.argv
