"""The names the benchmark reaches into by attribute still resolve.

``bench/tracer.py`` patches functions and methods by (module, attribute),
``bench/worker.py`` clears two caches before every operation, and
``bench/workloads.py`` passes fixed command lines to ``schurbox.cli``; a
rename or a dropped option in the package would otherwise fail only when the
benchmark runs.  The traced worker and the dense sweep's cases also run here
whole, at the benchmark's tiny scale.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurbox import cli
from schurbox.verify import CHECK_NAMES


ROOT = Path(__file__).resolve().parents[1]


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
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
    # at both scales, and on cli's quick path, which builds no parser and must read them as argparse does
    parser = cli.build_parser()
    for scale in workloads.SCALES:
        for op in workloads.ops(workload, scale, 1, tmp_path):
            args = parser.parse_args(list(op.argv))
            assert callable(args.func), op.argv
            assert vars(cli._quick_args(list(op.argv))) == vars(args), op.argv


def _run_bench_script(name, *args):
    """Run one script of ``bench/`` on the package in ``src``; its last stdout line, parsed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / f"{name}.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_worker_runs_every_operation(workload, tmp_path):
    report = _run_bench_script(
        "worker", "--workload", workload, "--scale", "tiny", "--seed", "1", "--jobs", "1",
        "--trace", "--workdir", str(tmp_path),
    )
    assert report["ops"]
    assert [op["error"] for op in report["ops"] if not op["ok"]] == []
    assert "layers" in report


def test_traced_verify_times_every_suite(tmp_path):
    # a suite that run_checks calls through a reference the tracer cannot patch would read 0 s
    report = _run_bench_script(
        "worker", "--workload", "verify-oracle", "--scale", "tiny", "--seed", "1", "--jobs", "1",
        "--trace", "--workdir", str(tmp_path),
    )
    assert [name for name in CHECK_NAMES if not report["layers"][f"verify.{name}.s"] > 0] == []


@pytest.mark.parametrize("engine", workloads.ENGINES)
def test_dense_sweep_case_reports_a_status(engine):
    report = _run_bench_script(
        "sweep_case", "--engine", engine, "--matrix", "[[3,3],[3,3]]", "--deadline", "0.5", "--cap-mb", "256"
    )
    assert report["status"] in ("ok", "timeout", "oom")
