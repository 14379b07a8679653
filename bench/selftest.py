"""Self-test of the benchmark, at tiny shapes through the same code path.

- The dense pins (both scales) are re-derived with the ``mendez`` and
  ``euler`` engines through ``sweep_case.py``, under the scale's memory cap
  and a deadline long enough for ``euler``, so a pin cannot encode a wrong
  answer.
- Every workload runs with ``--trace 0`` and ``--trace 1``; every metric
  that BENCHMARK.json names is emitted with its unit, ``failed_ratio`` is
  printed, and the traced counts repeat exactly on a second traced run.
- In a copy of the benchmark and the package source whose ``pins.json``
  has one digest flipped, the command must report ``failed_ratio`` > 0 and
  exit nonzero.
- A directory holding only BENCHMARK.json and the benchmark must make the
  command exit nonzero without printing a result.

Prints one PASS or FAIL line per check; exits 1 when any check fails.
"""

import json
import math
import re
import shutil
import subprocess
import sys

import workloads
from run import BENCH, ROOT, SRC, sweep_case

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 600
REDERIVE_DEADLINE_S = 120  # euler needs about 10 s on [[3,3],[3,3]] and on [[4,2],[2,4]]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def _failed_ratios(proc) -> list[float]:
    return [float(m) for m in re.findall(r"failed_ratio=(\S+)", proc.stdout)]


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for scale in ("tiny", "full"):
            spec, pins = workloads.SCALES[scale], workloads.load_pins(scale)
            for engine in ("mendez", "euler"):
                keys = [workloads.matrix_key(matrix) for matrix in spec["ladder"]]
                wrong = []
                for key in keys:
                    report, stderr = sweep_case(engine, key, REDERIVE_DEADLINE_S, spec["cap_mb"])
                    if report is None or report["status"] != "ok" or report["digest"] != pins[key]:
                        wrong.append(key)
                        print(f"{engine} {key}: {report or stderr}")
                expect(not wrong, f"{engine} re-derives the {scale} dense pins ({len(keys)} products)")

        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
                proc = _run(*args)
                result = _result(proc)
                label = f"{workload} --trace {trace}"
                expect(proc.returncode == 0 and result is not None, f"{label} exits 0 with a result line")
                if result is None:
                    continue
                expect(
                    result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{label} is correct",
                )
                got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
                expect(got == wanted[trace], f"{label} emits every declared metric with its unit")
                expect(_failed_ratios(proc) == [0.0], f"{label} prints failed_ratio 0")
                if trace == 1:
                    again = _result(_run(*args)) or {"metrics": {}}
                    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
                    repeat = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}
                    expect(counts == repeat, f"{label} counts repeat exactly")
                if trace == 1 and workload == "table-sparse":
                    n, d = workloads.SCALES["tiny"]["table"]
                    products = math.comb(n * n + d - 1, d) ** 2
                    metrics = {k: v["value"] for k, v in result["metrics"].items()}
                    expect(
                        metrics["algebra.basis_product.calls"] == products
                        and metrics["algebra.basis_product.cache_entries"] == products
                        and metrics["algebra.basis_product.hit_ratio"] == 0
                        and metrics["serialize.table_line.calls"] == products,
                        f"{label} counts every one of the {products} products once",
                    )

        copy = workdir / "corrupt"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(BENCH, copy / BENCH.name, ignore=ignore)
        shutil.copytree(SRC, copy / SRC.name, ignore=ignore)
        first_ladder = workloads.matrix_key(workloads.SCALES["tiny"]["ladder"][0])
        for workload, key in (("table-sparse", "table"), ("dense-multiply", first_ladder)):
            pins = json.loads(workloads.PINS_PATH.read_text())
            digest = pins["tiny"][key]
            pins["tiny"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
            (copy / BENCH.name / workloads.PINS_PATH.name).write_text(json.dumps(pins, indent=2) + "\n")
            proc = _run("--workload", workload, "--seconds", "1", "--scale", "tiny", cwd=copy)
            result = _result(proc)
            expect(
                proc.returncode != 0
                and result is not None
                and result["correct"] is False
                and result["failed"] > 0
                and _failed_ratios(proc) != []
                and all(ratio > 0 for ratio in _failed_ratios(proc)),
                f"{workload}: a corrupted {key} pin makes failed_ratio > 0 and the command exit nonzero",
            )

        bare = workdir / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("--workload", "table-sparse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        expect(
            proc.returncode != 0 and _result(proc) is None,
            "without the package source the command exits nonzero and prints no result",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"self-test: {len(problems)} failed")
    return 1 if problems else 0
