"""The schurbox benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload table-sparse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another
    python3 bench/run.py --self-test               # tiny shapes, same code path

``--trace 0`` reports the end-to-end metrics (medians over the run),
``--trace 1`` the per-layer ones.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
command exits 1 when any operation failed or was wrong, and 2, printing no
result, when the package source is missing.  README.md in this directory
describes the workloads, the metrics and what each layer metric should move.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES_PER_PASS = 8
MIN_PASSES = 3
WORKER_TIMEOUT_S = 170
SETUP_CODE = "import time; import schurbox.cli as cli; cli.build_parser(); print(time.thread_time())"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_child(cmd: list[str], timeout: float, **extra_env) -> tuple[dict | None, str]:
    """Run a child in its own process group and wait for it.

    Returns the JSON object on its last stdout line (None when it crashed or
    ran out of time) and the tail of its stderr.  The whole group, pool
    workers included, is killed on timeout or when this process is stopped.
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(**extra_env), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, f"timed out after {timeout} s"
    try:
        return json.loads(out.strip().splitlines()[-1]), err[-2000:]
    except (IndexError, ValueError):
        return None, err[-2000:]


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def source_identity() -> dict:
    """The git commit when there is one, and always a digest of the package source."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    files = sorted((SRC / "schurbox").glob("*.py"))
    digest = workloads.sha256_bytes(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files))
    return {"commit": commit, "source_sha256": digest}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def sweep_case(engine: str, key: str, deadline: float, cap_mb: int) -> tuple[dict | None, str]:
    """One engine squaring one graph in its own capped, deadlined process (see sweep_case.py)."""
    cmd = [
        sys.executable, str(BENCH / "sweep_case.py"), "--engine", engine, "--matrix", key,
        "--deadline", str(deadline), "--cap-mb", str(cap_mb),
    ]
    return run_child(cmd, deadline + 60, OPENBLAS_NUM_THREADS="1")


class Bench:
    def __init__(self, scale: str, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.pins = workloads.load_pins(scale)
        self.attempted = 0
        self.failed = 0
        self._probes = None

    def run_pass(self, workload: str, jobs: int = 2, trace: bool = False) -> dict:
        """One pass in a fresh worker; failed operations are counted here."""
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--scale", self.scale,
            "--seed", str(self.seed), "--workdir", str(self.workdir), "--jobs", str(jobs),
        ]
        if trace:
            cmd.append("--trace")
        report, stderr = run_child(cmd, WORKER_TIMEOUT_S)
        if report is None:
            count = len(workloads.ops(workload, self.scale, self.seed, self.workdir, jobs))
            print(f"worker failed: {stderr}", file=sys.stderr)
            self.attempted += count
            self.failed += count
            return {"run_s": None, "ops": []}
        for op in report["ops"]:
            self.attempted += 1
            if not op["ok"]:
                self.failed += 1
                print(f"FAILED {workload} {op['name']}: {op['error']} {op['stderr']}", file=sys.stderr)
        if any(not op["ok"] for op in report["ops"]):
            report["run_s"] = None
        return report

    @staticmethod
    def setup_probe() -> float:
        """CPU seconds for a fresh interpreter to import the CLI and build its parser.

        The probe reports the CPU time of its main thread, from the start of
        the interpreter until the parser is built.  Unlike wall time, it does
        not grow when other processes or other tenants of the machine hold
        the CPU, which on a shared machine moved the wall time of the same
        set-up by 40% between sets of runs.  It leaves out the helper threads
        numpy's BLAS starts on import: their spin-waiting adds about as much
        CPU time as the set-up itself and varies with their scheduling.
        """
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        return float(proc.stdout.split()[-1])

    def measure(self, workload: str, seconds: float) -> dict:
        """End-to-end samples from passes repeated for ``seconds``.

        The set-up probes are spread over the run, a few before each pass, so
        that their median reflects the same stretch of time as the passes.
        """
        samples = {"setup_s": [], "run_s": [], "peak_rss_mb": []}
        self.setup_probe()  # the first one may compile bytecode
        start = time.monotonic()
        passes = 0
        while passes < MIN_PASSES or time.monotonic() - start < seconds:
            samples["setup_s"] += [self.setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
            report = self.run_pass(workload)
            passes += 1
            if report["run_s"] is not None:
                samples["run_s"].append(report["run_s"])
                samples["peak_rss_mb"].append(report["peak_rss_mb"])
        return samples

    def probes(self) -> dict:
        """Workload-independent per-layer metrics, measured once per invocation."""
        if self._probes is None:
            serial = self.run_pass("table-sparse", jobs=1)["run_s"]
            parallel = self.run_pass("table-sparse", jobs=2)["run_s"]
            metrics = {"cli.table.parallel_efficiency": serial / (2 * parallel) if serial and parallel else 0.0}
            metrics.update(self.dense_sweep())
            self._probes = {"serial_run_s": serial, "metrics": metrics}
        return self._probes

    def dense_sweep(self) -> dict:
        spec = workloads.SCALES[self.scale]
        deadline, cap = spec["deadline_s"], spec["cap_mb"]
        ladder = [workloads.matrix_key(m) for m in spec["ladder"]]
        cases = ladder + [workloads.matrix_key(m) for m in spec["beyond"]]
        metrics, agreed = {}, {}
        for engine in workloads.ENGINES:
            dense_s, dense_failed = 0.0, 0
            for key in cases:
                self.attempted += 1
                report, stderr = sweep_case(engine, key, deadline, cap)
                if report is None:
                    self.failed += 1
                    print(f"FAILED sweep {engine} {key}: {stderr}", file=sys.stderr)
                    report = {"status": "crash", "seconds": deadline}
                status = report["status"]
                if status == "ok":
                    expected = self.pins.get(key) or agreed.setdefault(key, report["digest"])
                    if report["digest"] != expected:
                        self.failed += 1
                        status = "wrong"
                        print(f"FAILED sweep {engine} {key}: wrong product", file=sys.stderr)
                if status == "ok":
                    dense_s += report["seconds"]
                else:
                    dense_s += deadline
                    dense_failed += 1
                print(f"sweep {engine} {key} {status} {report['seconds']:.4f} s")
            metrics[f"structconst.{engine}.dense_s"] = dense_s
            metrics[f"structconst.{engine}.dense_failed"] = dense_failed
        return metrics

    def trace(self, workload: str) -> dict:
        jobs = 1  # table-sparse is traced serially; the other workloads ignore jobs
        if workload == "table-sparse":
            untraced = self.probes()["serial_run_s"]
        else:
            untraced = self.run_pass(workload, jobs=jobs)["run_s"]
        traced = self.run_pass(workload, jobs=jobs, trace=True)
        metrics = dict(traced.get("layers") or {})
        metrics.update(self.probes()["metrics"])
        ok = untraced and traced["run_s"]
        metrics["trace.overhead_ratio"] = traced["run_s"] / untraced if ok else 0.0
        return metrics


def print_samples(workload: str, samples: dict) -> dict:
    metrics = {}
    for name, values in samples.items():
        unit = END_TO_END_UNITS[name]
        if not values:
            print(f"{workload} {name} no samples")
            continue
        q1, median, q3 = quartiles(values)
        print(f"{workload} {name} median={median:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} {unit}")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run(args) -> int:
    if not (SRC / "schurbox" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workroot = ROOT / ".bench_work"
    workdir = workroot / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.scale, args.seed, workdir)
        meta = {
            "machine": machine_info(), **source_identity(), "seed": args.seed, "scale": args.scale,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        metrics = {}
        for name in names:
            attempted, failed = bench.attempted, bench.failed
            if args.trace:
                layer = bench.trace(name)
                for key in sorted(layer):
                    print(f"{name} {key}={fmt(layer[key])} {layer_unit(key)}")
                found = {key: {"value": value, "unit": layer_unit(key)} for key, value in layer.items()}
            else:
                found = print_samples(name, bench.measure(name, args.seconds))
            attempted, failed = bench.attempted - attempted, bench.failed - failed
            print(f"{name} failed_ratio={fmt(failed / attempted)} ({failed}/{attempted}) ratio")
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + key: value for key, value in found.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="schurbox benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="'tiny' runs the same code path at small shapes")
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    # stopping the benchmark stops its children too (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_test:
        import selftest

        return selftest.main()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
