"""Workload definitions, pinned outputs and output checks.

A workload is a fixed list of CLI operations.  Each operation is one call of
``schurbox.cli.main(argv)``; its output is checked against a pinned sha256
digest (table file bytes, element JSON) or, for ``verify``, against exit code
0 and ``"passed":true`` in the summary line.

Two scales share every code path: ``full`` is the benchmark proper and
``tiny`` is what the self-test runs.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"

WORKLOADS = ("table-sparse", "dense-multiply", "verify-oracle")

VERIFY_SUBSET = "orbit-bijection,commutant,engines,assoc,identity"

SCALES = {
    "full": {
        "table": (3, 4),
        "ladder": (
            ((3, 3), (3, 3)),
            ((4, 2), (2, 4)),
            ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
            ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)),
        ),
        # dense self-products the seed engines cannot all finish
        "beyond": (
            ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
            ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
            ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
        ),
        # (n, d, --checks or None for all six suites, pass --seed)
        "verify": ((2, 5, None, False), (3, 3, VERIFY_SUBSET, True)),
        # per-case wall-time deadline and address-space cap of the dense sweep
        "deadline_s": 4.0,
        "cap_mb": 256,
    },
    "tiny": {
        "table": (2, 3),
        "ladder": (((1, 1), (1, 1)), ((2, 1), (1, 0))),
        "beyond": (((3, 3), (3, 3)),),
        "verify": ((2, 2, None, False), (2, 3, VERIFY_SUBSET, True)),
        "deadline_s": 0.5,
        "cap_mb": 256,
    },
}

ENGINES = ("counting", "euler", "mendez")


def matrix_key(matrix) -> str:
    return json.dumps([list(row) for row in matrix], separators=(",", ":"))


def graph_json(matrix) -> str:
    return json.dumps(
        {"n": len(matrix), "d": sum(map(sum, matrix)), "matrix": [list(row) for row in matrix]}
    )


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_pins(scale: str) -> dict:
    return json.loads(PINS_PATH.read_text())[scale]


@dataclass(frozen=True)
class Op:
    """One CLI call and how to check what it produced."""

    name: str
    argv: tuple[str, ...]
    check: str  # "file": digest of the --out file, "stdout": digest of stdout, "verify"
    pin: str | None = None
    out: str | None = None


def ops(workload: str, scale: str, seed: int, workdir: Path, jobs: int = 2):
    """The operations of one pass.

    ``jobs`` only affects ``table-sparse`` (2 is timed, 1 is the traced and
    serial run).
    """
    spec = SCALES[scale]
    if workload == "table-sparse":
        n, d = spec["table"]
        out = str(workdir / "table.jsonl")
        argv = ("table", "-n", str(n), "-d", str(d), "--jobs", str(jobs), "--out", out)
        return [Op(f"table-n{n}-d{d}-jobs{jobs}", argv, "file", "table", out)]
    if workload == "dense-multiply":
        result = []
        for k, matrix in enumerate(spec["ladder"]):
            path = str(workdir / f"factor{k}.json")
            argv = ("multiply", path, path)
            result.append(Op(f"multiply-{matrix_key(matrix)}", argv, "stdout", matrix_key(matrix)))
        return result
    if workload == "verify-oracle":
        result = []
        for n, d, checks, seeded in spec["verify"]:
            argv = ("verify", "-n", str(n), "-d", str(d))
            if checks:
                argv += ("--checks", checks)
            if seeded:
                argv += ("--seed", str(seed))
            result.append(Op(f"verify-n{n}-d{d}", argv, "verify"))
        return result
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def write_inputs(workload: str, scale: str, workdir: Path) -> None:
    """Write the graph files the operations read."""
    if workload == "dense-multiply":
        for k, matrix in enumerate(SCALES[scale]["ladder"]):
            (workdir / f"factor{k}.json").write_text(graph_json(matrix) + "\n")


def check(op: Op, code: int, stdout: str, pins: dict) -> str | None:
    """None when the operation's output is right, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    if op.check == "file":
        got = sha256_file(Path(op.out))
    elif op.check == "stdout":
        got = sha256_bytes(stdout.encode())
    else:
        lines = stdout.strip().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            return "no summary line"
        return None if summary.get("passed") is True else "verify summary is not passed"
    return None if got == pins[op.pin] else f"digest {got[:12]} != pin {pins[op.pin][:12]}"
