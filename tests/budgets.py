"""CI's whole-process budgets and pins: ``python tests/budgets.py`` runs each row of :data:`ROWS` as its own child.

A child runs with ``src`` on its path in a temporary directory ``{w}`` that holds :data:`GRAPHS`.  Its row passes
when it exits with the row's code within the timeout, its stderr ends with the row's tail, its ``--out`` file (or
else its stdout) hashes to the row's sha256, and its peak RSS, read for that child alone through ``os.wait4``, is
within the bound.  Each row prints one sorted-key JSON line; the runner exits 1 naming every row that failed.  A
child's peak starts from the runner's own, which it inherits when spawned, so the runner streams every output
through files, hashes in chunks, and fails if its own peak reaches the smallest bound.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
GRAPHS = {"g": [[2, 1, 1], [1, 2, 1], [1, 1, 2]], "t": [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
          "a": [[1, 3, 0], [0, 1, 3], [3, 0, 1]], "square": [[2, 2, 2], [2, 2, 2], [2, 2, 2]],
          "anti": [[0, 0, 6], [0, 6, 0], [6, 0, 0]], "ones": [[1, 1, 1, 1]] * 4}
"""Matrices written as graph files ``{w}/<name>.json`` before the first row runs."""


class Row(NamedTuple):
    name: str
    argv: tuple[str, ...]  # after the interpreter; "{w}" is the temporary directory
    timeout: float  # seconds
    peak: float | None = None  # MiB
    sha256: str | None = None  # of the --out file if the row has one, else of stdout
    exit: int = 0
    stderr: str = ""  # what stderr ends with, trailing whitespace aside


def cli(line: str) -> tuple[str, ...]:
    return ("-m", "schurbox", *line.split())


SUITE = "from schurbox import verify; from schurbox.combinatorics import Params; assert verify.check_"
# the (2,12) grid, in place, with two cells of row (2,1,...,1) swapped: a row off the canonical rows
DAMAGED = ("from schurbox import oracle, verify; from schurbox.combinatorics import Params; "
           "l = oracle.pair_table(2, 12).labels; assert l[2048, 0] != l[2048, 1]; l.flags.writeable = True; "
           "l[2048, 0], l[2048, 1] = l[2048, 1], l[2048, 0]; assert not verify.check_")
# 50 distinct dense (4,16) products in one library loop: the all-ones graph times graphs whose rows sum to 4
DENSE_PRODUCTS = ("import itertools, random; from schurbox.graphs import BipartiteMultigraph as G; "
                  "from schurbox.algebra import AlgebraElement as A, basis_product, multiply; "
                  "rows = sorted(set(itertools.permutations((2, 1, 1, 0)))) + [(1, 1, 1, 1)]; "
                  "rng, x = random.Random(0), A.basis(G(((1, 1, 1, 1),) * 4)); "
                  "ms = list(dict.fromkeys(tuple(rng.choice(rows) for _ in range(4)) for _ in range(100)))[:50]; "
                  "terms = sum(len(multiply(x, A.basis(G(m))).support()) for m in ms); "
                  "print(len(ms), terms, basis_product.cache_info().currsize)")
ROWS = (
    # (4,4) is t-basis's largest shape under its 10^6-pair cap; 225 MiB while each relabelled entry was its own tuple,
    # 188 MiB while t-basis held the counts as nested dicts
    Row("verify-4-4-t-basis", cli("verify -n 4 -d 4 --checks commutant,t-basis"), 120, 85,
        "43c5aa5428095c3cea5152780523335464e9629ba5da31e64e2c82bc6dfb65e8"),
    # table bytes: (4,3) and (5,2) walk S_4 and S_5, (6,2) is the largest n under the product cap, (2,16) folds most
    Row("table-4-3", cli("table -n 4 -d 3 --out {w}/t.jsonl"), 24, None,
        "1d656927c0453cac30931b9f0e22f340cf9224790bc7dbac04bd52ed435f6a6e"),
    Row("table-5-2", cli("table -n 5 -d 2 --out {w}/t.jsonl"), 24, None,
        "6fa03665e0c85a752b18796416ffeb73fefd557cd3e08b903b3497003a7d2ecf"),
    Row("table-6-2", cli("table -n 6 -d 2 --out {w}/t.jsonl"), 24, None,
        "9e9b884f0222e6e79c381f95e7f8c1e21684fab4db08a913c43ef62ca5bc9d02"),
    Row("table-2-16", cli("table -n 2 -d 16 --out {w}/t.jsonl"), 24, None,
        "84613318458e3b0477254d4096b7c9ec0478ed78d785a58cbbc2f12659ae8435"),
    Row("table-3-4-mod-2", cli("table -n 3 -d 4 --mod 2 --out {w}/t.jsonl"), 24, None,
        "971ad807cd11c0742b048b2fb0662e122157815b4643f2707092efba2051f6b3"),
    # the oracle's caps: (4,6) and (2,12) at its vector cap, (9,3) with the most graphs of any cap shape
    Row("verify-4-6", cli("verify -n 4 -d 6 --checks orbit-bijection,commutant,engines,assoc,identity"), 300, 90),
    Row("verify-2-12-engines", cli("verify -n 2 -d 12 --checks engines"), 60, 85),
    Row("verify-2-12", cli("verify -n 2 -d 12"), 60, 85),
    # (9,3) peaked at 59 MiB here, and at 49 MiB in orbit-bijection-9-3, while each record had a __dict__
    Row("verify-9-3", cli("verify -n 9 -d 3 --checks orbit-bijection,engines,assoc,identity"), 120, 62),
    # (3,12) has 531,441 vectors, past the oracle's reach; counting took 3.4-3.9 s while it swept every row pair
    Row("multiply-3-12-all", cli("multiply {w}/g.json {w}/g.json --engine all"), 20),
    # product drawings read the top row of combinatorics.canonical_index; in the DOT one a differs from c
    Row("render-product", cli("render {w}/g.json {w}/g.json {w}/t.json --mode product --out {w}/p.txt"), 10, None,
        "be0fecf7db11fe272145f5ef9bfde03e228f3e49c5dae7d9209284e7f8625c16"),
    Row("render-dot", cli("render {w}/g.json {w}/g.json {w}/a.json --mode product --format dot --out {w}/p.dot"),
        10, None, "182f599106576ac6dd5e1ca3752f93abae028810383fae02451fc1ea0af7505b"),
    # 729,000 middle rows: 45 s and 1.85 GiB before the walk was capped at 10^5
    Row("render-refusal", cli("render {w}/square.json {w}/square.json {w}/anti.json --mode product"), 10,
        exit=1, stderr="has 729000 elements (cap 100000)"),
    # the self-test corrupts label 1, the first orbit of two or more cells, and needs n, d >= 2 for one to exist
    Row("verify-2-2-corrupt", cli("verify -n 2 -d 2 --checks commutant --corrupt"), 10, None,
        "9a1d6823b0591983c089950cf3c56d88ab0b861c372b33600c86e83248a72876", exit=2,
        stderr='{"cleared-entry":[3,1],"corrupted":{"d":2,"matrix":[[0,0],[1,1]],"n":2}}'),
    # 125 MiB while the self-test copied the grid as int32, to hold a -1 in the cleared cell
    Row("verify-2-12-corrupt", cli("verify -n 2 -d 12 --checks commutant --corrupt"), 20, 105,
        "999a52b5bf4d9c7f2ec93e3ce84caca4028a9deaab03f10ddc10824cc0a2bb3c", exit=2,
        stderr='{"cleared-entry":[4095,2047],"corrupted":{"d":12,"matrix":[[0,0],[1,11]],"n":2}}'),
    Row("verify-1-3-corrupt-refused", cli("verify -n 1 -d 3 --checks commutant --corrupt"), 10, exit=1,
        stderr="has two or more cells"),
    # suite peaks: 174 MiB while commutant reindexed the whole grid per transposition, 160 MiB while the orbit
    # bijection held every pair graph, 138 MiB while the grid build decoded keys through a stored index
    Row("commutant-2-12", ("-c", SUITE + "commutant(Params(2, 12)).passed"), 120, 75),
    # a damaged grid: 156 MiB while commutant searched the whole grid again for the least moved label, 121 s while
    # t-basis read all 4096 rows of a grid that does not commute
    Row("commutant-2-12-damaged", ("-c", DAMAGED + "commutant(Params(2, 12)).passed"), 30, 75),
    Row("t-basis-2-12-damaged", ("-c", DAMAGED + "t_basis(Params(2, 12)).passed"), 30, 75),
    Row("orbit-bijection-9-3", ("-c", SUITE + "orbit_bijection(Params(9, 3)).passed"), 120, 49),
    Row("pair-table-9-3", ("-c", "from schurbox import graphs, oracle; oracle.pair_table(9, 3); "
                           "assert graphs.basis.cache_info().currsize == 0, 'pair_table(9, 3) enumerated the basis'"),
        120, 45),
    # 10,147 terms; 35 MiB while each term was built as a graph, an element term and a dict record
    Row("multiply-ones", cli("multiply {w}/ones.json {w}/ones.json"), 20, 28,
        "d280be9795a91139491b81442c6ea254ae2bfed072990014c3af56bd7357e9d2"),
    # prints "50 262635 0"; 149 MiB and a cache of all 50 products while multiply memoized every basis product
    Row("library-dense-products", ("-c", DENSE_PRODUCTS), 30, 28,
        "dfce0151bd04520b9f3b20353f8f631a02423d8497cbe33aa0b34cf025467f69"),
    # 91,881 lines; 79 MiB while it held the lines as a list and as their join, 38 MiB while it built every graph
    Row("basis-9-3", cli("basis -n 9 -d 3 --out {w}/b.jsonl"), 60, 24,
        "e1cdea3d6d639886cf0e0862eab4ba3216710a81d0de1ec5dd1899b6f780b665"),
    # one basis operator on one basis vector has coefficients of 1 only, so apply takes no --mod
    Row("fallback-apply-mod-refused", cli("apply {w}/g.json |1| --mod 5"), 10, exit=1,
        stderr="error: unrecognized arguments: --mod 5"),
    # cli's quick path leaves a usage error and an abbreviation to argparse, which must still answer both
    Row("fallback-usage-error", cli("dim -n 2"), 10, exit=1,
        stderr="error: the following arguments are required: -d/--balls"),
    Row("fallback-abbreviation", cli("dim --box 2 --bal 2"), 10, None,
        "d56ff1383482a369674da27db8a4441f9676913edc2c3db17ee84490d601258c"),
    # help comes from the full parser alone; the digest is multiply -h as the one-command parser printed it
    Row("fallback-multiply-help", cli("multiply -h"), 10, None,
        "538fb89f3f9363ab44ee64e9c937971eb88187960414d18e589ae3350130be6b"),
)


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_row(row: Row, work: str) -> bool:
    """Run one row as its own child, print its JSON line, and say whether it passed."""
    argv = [sys.executable, *(arg.replace("{w}", work) for arg in row.argv)]
    stdout, stderr = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    out = argv[argv.index("--out") + 1] if "--out" in argv else stdout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    with open(stdout, "wb") as so, open(stderr, "w+b") as se:
        child = subprocess.Popen(argv, stdout=so, stderr=se, cwd=work, env=env)
        while not (reaped := os.wait4(child.pid, os.WNOHANG))[0]:
            if time.monotonic() - start > row.timeout:
                os.kill(child.pid, signal.SIGKILL)  # not child.kill(): it would reap the child and lose its usage
            time.sleep(0.01)
        seconds, child.returncode = time.monotonic() - start, os.waitstatus_to_exitcode(reaped[1])
        se.seek(max(0, se.seek(0, os.SEEK_END) - 4096))
        tail = se.read().decode(errors="replace").rstrip()
    peak, digest = reaped[2].ru_maxrss / 1024, _sha256(out) if row.sha256 else None
    for path in {stdout, out}:
        Path(path).unlink(missing_ok=True)
    problems = {f"over {row.timeout} s": seconds > row.timeout,
                f"exit {child.returncode}, not {row.exit}": child.returncode != row.exit,
                f"stderr ends {tail[-80:]!r}": not tail.endswith(row.stderr),
                "sha256 differs": digest != row.sha256,
                f"over {row.peak} MiB": row.peak is not None and peak > row.peak}
    verdict = "; ".join(problem for problem, failed in problems.items() if failed) or "pass"
    line = {"name": row.name, "seconds": round(seconds, 2), "peak_mib": round(peak, 1), "bound_mib": row.peak,
            "sha256": digest, "verdict": verdict}
    print(json.dumps(line, sort_keys=True), flush=True)
    return verdict == "pass"


def run(rows: tuple[Row, ...] = ROWS) -> int:
    """Run every row in one temporary directory; return 1, naming the failures on stderr, if any failed."""
    with tempfile.TemporaryDirectory() as work:
        for name, matrix in GRAPHS.items():
            graph = {"n": len(matrix), "d": sum(map(sum, matrix)), "matrix": matrix}
            Path(work, f"{name}.json").write_text(json.dumps(graph))
        failed = [row.name for row in rows if not run_row(row, work)]
    # the high-water mark each child inherits; the runner's own ru_maxrss also holds whatever started it
    own = next(int(line.split()[1]) for line in Path("/proc/self/status").read_text().splitlines()
               if line.startswith("VmHWM:")) / 1024
    if own >= min((row.peak for row in rows if row.peak is not None), default=float("inf")):
        failed.append(f"the runner itself, at {own:.1f} MiB")
    if failed:
        print("budgets failed: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
