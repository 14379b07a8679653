"""The budgets manifest: its rows are well formed, its runner passes and names failures, README quotes its bounds.

README's Caps section also quotes the package's caps; they are checked here against the constants.
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from schurbox import cli, combinatorics, graphs, structconst

import budgets

TESTS = Path(__file__).resolve().parent


def test_rows_are_well_formed():
    names = [row.name for row in budgets.ROWS]
    assert len(set(names)) == len(names)
    for row in budgets.ROWS:
        assert row.timeout > 0, row.name
        assert row.peak is None or row.peak > 0, row.name
        assert row.sha256 is None or re.fullmatch("[0-9a-f]{64}", row.sha256), row.name
        for arg in row.argv:
            graph = re.fullmatch(r"\{w\}/(\w+)\.json", arg)
            assert graph is None or graph[1] in budgets.GRAPHS, (row.name, arg)


def test_run_passes_a_row_and_names_a_broken_pin_and_bound():
    real = hashlib.sha256(b'{"binomial":10,"d":2,"enumerated":10,"n":2}\n').hexdigest()
    flipped = real[:-1] + "01"[real[-1] == "0"]
    # each row reads its own child's peak, but that peak starts from the runner's: run the runner in a fresh
    # interpreter, not under pytest
    code = f"""if True:
        import budgets
        row = budgets.Row("dim", budgets.cli("dim -n 2 -d 2"), 10, 28, {real!r})
        codes = [budgets.run((row,)), budgets.run((row._replace(name="dim-digest", sha256={flipped!r}),)),
                 budgets.run((row._replace(name="dim-peak", peak=1),))]
        print(codes)
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=TESTS, capture_output=True, text=True, timeout=60)
    *lines, codes = done.stdout.splitlines()
    assert codes == "[0, 1, 1]", done.stderr
    verdicts = {line["name"]: line["verdict"] for line in map(json.loads, lines)}
    assert verdicts == {"dim": "pass", "dim-digest": "sha256 differs", "dim-peak": "over 1 MiB"}
    failed = done.stderr.splitlines()
    assert failed[0] == "budgets failed: dim-digest"
    assert failed[1].startswith("budgets failed: dim-peak, the runner itself, at ")


def test_readme_ci_bounds_are_row_bounds():
    readme = (TESTS.parent / "README.md").read_text()
    held = re.findall(r"CI\s+holds\s+\((\d+),(\d+)\)\s+to\s+(\d+)\s+MiB", readme)
    assert held
    for n, d, mib in held:
        assert any(f"-{n}-{d}" in row.name and row.peak == int(mib) for row in budgets.ROWS), (n, d, mib)


def test_cli_rows_take_the_quick_path_but_the_fallback_rows():
    for row in budgets.ROWS:
        if row.argv[:2] == ("-m", "schurbox"):
            quick = cli._quick_args([arg.replace("{w}", "w") for arg in row.argv[2:]])
            assert (quick is None) == row.name.startswith("fallback-"), row.name


def test_readme_caps_are_the_package_constants():
    readme = " ".join((TESTS.parent / "README.md").read_text().split())
    caps = readme[readme.index("## Caps") :]
    quoted = {
        r"refuse to start above (\S+) items": combinatorics.DEFAULT_ENUMERATION_CAP,
        r"refuses above (\S+) matrix cells": graphs.CELL_CAP,
        r"more than (\S+) basis vectors": graphs.ORACLE_CAP,
        r"more than (\S+) orbits": graphs.ORBIT_CAP,
        r"more than (\S+) middle rows \(`structconst\.FILLING_ROW_CAP`\)": structconst.FILLING_ROW_CAP,
    }
    for pattern, constant in quoted.items():
        base, _, exponent = re.search(pattern, caps)[1].partition("^")
        assert int(base) ** int(exponent or 1) == constant, pattern
