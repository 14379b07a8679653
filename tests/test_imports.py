"""Only the commands that reach the dense oracle load numpy, and only ``render`` loads the drawing code.

Each case runs in a fresh interpreter, since an import cannot be undone in
this one: a top-level ``import numpy`` anywhere but ``oracle`` fails here
instead of silently adding about 0.1 s to every command's start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs cli.main on its arguments; prints the exit code, whether numpy is loaded, and stdout
PROBE = """
import contextlib, io, json, sys
from schurbox import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "out": out.getvalue()}))
"""

PRODUCT = (
    '[{"coeff":"1","graph":{"d":4,"matrix":[[2,1],[1,0]],"n":2}},'
    '{"coeff":"3","graph":{"d":4,"matrix":[[3,0],[0,1]],"n":2}}]\n'
)


def _python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


def _cli(tmp_path: Path, *argv: str) -> dict:
    (tmp_path / "l.json").write_text('{"n":2,"d":4,"matrix":[[2,1],[0,1]]}')
    (tmp_path / "r.json").write_text('{"n":2,"d":4,"matrix":[[2,0],[1,1]]}')
    return json.loads(_python(PROBE, *argv, cwd=tmp_path).stdout)


@pytest.mark.parametrize("module", ["schurbox", "schurbox.cli"])
def test_importing_the_package_leaves_numpy_out(tmp_path, module):
    done = _python(f"import sys, {module}; print('numpy' in sys.modules)", cwd=tmp_path)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("module", ["schurbox", "schurbox.cli"])
def test_importing_the_package_leaves_dataclasses_and_render_out(tmp_path, module):
    # dataclasses pulls in inspect, ast, dis and tokenize; render loads on the first render command
    code = f"import sys, {module}; print([name for name in ('dataclasses', 'schurbox.render') if name in sys.modules])"
    assert _python(code, cwd=tmp_path).stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "-n", "2", "-d", "3"),
        ("basis", "-n", "2", "-d", "2"),
        ("multiply", "l.json", "r.json"),
        ("apply", "l.json", "|12|34|"),
        ("table", "-n", "2", "-d", "2", "--out", "table.jsonl"),
        ("render", "l.json"),
        ("verify", "-n", "2", "-d", "3", "--checks", "orbit-bijection,assoc,identity"),
        # 3^8 = 6,561 vectors lie beyond the oracle's reach, so the engines suite leaves it out
        pytest.param(("verify", "-n", "3", "-d", "8", "--checks", "engines"), id="verify-engines"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_off_the_oracle_leave_numpy_out(tmp_path, argv):
    result = _cli(tmp_path, *argv)
    assert result["code"] == 0
    assert result["numpy"] is False


def test_oracle_exports_load_on_first_access(tmp_path):
    code = "import sys, schurbox; print(schurbox.NotInSpanError.__name__, 'numpy' in sys.modules)"
    assert _python(code, cwd=tmp_path).stdout == "NotInSpanError True\n"


def test_every_public_name_resolves(tmp_path):
    code = "import schurbox; print([name for name in schurbox.__all__ if not hasattr(schurbox, name)])"
    assert _python(code, cwd=tmp_path).stdout == "[]\n"


def test_public_names_are_distinct_and_name_no_module(tmp_path):
    # __all__ is derived from the import block, which also binds the submodules it imports from
    code = (
        "import types, schurbox; names = schurbox.__all__; print(len(names) == len(set(names)), "
        "[name for name in names if isinstance(getattr(schurbox, name), types.ModuleType)])"
    )
    assert _python(code, cwd=tmp_path).stdout == "True []\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (("multiply", "l.json", "r.json", "--engine", "oracle"), PRODUCT),
        (("multiply", "l.json", "r.json", "--engine", "all"), PRODUCT),
        (
            ("verify", "-n", "2", "-d", "3", "--checks", "commutant"),
            'PASS commutant: 20 operators x 2 generators\n'
            '{"checks":{"commutant":true},"d":3,"n":2,"passed":true}\n',
        ),
    ],
    ids=["multiply-oracle", "multiply-all", "verify-commutant"],
)
def test_commands_on_the_oracle_load_numpy(tmp_path, argv, out):
    result = _cli(tmp_path, *argv)
    assert result == {"code": 0, "numpy": True, "out": out}
