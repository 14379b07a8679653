"""End-to-end command-line behavior, including exit codes and determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from schurbox import cli, oracle, structconst
from schurbox.algebra import AlgebraElement, basis_product
from schurbox.cli import main
from schurbox.combinatorics import Params, compositions
from schurbox.graphs import BipartiteMultigraph, basis, enumerate_graphs
from schurbox.serialize import dumps, graph_record, table_line

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))
G3 = BipartiteMultigraph(((3, 0), (0, 1)))
G4 = BipartiteMultigraph(((2, 1), (1, 0)))


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    for name, g in [("g1", G1), ("g2", G2), ("g3", G3), ("g4", G4)]:
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(graph_record(g)))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, err = run(capsys, "dim", "-n", "2", "-d", "4")
    assert code == 0
    assert json.loads(out) == {"n": 2, "d": 4, "enumerated": 35, "binomial": 35}


def test_dim_with_a_thousand_parts(capsys):
    # 32 x 32 = 1,024 matrix entries per graph: enumerating them must not recurse per entry
    code, out, err = run(capsys, "dim", "-n", "32", "-d", "1")
    assert code == 0
    assert '"binomial":1024,"d":1,"enumerated":1024' in out


def test_dim_rejects_bad_params(capsys):
    code, out, err = run(capsys, "dim", "-n", "0", "-d", "4")
    assert code == 1
    assert err.startswith("error:")


def test_basis_lists_all_graphs(capsys):
    code, out, err = run(capsys, "basis", "-n", "2", "-d", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 10
    listed = [json.loads(line)["matrix"] for line in lines]
    expected = [[list(row) for row in g.matrix] for g in enumerate_graphs(Params(2, 2))]
    assert listed == expected


@pytest.mark.parametrize("p", [Params(1, 5), Params(2, 12), Params(3, 3)], ids=str)
def test_basis_lines_are_dumps_of_graph_records(capsys, p):
    # (2,12) has two-digit entries
    code, out, err = run(capsys, "basis", "-n", str(p.n), "-d", str(p.d))
    assert (code, err) == (0, "")
    assert out == "".join(dumps(graph_record(g)) + "\n" for g in enumerate_graphs(p))


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "-n", "2", "-d", "3"],
        ["multiply", "{g1}", "{g2}"],
        ["apply", "{g1}", "|12|34|"],
        ["render", "{g1}", "{g2}", "{g3}", "--mode", "product"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_holds_the_bytes_of_stdout(capsys, graph_files, tmp_path, argv):
    argv = [arg.format(**graph_files) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    out_path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
    assert out_path.read_text() == out
    assert not (tmp_path / "out.txt.tmp").exists()


def test_multiply_worked_product(capsys, graph_files):
    for engine in ("counting", "euler", "oracle", "all"):
        code, out, err = run(capsys, "multiply", graph_files["g1"], graph_files["g2"], "--engine", engine)
        assert code == 0
        records = json.loads(out)
        assert records == [
            {"coeff": "1", "graph": {"n": 2, "d": 4, "matrix": [[2, 1], [1, 0]]}},
            {"coeff": "3", "graph": {"n": 2, "d": 4, "matrix": [[3, 0], [0, 1]]}},
        ]


def test_multiply_incompatible_valencies_gives_zero(capsys, graph_files):
    code, out, err = run(capsys, "multiply", graph_files["g1"], graph_files["g1"])
    assert code == 0
    assert json.loads(out) == []


def test_multiply_mod(capsys, graph_files):
    code, out, err = run(capsys, "multiply", graph_files["g1"], graph_files["g2"], "--mod", "3")
    assert code == 0
    assert json.loads(out) == [{"coeff": "1", "graph": {"n": 2, "d": 4, "matrix": [[2, 1], [1, 0]]}}]
    code, out, err = run(capsys, "multiply", graph_files["g1"], graph_files["g2"], "--mod", "6")
    assert code == 1
    assert "prime" in err


def test_multiply_missing_file(capsys, graph_files, tmp_path):
    code, out, err = run(capsys, "multiply", graph_files["g1"], str(tmp_path / "missing.json"))
    assert code == 1
    assert err.startswith("error:")


def test_multiply_unparsable_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "multiply", str(bad), str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_multiply_shape_mismatch(capsys, graph_files, tmp_path):
    small = tmp_path / "small.json"
    small.write_text(dumps(graph_record(BipartiteMultigraph(((1, 0), (0, 1))))))
    code, out, err = run(capsys, "multiply", graph_files["g1"], str(small))
    assert code == 1
    assert "different algebras" in err


def test_multiply_engine_disagreement_exits_2(capsys, graph_files, monkeypatch):
    # sabotage one engine's raw counts; the cross-check must notice and report
    def wrong(g1, g2):
        return {}

    monkeypatch.setattr(structconst, "counting_fold", wrong)
    basis_product.cache_clear()
    try:
        code, out, err = run(
            capsys, "multiply", graph_files["g1"], graph_files["g2"], "--engine", "all"
        )
    finally:
        basis_product.cache_clear()
    assert code == 2
    assert "disagree" in err
    assert "counting: []" in err


def test_multiply_engine_mendez_is_a_usage_error(capsys, graph_files):
    # the word-matrix route is a reference in structconst, not an engine
    code, out, err = run(capsys, "multiply", graph_files["g1"], graph_files["g2"], "--engine", "mendez")
    assert code == 1
    assert out == ""
    assert "invalid choice: 'mendez'" in err


@pytest.mark.parametrize("reached, code", [(True, 2), (False, 0)])
def test_multiply_all_asks_the_oracle_only_in_reach(capsys, graph_files, monkeypatch, reached, code):
    # a sabotaged oracle is noticed only when in_reach admits the shape
    monkeypatch.setattr(oracle, "oracle_fold", lambda g1, g2: {})
    monkeypatch.setattr(cli, "in_reach", lambda p: reached)
    argv = ("multiply", graph_files["g1"], graph_files["g2"], "--engine", "all")
    assert run(capsys, *argv)[0] == code


# the benchmark's dense self-products and the sha256 of multiply's stdout per --mod; every engine that
# reaches a factor prints these bytes, and the oracle refuses the two factors past its 4096 vectors
GOLDEN_MULTIPLY = {
    ((3, 3), (3, 3)): {
        None: "324bdc3de9110c7fc77f4432a2b88829c98045bbe27e10289b098e43fc537e65",
        2: "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        7: "3632f8d6385c7648588e87e94abb72834dfb78dbe906d53cc9c2f742a252f9b9",
    },
    ((4, 2), (2, 4)): {
        None: "0a2a12871f2e7907b3cb6ed3e13c9289d73154416be2f27f137314971d7964ab",
        2: "090b9ab4bcac07796c5f99ed1487fcf37ac9be3b7f5b58548fd98475c7003f36",
        7: "9923516c14195dd676696a65b66d578f29df40cf71d54a4daa95a162bde5d105",
    },
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)): {
        None: "3ba1ad2040f41968e29751c11c5657d9316e0dfbce38d108512c95aaa505d7c6",
        2: "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        7: "c25cdbcf6813be6a2426daf271c4ab67cc9e9757628e8a81590942652a68ab52",
    },
    ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)): {
        None: "a356cbf9b16711fbc72ecf771579ad88931e452c97333b60c1e7e8f4507cfae1",
        2: "42a13b23c4224399db2e9d4b02f539ca54e231b5ed96d63b7587f48897423a01",
        7: "a7baadfb1ec6b7be8dbb8fbb6654a904c15d7b53dadf56d239a23cf7ed8ace38",
    },
}
ORACLE_REFUSALS = {
    3: "error: instance too large for the dense oracle: 19683 basis vectors (cap 4096), 24310 orbits (cap 131072)\n",
    4: "error: instance too large for the dense oracle: 16777216 basis vectors (cap 4096), 17383860 orbits "
    "(cap 131072)\n",
}


@pytest.mark.parametrize("mod", [None, 2, 7])
@pytest.mark.parametrize("engine", ["euler", "counting", "oracle", "all"])
@pytest.mark.parametrize("matrix", list(GOLDEN_MULTIPLY), ids=lambda m: json.dumps(m).replace(" ", ""))
def test_multiply_golden_bytes(capsys, tmp_path, matrix, engine, mod):
    path = tmp_path / "g.json"
    path.write_text(dumps(graph_record(BipartiteMultigraph(matrix))))
    argv = ["multiply", str(path), str(path), "--engine", engine] + ([] if mod is None else ["--mod", str(mod)])
    code, out, err = run(capsys, *argv)
    if engine == "oracle" and len(matrix) > 2:
        assert (code, out, err) == (1, "", ORACLE_REFUSALS[len(matrix)])
    else:
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_MULTIPLY[matrix][mod]


@pytest.mark.parametrize("mod, message", [
    (None, "factors live in different algebras: (n,d)=(2,12) vs (2,2)"),
    (2, "factors live in different algebras: (n,d)=(2,12) vs (2,2)"),
    (7, "factors live in different algebras: (n,d)=(2,12) vs (2,2)"),
    (4, "modulus must be prime, got 4"),
])
@pytest.mark.parametrize("engine", ["euler", "counting", "oracle", "all"])
def test_multiply_golden_errors(capsys, tmp_path, engine, mod, message):
    paths = []
    for name, matrix in (("lhs", ((3, 3), (3, 3))), ("rhs", ((1, 0), (0, 1)))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dumps(graph_record(BipartiteMultigraph(matrix))))
    argv = ["multiply", *map(str, paths), "--engine", engine] + ([] if mod is None else ["--mod", str(mod)])
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_multiply_out_file(capsys, graph_files, tmp_path):
    out_path = tmp_path / "product.json"
    code, out, err = run(
        capsys, "multiply", graph_files["g1"], graph_files["g2"], "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())[1]["coeff"] == "3"


def test_apply_worked_expansion(capsys, graph_files):
    code, out, err = run(capsys, "apply", graph_files["g1"], "|12|34|")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "1", "config": "|123|4|"},
        {"coeff": "1", "config": "|124|3|"},
    ]


def test_apply_content_mismatch_is_zero(capsys, graph_files):
    code, out, err = run(capsys, "apply", graph_files["g1"], "|123|4|")
    assert code == 0
    assert json.loads(out) == []


def test_apply_diagonal_fixes(capsys, tmp_path):
    diag = tmp_path / "diag.json"
    diag.write_text(dumps(graph_record(BipartiteMultigraph(((2, 0), (0, 2))))))
    code, out, err = run(capsys, "apply", str(diag), "|12|34|")
    assert code == 0
    assert json.loads(out) == [{"coeff": "1", "config": "|12|34|"}]


def test_apply_bad_word(capsys, graph_files):
    code, out, err = run(capsys, "apply", graph_files["g1"], "|12|3x|")
    assert code == 1
    assert "invalid ball label" in err


def test_apply_refuses_an_action_past_the_cap(capsys, tmp_path):
    # column (10, 10) splits a box of 20 balls in C(20, 10) = 184,756 ways, twice
    dense = tmp_path / "dense.json"
    dense.write_text(dumps(graph_record(BipartiteMultigraph(((10, 10), (10, 10))))))
    word = "|" + ",".join(map(str, range(1, 21))) + "|" + ",".join(map(str, range(21, 41))) + "|"
    code, out, err = run(capsys, "apply", str(dense), word)
    assert code == 1
    assert out == ""
    assert err == (
        "error: instance too large: the configurations that apply builds at n=2, d=40 "
        "has 34134779536 elements (cap 1000000)\n"
    )


def test_table_single_basis(capsys, tmp_path):
    out_path = tmp_path / "t.jsonl"
    code, out, err = run(capsys, "table", "-n", "1", "-d", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["terms"] == [{"coeff": "1", "graph": {"n": 1, "d": 3, "matrix": [[3]]}}]


def test_table_deterministic_across_jobs(capsys, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert run(capsys, "table", "-n", "2", "-d", "2", "--out", str(first), "--jobs", "1")[0] == 0
    assert run(capsys, "table", "-n", "2", "-d", "2", "--out", str(second), "--jobs", "2")[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().strip().split("\n")) == 100


@pytest.mark.parametrize("mod", [None, 5])
def test_table_lines_match_table_line_of_basis_products(capsys, tmp_path, mod):
    out_path = tmp_path / "t.jsonl"
    argv = ["table", "-n", "2", "-d", "3", "--out", str(out_path)]
    if mod is not None:
        argv += ["--mod", str(mod)]
    assert run(capsys, *argv)[0] == 0
    graphs = enumerate_graphs(Params(2, 3))
    expected = [
        table_line(g1, g2, basis_product(g1, g2).reduce(mod)) for g1 in graphs for g2 in graphs
    ]
    assert out_path.read_text().split("\n") == expected + [""]


def test_table_same_bytes_across_jobs_at_3_3(capsys, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert run(capsys, "table", "-n", "3", "-d", "3", "--out", str(first), "--jobs", "1")[0] == 0
    assert run(capsys, "table", "-n", "3", "-d", "3", "--out", str(second), "--jobs", "2")[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_table_leaves_product_cache_empty(capsys, tmp_path):
    basis_product.cache_clear()
    out_path = tmp_path / "t.jsonl"
    assert run(capsys, "table", "-n", "2", "-d", "3", "--jobs", "1", "--out", str(out_path))[0] == 0
    assert basis_product.cache_info().currsize == 0


def test_table_requires_out(capsys):
    code, out, err = run(capsys, "table", "-n", "2", "-d", "2")
    assert code == 1
    assert "--out" in err


def test_table_leaves_no_partial_file(capsys, tmp_path):
    target = tmp_path / "sub" / "t.jsonl"
    code, out, err = run(capsys, "table", "-n", "2", "-d", "2", "--out", str(target))
    assert code == 1
    assert not target.exists()
    assert not (tmp_path / "sub").exists()


def _failing_compositions(total, parts):
    items = compositions(total, parts)
    yield next(items)
    yield next(items)
    raise ValueError("broken composition")


def _failing_rows(n, d):
    yield {}
    raise ValueError("broken row")


@pytest.mark.parametrize("command", ["basis", "table"])
def test_a_failed_write_keeps_the_old_target(capsys, tmp_path, monkeypatch, command):
    # the writer has started: basis fails at its third graph, table after its first row
    monkeypatch.setattr(cli, "compositions", _failing_compositions)
    monkeypatch.setattr(structconst, "product_rows", _failing_rows)
    target = tmp_path / "t.jsonl"
    for old in (None, "old bytes\n"):
        if old is not None:
            target.write_text(old)
        code, out, err = run(capsys, command, "-n", "2", "-d", "3", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: broken ")
        if old is None:
            assert not target.exists()
        else:
            assert target.read_text() == old
        assert not (tmp_path / "t.jsonl.tmp").exists()


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-d", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    summary = json.loads(lines[-1])
    assert summary["passed"] is True
    assert set(summary["checks"]) == {
        "orbit-bijection", "commutant", "engines", "assoc", "identity", "t-basis",
    }


def test_verify_subset(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-d", "3", "--checks", "commutant,identity")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert set(summary["checks"]) == {"commutant", "identity"}


def test_verify_corrupt_self_test(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-d", "2", "--checks", "commutant", "--corrupt")
    assert code == 2
    assert "FAIL commutant" in out
    assert "counterexample" in err
    assert json.loads(out.strip().split("\n")[-1])["passed"] is False


@pytest.mark.parametrize(
    "boxes, balls, checks", [("2", "1", "commutant"), ("1", "3", "all")], ids=["one-ball", "one-box"]
)
def test_verify_corrupt_without_a_two_cell_orbit_is_an_input_error(capsys, boxes, balls, checks):
    code, out, err = run(capsys, "verify", "-n", boxes, "-d", balls, "--checks", checks, "--corrupt")
    assert code == 1
    assert out == ""
    assert err == f"error: nothing to corrupt: no orbit at n={boxes}, d={balls} has two or more cells\n"


def test_verify_corrupt_needs_the_commutant_check(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-d", "2", "--checks", "identity", "--corrupt")
    assert code == 1
    assert out == ""
    assert err == "error: corrupting an operator needs the commutant check, which is not selected\n"


def test_verify_unknown_check(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-d", "2", "--checks", "bogus")
    assert code == 1
    assert "unknown checks" in err


@pytest.mark.parametrize("checks", [",", " , ", ""], ids=["comma", "spaced-comma", "empty"])
def test_verify_checks_naming_no_suite_is_an_input_error(capsys, checks):
    # a verification that checked nothing must not pass
    code, out, err = run(capsys, "verify", "-n", "2", "-d", "2", "--checks", checks)
    assert code == 1
    assert out == ""
    assert err.startswith("error: no checks named; choose from")


# verify's exit code, stdout sha256 and stderr: two passing runs, a refusal from each cap that run_checks checks
# (when two caps would refuse, the first in its order names itself), and --corrupt with no suite to corrupt
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
GOLDEN_VERIFY = {
    "-n 2 -d 5": (0, "0eec1ee5df8aafb33dacc306a7b8a4ae4fb9c4b5ed6588a857c482f104a927a1", ""),
    "-n 3 -d 3 --seed 1": (0, "77803b7e46c4fc5c39503457fbddfe0e2cdfc70964aa0b03df82fd74aaaec982", ""),
    "-n 4 -d 6": (1, NO_OUTPUT, "error: instance too large: the valency-compatible pairs of t-basis at n=4, d=6 "
                  "has 48097136 elements (cap 1000000)\n"),
    "-n 2 -d 20 --checks commutant,identity": (1, NO_OUTPUT, "error: instance too large: the configuration set "
                                               "at n=2, d=20 has 1048576 elements (cap 1000000)\n"),
    "-n 2 -d 13 --checks commutant": (1, NO_OUTPUT, "error: instance too large for the dense oracle: 8192 basis "
                                      "vectors (cap 4096), 560 orbits (cap 131072)\n"),
    "-n 2 -d 20 --checks engines,t-basis": (1, NO_OUTPUT, "error: instance too large for the dense oracle: "
                                            "1048576 basis vectors (cap 4096), 1771 orbits (cap 131072)\n"),
    "-n 100 -d 1 --checks identity": (1, NO_OUTPUT, "error: instance too large: the graph set's matrix cells "
                                      "at n=100, d=1 has 100000000 elements (cap 16777216)\n"),
    "-n 2 -d 2 --checks identity --corrupt": (1, NO_OUTPUT, "error: corrupting an operator needs the commutant "
                                              "check, which is not selected\n"),
}


@pytest.mark.parametrize("argv", list(GOLDEN_VERIFY))
def test_verify_golden_bytes(capsys, argv):
    code, out, err = run(capsys, "verify", *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == GOLDEN_VERIFY[argv]


def test_render_graph_ascii(capsys, graph_files):
    code, out, err = run(capsys, "render", graph_files["g1"])
    assert code == 0
    assert "top 1 -- bottom 1   x2" in out


def test_render_graph_dot(capsys, graph_files):
    code, out, err = run(capsys, "render", graph_files["g1"], "--format", "dot")
    assert code == 0
    assert out.startswith("graph pair {")


def test_render_product(capsys, graph_files):
    code, out, err = run(
        capsys, "render", graph_files["g1"], graph_files["g2"], graph_files["g3"],
        "--mode", "product",
    )
    assert code == 0
    assert out.startswith("3 filling(s)")


def test_render_product_refuses_before_it_walks(capsys, tmp_path):
    # [[2,2,2],[2,2,2],[2,2,2]] has 729,000 middle rows; each gives this target one filling, and rendering
    # them all took 45 s and 1.85 GiB before the cap
    square, target = tmp_path / "square.json", tmp_path / "target.json"
    square.write_text('{"n":3,"d":18,"matrix":[[2,2,2],[2,2,2],[2,2,2]]}')
    target.write_text('{"n":3,"d":18,"matrix":[[0,0,6],[0,6,0],[6,0,0]]}')
    start = time.perf_counter()
    code, out, err = run(capsys, "render", str(square), str(square), str(target), "--mode", "product")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "error: instance too large: the middle rows of the fillings of [[2,2,2],[2,2,2],[2,2,2]] * "
        "[[2,2,2],[2,2,2],[2,2,2]] has 729000 elements (cap 100000)\n"
    )
    # a left factor whose top valencies miss the square's bottom ones leaves the walk no row to visit
    left = tmp_path / "left.json"
    left.write_text('{"n":3,"d":18,"matrix":[[18,0,0],[0,0,0],[0,0,0]]}')
    code, out, err = run(capsys, "render", str(left), str(square), str(target), "--mode", "product")
    assert (code, err) == (0, "")
    assert out.startswith("0 filling(s)")


def test_render_wrong_file_count(capsys, graph_files):
    code, out, err = run(capsys, "render", graph_files["g1"], graph_files["g2"])
    assert code == 1
    assert "exactly one" in err
    code, out, err = run(capsys, "render", graph_files["g1"], "--mode", "product")
    assert code == 1
    assert "three graph files" in err


def test_usage_error_exits_1(capsys):
    code, out, err = run(capsys, "table", "-n", "2")
    assert code == 1
    assert "error:" in err


def test_table_ignores_jobs_and_starts_no_pool(capsys, tmp_path):
    # table runs in one process; --jobs stays accepted so existing command
    # lines keep working
    serial = tmp_path / "serial.jsonl"
    wide = tmp_path / "wide.jsonl"
    assert run(capsys, "table", "-n", "2", "-d", "3", "--out", str(serial), "--jobs", "1")[0] == 0
    assert run(capsys, "table", "-n", "2", "-d", "3", "--out", str(wide), "--jobs", "10000")[0] == 0
    assert wide.read_bytes() == serial.read_bytes()
    assert not hasattr(cli, "ProcessPoolExecutor")


@pytest.mark.parametrize("boxes, balls, folds", [(3, 3, 276), (3, 4, 1647)])
def test_table_folds_one_pair_per_symmetry_orbit(capsys, tmp_path, monkeypatch, boxes, balls, folds):
    # 2,973 and 18,711 valency-compatible pairs fall into 276 and 1,647 orbits
    # under box relabelling and transposition
    calls = []
    fold = structconst.euler_fold

    def counted(g1, g2):
        calls.append((g1, g2))
        return fold(g1, g2)

    monkeypatch.setattr(structconst, "euler_fold", counted)
    out_path = tmp_path / "t.jsonl"
    assert run(capsys, "table", "-n", str(boxes), "-d", str(balls), "--out", str(out_path))[0] == 0
    assert len(calls) == len(set(calls)) == folds


@pytest.mark.parametrize(
    "record",
    [
        {"n": 2, "d": 2, "matrix": [[True, 0], [0, True]]},
        {"n": True, "d": 1, "matrix": [[1]]},
        {"n": 1, "d": True, "matrix": [[1]]},
    ],
)
def test_multiply_rejects_json_booleans(capsys, tmp_path, record):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "multiply", str(path), str(path))
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("matrix", [5, [5, 6]], ids=["number", "flat-list"])
@pytest.mark.parametrize("command", ["multiply", "render"])
def test_a_matrix_that_is_not_a_list_of_lists_is_an_input_error(capsys, tmp_path, command, matrix):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "d": 11, "matrix": matrix}))
    files = [str(path)] * (2 if command == "multiply" else 1)
    code, out, err = run(capsys, command, *files)
    assert code == 1
    assert out == ""
    assert err == f"error: graph record field matrix must be a list of lists, got {matrix!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        *(["multiply", "{g}", "{g}", "--engine", engine] for engine in ("counting", "euler", "oracle", "all")),
        ["apply", "{g}", "|||"],
        ["render", "{g}"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[4:]),
)
def test_a_graph_with_no_balls_is_an_input_error_for_every_command(capsys, tmp_path, argv):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 2, "d": 0, "matrix": [[0, 0], [0, 0]]}))
    code, out, err = run(capsys, *(arg.format(g=path) for arg in argv))
    assert code == 1
    assert out == ""
    assert err == "error: number of balls must be a positive integer, got 0\n"


TABLE_3_4_SHA256 = "3e53c8d1cd12f5ea79dacbcf8d6dfc483beba7fa599bb79c4436857ae9746ed6"


def test_table_3_4_bytes_pinned(capsys, tmp_path):
    out_path = tmp_path / "t.jsonl"
    assert run(capsys, "table", "-n", "3", "-d", "4", "--jobs", "1", "--out", str(out_path))[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == TABLE_3_4_SHA256


def table_lines_shrunk_by_mod(capsys, tmp_path, p, mod):
    """Check every line of a table against the element path; count the products --mod shrinks."""
    out_path = tmp_path / "t.jsonl"
    argv = ("table", "-n", str(p.n), "-d", str(p.d), "--mod", str(mod), "--out", str(out_path))
    assert run(capsys, *argv)[0] == 0
    graphs = enumerate_graphs(p)
    lines = out_path.read_text().split("\n")
    assert lines[-1] == ""
    assert len(lines) == len(graphs) ** 2 + 1
    shrunk = 0
    for k, (g1, g2) in enumerate((g1, g2) for g1 in graphs for g2 in graphs):
        product = structconst.multiply_basis_euler(g1, g2)
        reduced = product.reduce(mod)
        assert lines[k] == table_line(g1, g2, reduced)
        shrunk += len(reduced.items()) < len(product.items())
    return shrunk


def test_table_mod_2_at_3_3_drops_zero_residues(capsys, tmp_path):
    assert table_lines_shrunk_by_mod(capsys, tmp_path, Params(3, 3), 2) == 657


@pytest.mark.parametrize("boxes, balls", [(1, 3), (4, 2)])
def test_table_mod_3_lines_without_and_with_three_swaps(capsys, tmp_path, boxes, balls):
    # one box has no swap to relabel by, four have three
    table_lines_shrunk_by_mod(capsys, tmp_path, Params(boxes, balls), 3)


def test_table_3_4_streams_in_small_memory(capsys, tmp_path):
    # rows are written as they are made, from precomputed JSON, so the whole
    # 31.6 MB table is never held; the relabelled terms of orbit pairs whose
    # rows are still to come peak near 5 MiB
    basis.cache_clear()
    structconst._vertex_moves.cache_clear()
    out_path = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        code = run(capsys, "table", "-n", "3", "-d", "4", "--jobs", "1", "--out", str(out_path))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20


def test_table_beyond_the_product_cap_is_an_input_error(capsys, tmp_path):
    # 1,225 graphs at (7,2), so 1,500,625 products: refused before any is made
    out_path = tmp_path / "t.jsonl"
    code, out, err = run(capsys, "table", "-n", "7", "-d", "2", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: instance too large: the product table at n=7, d=2 has 1500625 elements (cap 1000000)\n"
    assert not out_path.exists() and not (tmp_path / "t.jsonl.tmp").exists()


def test_verify_beyond_the_cell_cap_refuses_before_building(capsys):
    # 10,000 graphs of 10,000 cells each: 1.7 GB before the cell cap
    basis.cache_clear()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "-n", "100", "-d", "1", "--checks", "identity")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (
        "error: instance too large: the graph set's matrix cells at n=100, d=1 "
        "has 100000000 elements (cap 16777216)\n"
    )
    assert peak < 2**20


# runs cli.main on its arguments under an address-space limit; reports the
# exit code, stdout, and whether the dense oracle was ever imported
CAPPED = """
import contextlib, io, json, resource, sys
limit = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from schurbox import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "oracle": "schurbox.oracle" in sys.modules, "out": out.getvalue()}))
"""


def _capped_verify(limit_mb: int, deadline_s: int, *argv: str) -> tuple[dict, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CAPPED, str(limit_mb), "verify", *argv],
        env=env, capture_output=True, text=True, timeout=deadline_s,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), done.stderr


def test_verify_sweeps_finish_at_the_vector_cap():
    # (2,12) has 4,096 vectors: about 6 s and a 300 MiB address-space peak on a 2-vCPU VM
    report, err = _capped_verify(1024, 120, "-n", "2", "-d", "12", "--checks", "orbit-bijection,identity,t-basis")
    assert report["code"] == 0, err
    assert report["out"].splitlines()[-1] == (
        '{"checks":{"identity":true,"orbit-bijection":true,"t-basis":true},"d":12,"n":2,"passed":true}'
    )


def test_verify_refuses_t_basis_at_5_5_before_the_pair_table():
    # 149M compatible pairs; the refusal comes after enumerating the basis (about 2 s, 95 MiB)
    report, err = _capped_verify(256, 60, "-n", "5", "-d", "5")
    assert report == {"code": 1, "oracle": False, "out": ""}
    assert err == (
        "error: instance too large: the valency-compatible pairs of t-basis at n=5, d=5 "
        "has 149057505 elements (cap 1000000)\n"
    )


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "schurbox", "dim", "-n", "2", "-d", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"binomial": 10, "d": 2, "enumerated": 10, "n": 2}


def test_main_builds_the_parser_once(capsys, monkeypatch):
    # well-formed argv builds no parser; every other argv builds the full one, once per call
    built = []

    def counted():
        built.append(True)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    assert run(capsys, "dim", "-n", "2", "-d", "2")[0] == 0
    assert run(capsys, "basis", "-n", "1", "-d", "1")[0] == 0
    assert built == []
    assert run(capsys, "dim", "-n", "2")[0] == 1
    assert run(capsys, "dim", "--box", "2", "--bal", "2")[0] == 0
    assert run(capsys)[0] == 1
    assert run(capsys, "bogus")[0] == 1
    assert len(built) == 4


def _parsed(capsys, parser, argv):
    """Exit code, stdout and stderr of one parse; None for a parse that does not exit."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# forms the quick path leaves to argparse besides help: abbreviations, --x=v, -n3, a value starting with -, --,
# interleaved positionals, a lone -, and usage errors
DECLINED = [
    ["dim", "--box", "2", "--bal", "2"],
    ["dim", "--boxes=2", "-d", "2"],
    ["dim", "-n2", "-d", "2"],
    ["dim", "-n", "-2", "-d", "2"],
    ["table", "-n", "2", "-d", "2", "--mod", "-3", "--out", "t"],
    ["multiply", "--", "a.json", "b.json"],
    ["multiply", "a.json", "--mod", "3", "b.json"],
    ["render", "a.json", "--format", "dot", "b.json"],
    ["render", "-", "--mode", "graph"],
    ["verify", "-n", "2", "-d", "2", "--checks", "-assoc"],
    ["dim", "-n", "2", "-d"],
    ["multiply", "a.json", "b.json", "c.json"],
    ["multiply", "a.json", "b.json", "--engine", "euler", "--engine", "fast"],
    ["verify", "-n", "2", "-d", "2", "--corrupt", "x"],
    ["basis", "-n", "2", "-d", "2", "extra"],
    ["apply", "g.json", "|12|3|", "--mod", "5"],
]
# forms the quick path reads: flags in any order, repeated, long and short, flags before positionals
READ = [
    ["dim", "-n", "2", "-d", "2"],
    ["dim", "-n", "2", "-n", "3", "--balls", "2"],
    ["dim", "-n", "1_0", "-d", " 2"],
    ["basis", "--balls", "1", "--boxes", "3", "--out", ""],
    ["multiply", "a.json", "b.json", "--engine", "all", "--mod", "7", "--out", "p.json"],
    ["multiply", "--engine", "counting", "a.json", "b.json"],
    ["table", "--out", "t", "-d", "3", "-n", "2", "--jobs", "4"],
    ["verify", "-n", "2", "-d", "2", "--corrupt", "--seed", "3", "--checks", "assoc,identity"],
    ["render", "a.json", "b.json", "c.json", "--mode", "product", "--format", "dot"],
    ["render", "--mode", "product", "a.json", "b.json", "c.json"],
]


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "-h"] for command in cli.COMMANDS),
        ["dim", "-n", "2", "-d", "2", "--extra"],
        ["dim", "-n", "2"],
        ["dim", "-n", "x", "-d", "2"],
        ["basis", "-d", "2"],
        ["multiply", "a.json"],
        ["multiply", "a.json", "b.json", "--engine", "mendez"],
        ["apply", "g.json", "|1|", "--mod"],
        ["table", "-n", "2", "-d", "2"],
        ["table", "-n", "2", "-d", "2", "--out", "t", "--jobs", "x"],
        ["verify", "-n", "2", "-d", "2", "--checks"],
        ["render", "g.json", "--format", "svg"],
        ["render"],
        *DECLINED,
        *READ,
    ],
    ids=lambda argv: " ".join(argv),
)
def test_one_command_parser_prints_the_full_parsers_bytes(capsys, argv):
    # main prints the full parser's help and usage errors, and the quick path returns exactly what the full parser
    # does for the forms it reads and declines every other
    full = _parsed(capsys, cli.build_parser(), argv)
    quick = cli._quick_args(argv)
    assert (quick is None) == (argv not in READ)
    if full[0] is None:
        assert quick is None or vars(quick) == vars(cli.build_parser().parse_args(argv))
    else:
        assert run(capsys, *argv) == full


def test_usage_error_after_a_successful_call_prints_usage_and_exits_1(capsys):
    assert run(capsys, "dim", "-n", "2", "-d", "2")[0] == 0
    code, out, err = run(capsys, "dim", "-n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: schurbox dim")
    assert err.endswith("error: the following arguments are required: -d/--balls\n")
    code, out, err = run(capsys, "dim", "-n", "2", "-d", "2")
    assert (code, json.loads(out)) == (0, {"binomial": 10, "d": 2, "enumerated": 10, "n": 2})
