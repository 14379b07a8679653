"""Round trips and byte determinism of the JSON record formats."""

import itertools
import json

import pytest

from schurbox.algebra import AlgebraElement, VectorElement
from schurbox.combinatorics import Configuration, Params, enumerate_configurations
from schurbox.graphs import BipartiteMultigraph, enumerate_graphs
from schurbox.serialize import (
    counts_json,
    dumps,
    element_records,
    graph_from_record,
    graph_record,
    table_blocks,
    table_line,
    vector_records,
)
from schurbox.structconst import euler_fold, multiply_basis_euler, product_rows

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))


def _element_from_records(records, n, d):
    """The element that a list of element records describes, read back as any JSON consumer would."""
    return AlgebraElement(n, d, [(graph_from_record(r["graph"]), int(r["coeff"])) for r in records])


def test_graph_roundtrip():
    for g in enumerate_graphs(Params(2, 3)):
        assert graph_from_record(graph_record(g)) == g
        assert graph_from_record(json.loads(dumps(graph_record(g)))) == g


def test_graph_record_validation():
    with pytest.raises(ValueError, match="needs keys"):
        graph_from_record({"matrix": [[1]]})
    with pytest.raises(ValueError, match="needs keys"):
        graph_from_record([1, 2])
    with pytest.raises(ValueError, match="says n="):
        graph_from_record({"n": 3, "d": 4, "matrix": [[2, 1], [0, 1]]})
    with pytest.raises(ValueError, match="says d="):
        graph_from_record({"n": 2, "d": 5, "matrix": [[2, 1], [0, 1]]})
    with pytest.raises(ValueError, match="nonnegative integers"):
        graph_from_record({"n": 2, "d": 2, "matrix": [[True, 0], [0, True]]})
    with pytest.raises(ValueError, match="must be an integer"):
        graph_from_record({"n": True, "d": 1, "matrix": [[1]]})
    with pytest.raises(ValueError, match="must be an integer"):
        graph_from_record({"n": 1, "d": True, "matrix": [[1]]})
    with pytest.raises(ValueError, match="number of balls must be a positive integer, got 0"):
        graph_from_record({"n": 2, "d": 0, "matrix": [[0, 0], [0, 0]]})
    for matrix in (5, [5, 6], "ab", [[1], (1,)]):
        with pytest.raises(ValueError, match="must be a list of lists"):
            graph_from_record({"n": 2, "d": 2, "matrix": matrix})


def test_element_roundtrip_with_extreme_coefficients():
    x = AlgebraElement(2, 4, [(G1, 10**30), (G2, -7)])
    records = element_records(x)
    assert records[0]["coeff"] in ("-7", str(10**30))
    assert _element_from_records(records, 2, 4) == x
    assert _element_from_records(json.loads(dumps(records)), 2, 4) == x
    assert element_records(AlgebraElement.zero(2, 4)) == []


def test_element_records_sorted():
    x = AlgebraElement(2, 4, [(G2, 1), (G1, 1)])
    records = element_records(x)
    keys = [tuple(itertools.chain.from_iterable(r["graph"]["matrix"])) for r in records]
    assert keys == sorted(keys)


def test_vector_roundtrip():
    p = Params(2, 3)
    for config in enumerate_configurations(p):
        v = 5 * VectorElement.basis(config)
        records = json.loads(dumps(vector_records(v)))
        assert records == [{"coeff": "5", "config": config.word()}]
        assert Configuration.from_word(records[0]["config"], n=p.n, d=p.d) == config


def test_dumps_is_deterministic():
    record = {"b": 1, "a": [3, 2]}
    assert dumps(record) == '{"a":[3,2],"b":1}'
    assert dumps(record) == dumps(dict(reversed(record.items())))


def test_table_line_parses_back():
    product = AlgebraElement(2, 4, [(G1, 2)])
    line = table_line(G1, G2, product)
    record = json.loads(line)
    assert graph_from_record(record["g1"]) == G1
    assert graph_from_record(record["g2"]) == G2
    assert _element_from_records(record["terms"], 2, 4) == product
    assert "\n" not in line


def test_table_blocks_match_table_line():
    # every ordered pair at (2,3), where renaming has 2 elements, and at (3,3), where it has 6, in basis
    # order, with coefficients as found and scaled past 64 bits: one-term entries, sorted multi-term
    # entries and dropped zero residues are all checked byte for byte
    for p in (Params(2, 3), Params(3, 3)):
        graphs = enumerate_graphs(p)
        products = [[multiply_basis_euler(g1, g2) for g2 in graphs] for g1 in graphs]
        for mod, scale in itertools.product((None, 2), (1, 10**30)):
            rows = [
                {k: (indices, tuple(scale * c for c in coeffs)) for k, (indices, coeffs) in row.items()}
                for row in product_rows(p.n, p.d)
            ]
            expected = "".join(
                table_line(g1, g2, (scale * product).reduce(mod)) + "\n"
                for g1, row in zip(graphs, products)
                for g2, product in zip(graphs, row)
            )
            blocks = list(table_blocks(graphs, rows, mod))
            assert len(blocks) == len(graphs)
            assert "".join(blocks) == expected, (p, mod, scale)


def test_counts_json_writes_element_records():
    # every ordered pair at (2,3), (3,2) and (1,4) plus an empty product, the counts in reverse fold order
    # and scaled past 64 bits: sorting, residues and the matrix template are all checked byte for byte
    for p in (Params(2, 3), Params(3, 2), Params(1, 4)):
        graphs = enumerate_graphs(p)
        for g1, g2 in itertools.product(graphs, repeat=2):
            for mod, scale in itertools.product((None, 2, 7), (1, 10**30)):
                counts = {key: scale * c for key, c in reversed(euler_fold(g1, g2).items())}
                expected = dumps(element_records((scale * multiply_basis_euler(g1, g2)).reduce(mod)))
                assert counts_json(counts, p.n, p.d, mod) == expected, (g1, g2, mod, scale)
    assert counts_json({}, 2, 3) == "[]"
