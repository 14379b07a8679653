"""JSON records for graphs, configurations, vectors, elements, and tables.

Coefficients travel as decimal strings so that arbitrary-precision integers
survive any JSON reader.  All emitters sort keys and terms, so equal objects
always serialize to identical bytes.
"""

import json
from collections.abc import Sequence

from .algebra import AlgebraElement, VectorElement
from .combinatorics import Params
from .graphs import BipartiteMultigraph


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def graph_record(g: BipartiteMultigraph) -> dict:
    return {"n": g.n, "d": g.d, "matrix": [list(row) for row in g.matrix]}


def graph_from_record(record) -> BipartiteMultigraph:
    if not isinstance(record, dict) or not {"n", "d", "matrix"} <= set(record):
        raise ValueError(f"a graph record needs keys n, d, matrix: {record!r}")
    for key in ("n", "d"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise ValueError(f"graph record field {key} must be an integer, got {record[key]!r}")
    matrix = record["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError(f"graph record field matrix must be a list of lists, got {matrix!r}")
    g = BipartiteMultigraph(tuple(map(tuple, matrix)))
    if g.n != record["n"]:
        raise ValueError(f"matrix is {g.n}x{g.n} but the record says n={record['n']}")
    if g.d != record["d"]:
        raise ValueError(f"matrix entries sum to {g.d} but the record says d={record['d']}")
    Params(g.n, g.d)  # refuses d = 0, as every shape does, whichever command reads the graph
    return g


def element_records(x: AlgebraElement) -> list:
    return [{"coeff": str(coeff), "graph": graph_record(g)} for g, coeff in x.items()]


def vector_records(v: VectorElement) -> list:
    return [{"coeff": str(coeff), "config": config.word()} for config, coeff in v.items()]


def table_line(g1: BipartiteMultigraph, g2: BipartiteMultigraph, product: AlgebraElement) -> str:
    """One tabulation record: both factors and the expanded product."""
    return dumps({"g1": graph_record(g1), "g2": graph_record(g2), "terms": element_records(product)})


def term_fragment(graph_json: str) -> str:
    """The end of an element term after its coefficient, ``","graph":<graph JSON>}``; see :func:`join_terms`."""
    return '","graph":' + graph_json + "}"


def join_terms(fragments: Sequence[str], terms) -> str:
    """:func:`element_records` serialized, from (index, coefficient) pairs in term order.

    ``fragments[index]`` is the :func:`term_fragment` of the term's graph.
    The same bytes as ``dumps(element_records(x))`` when the pairs follow
    ``x.items()``, because :func:`dumps` sorts the keys as coeff, graph.
    """
    return "[" + ",".join([f'{{"coeff":"{coeff}{fragments[x]}' for x, coeff in terms]) + "]"


def table_line_head(g1_json: str) -> str:
    """The start of a :func:`table_line`, up to the serialized g2; see :func:`table_line_tail`."""
    return '{"g1":' + g1_json + ',"g2":'


def table_line_tail(g2_json: str, terms_json: str) -> str:
    """The rest of a :func:`table_line` from its serialized values.

    ``table_line_head(g1 JSON) + table_line_tail(g2 JSON, terms JSON)`` is
    the same bytes as :func:`table_line`, because :func:`dumps` sorts the
    keys as g1, g2, terms.
    """
    return g2_json + ',"terms":' + terms_json + "}"


def load_json_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
