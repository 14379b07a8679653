"""JSON records for graphs, configurations, vectors, elements, and tables.

Coefficients travel as decimal strings so that arbitrary-precision integers
survive any JSON reader.  All emitters sort keys and terms, so equal objects
always serialize to identical bytes.
"""

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence

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


def _graph_template(n: int, d: int) -> str:
    """:func:`dumps` of :func:`graph_record` at shape (n, d) as a %-template: ``template % g.sort_key``."""
    return '{"d":%d,"matrix":[[%s]],"n":%d}' % (d, "],[".join([",".join(["%d"] * n)] * n), n)


def counts_json(counts: Mapping[tuple[int, ...], int], n: int, d: int, mod: int | None = None) -> str:
    """:func:`dumps` of :func:`element_records`, from an engine's {flattened composed matrix: coefficient}.

    A flattened matrix is its graph's ``sort_key``, so the sorted counts are the terms in order, each written
    with one f-string and the graph record's :func:`_graph_template`.  ``mod`` reduces each coefficient,
    dropping zero residues.
    """
    graph = '","graph":' + _graph_template(n, d) + "}"
    terms = ((key, coeff if mod is None else coeff % mod) for key, coeff in sorted(counts.items()))
    return "[" + ",".join([f'{{"coeff":"{coeff}{graph % key}' for key, coeff in terms if coeff]) + "]"


def vector_records(v: VectorElement) -> list:
    return [{"coeff": str(coeff), "config": config.word()} for config, coeff in v.items()]


def table_line(g1: BipartiteMultigraph, g2: BipartiteMultigraph, product: AlgebraElement) -> str:
    """One tabulation record: both factors and the expanded product."""
    return dumps({"g1": graph_record(g1), "g2": graph_record(g2), "terms": element_records(product)})


def table_blocks(
    graphs: Sequence[BipartiteMultigraph], rows: Iterable[dict], mod: int | None = None
) -> Iterator[str]:
    """Each left factor's block of table lines, from :func:`structconst.product_rows`.

    ``graphs`` is the basis in basis order and ``rows`` its product rows,
    each {right factor: (term indices, coefficients)} in any order.  A block
    is :func:`table_line` per right factor, each followed by ``"\\n"``,
    spliced from each graph's JSON, written once from its ``sort_key`` by the
    shape's :func:`_graph_template`: the same bytes, because :func:`dumps`
    sorts the keys as g1, g2, terms and as coeff, graph, and terms are sorted
    by index (one or two terms are ordered without a sort).  ``mod`` reduces
    each coefficient, dropping zero residues.
    """
    template = _graph_template(graphs[0].n, graphs[0].d)
    records = [template % g.sort_key for g in graphs]
    fragments = ['","graph":' + record + "}" for record in records]
    zero_tails = [record + ',"terms":[]}\n' for record in records]
    for record1, row in zip(records, rows):
        tails = zero_tails.copy()
        for k, (indices, coeffs) in row.items():
            if len(indices) == 1 and mod is None:
                tails[k] = f'{records[k]},"terms":[{{"coeff":"{coeffs[0]}{fragments[indices[0]]}]}}\n'
                continue
            if len(indices) == 2 and mod is None:
                (x, y), (a, b) = indices, coeffs
                if x > y:
                    x, y, a, b = y, x, b, a
                tails[k] = f'{records[k]},"terms":[{{"coeff":"{a}{fragments[x]},{{"coeff":"{b}{fragments[y]}]}}\n'
                continue
            terms = sorted(zip(indices, coeffs))
            if mod is not None:
                terms = [(x, residue) for x, coeff in terms if (residue := coeff % mod)]
            terms_json = ",".join([f'{{"coeff":"{coeff}{fragments[x]}' for x, coeff in terms])
            tails[k] = records[k] + ',"terms":[' + terms_json + "]}\n"
        head = '{"g1":' + record1 + ',"g2":'
        yield head + head.join(tails)


def load_json_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
