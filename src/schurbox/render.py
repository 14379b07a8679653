"""Text and DOT drawings of graphs and of three-row product diagrams."""

from .graphs import BipartiteMultigraph
from .structconst import middle_fillings


def _edges(g: BipartiteMultigraph) -> list[tuple[int, int, int]]:
    """The occupied parallel classes of g as (top, bottom, multiplicity), sorted by (top, bottom)."""
    return [(t, b, k) for t, column in enumerate(zip(*g.matrix), 1) for b, k in enumerate(column, 1) if k]


def _edge_lines(g: BipartiteMultigraph, upper: str, lower: str, indent: str = "  ") -> list[str]:
    lines = []
    for top, bottom, mult in _edges(g):
        suffix = f"   x{mult}" if mult > 1 else ""
        lines.append(f"{indent}{upper} {top} -- {lower} {bottom}{suffix}")
    return lines


def render_graph_ascii(g: BipartiteMultigraph) -> str:
    """Two vertex rows and one line per parallel class, with multiplicities."""
    vertex_row = " ".join(f"({v})" for v in range(1, g.n + 1))
    lines = [f"top:    {vertex_row}", f"bottom: {vertex_row}", "edges:"]
    lines += _edge_lines(g, "top", "bottom")
    return "\n".join(lines) + "\n"


def _dot_row(row: str, labels) -> str:
    """One rank of DOT nodes ``<row>1``, ``<row>2``, ... with the given labels."""
    return "  { rank=same; " + " ".join(f'{row}{v} [label="{label}"];' for v, label in enumerate(labels, 1)) + " }"


def _dot_edges(g: BipartiteMultigraph, upper: str, lower: str) -> list[str]:
    """One DOT edge per edge of g, parallel edges repeated, from row ``upper`` to row ``lower``."""
    return [f"  {upper}{t} -- {lower}{b};" for t, b, mult in _edges(g) for _ in range(mult)]


def render_graph_dot(g: BipartiteMultigraph) -> str:
    """An undirected DOT graph; parallel edges are repeated."""
    lines = ["graph pair {", "  rankdir=TB;", "  node [shape=circle];"]
    lines += [_dot_row(row, (f"{row}{v}" for v in range(1, g.n + 1))) for row in "tb"]
    lines += _dot_edges(g, "t", "b")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_product_ascii(
    g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph
) -> str:
    """Three-row diagrams, one per middle filling of the composed graph.

    The top row is the canonical configuration for g2's top valencies, the
    bottom row the canonical partner for g; each middle row is one way of
    lettings balls flow down the edges of g2 and then g1.
    """
    a, c, middles = middle_fillings(g1, g2, g)
    header = f"{len(middles)} filling(s) of {g1} * {g2} composing to {g}"
    blocks = [header]
    for k, b in enumerate(middles, start=1):
        lines = [f"filling {k}:"]
        lines.append(f"  top     {c.word()}")
        lines += _edge_lines(g2, "top", "middle", indent="    ")
        lines.append(f"  middle  {b.word()}")
        lines += _edge_lines(g1, "middle", "bottom", indent="    ")
        lines.append(f"  bottom  {a.word()}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _box_label(box: tuple[int, ...]) -> str:
    return ",".join(str(ball) for ball in box) if box else "-"


def render_product_dot(
    g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph
) -> str:
    """One DOT graph per middle filling, with box contents as node labels."""
    a, c, middles = middle_fillings(g1, g2, g)
    graphs = []
    for k, b in enumerate(middles, start=1):
        lines = [f"graph filling_{k} {{", "  rankdir=TB;", "  node [shape=box];"]
        lines += [_dot_row(row, map(_box_label, x.boxes)) for row, x in zip("tmb", (c, b, a))]
        lines += _dot_edges(g2, "t", "m") + _dot_edges(g1, "m", "b")
        lines.append("}")
        graphs.append("\n".join(lines))
    return "\n\n".join(graphs) + "\n"
