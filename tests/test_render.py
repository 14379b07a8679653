"""Text diagrams: two-row graphs and three-row product fillings."""

from schurbox.graphs import BipartiteMultigraph
from schurbox.render import (
    render_graph_ascii,
    render_graph_dot,
    render_product_ascii,
    render_product_dot,
)

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))
G3 = BipartiteMultigraph(((3, 0), (0, 1)))


def test_graph_ascii_worked_example():
    text = render_graph_ascii(G1)
    assert text == (
        "top:    (1) (2)\n"
        "bottom: (1) (2)\n"
        "edges:\n"
        "  top 1 -- bottom 1   x2\n"
        "  top 2 -- bottom 1\n"
        "  top 2 -- bottom 2\n"
    )


def test_graph_ascii_single_box_bundle():
    text = render_graph_ascii(BipartiteMultigraph(((3,),)))
    assert "top 1 -- bottom 1   x3" in text
    assert text.count("--") == 1


def test_graph_dot_has_parallel_edges():
    text = render_graph_dot(G1)
    assert text.startswith("graph pair {")
    assert text.rstrip().endswith("}")
    assert text.count("t1 -- b1;") == 2
    assert text.count("t2 -- b1;") == 1
    assert text.count("t2 -- b2;") == 1
    assert "rank=same" in text


def test_product_ascii_worked_example():
    text = render_product_ascii(G1, G2, G3)
    assert text.startswith("3 filling(s) of [[2,1],[0,1]] * [[2,0],[1,1]] composing to [[3,0],[0,1]]")
    # the first filling of the worked product: rows 123/4, 12/34, 123/4
    first = text.split("\n\n")[1]
    assert "top     |123|4|" in first
    assert "middle  |12|34|" in first
    assert "bottom  |123|4|" in first
    for middle in ("|12|34|", "|13|24|", "|23|14|"):
        assert f"middle  {middle}" in text
    assert text.count("filling ") == 3


def test_product_ascii_empty_case():
    text = render_product_ascii(G1, G2, G1)
    assert text.startswith("0 filling(s)")


def test_product_dot_one_graph_per_filling():
    text = render_product_dot(G1, G2, G3)
    assert text.count("graph filling_") == 3
    blocks = [block for block in text.split("\n\n") if block.strip()]
    assert len(blocks) == 3
    first = blocks[0]
    # three rows of two boxes, with ball contents as labels
    assert 't1 [label="1,2,3"];' in first
    assert 'm1 [label="1,2"];' in first
    assert 'b2 [label="4"];' in first
    assert first.count("t1 -- m1;") == 2
    assert first.count("m1 -- b1;") == 2


def _filling_dot(k, middle):
    m1, m2 = middle
    return (
        f"graph filling_{k} {{\n"
        "  rankdir=TB;\n"
        "  node [shape=box];\n"
        '  { rank=same; t1 [label="1,2,3"]; t2 [label="4"]; }\n'
        f'  {{ rank=same; m1 [label="{m1}"]; m2 [label="{m2}"]; }}\n'
        '  { rank=same; b1 [label="1,2,3"]; b2 [label="4"]; }\n'
        "  t1 -- m1;\n  t1 -- m1;\n  t1 -- m2;\n  t2 -- m2;\n"
        "  m1 -- b1;\n  m1 -- b1;\n  m2 -- b1;\n  m2 -- b2;\n"
        "}\n"
    )


def test_dot_golden_bytes():
    assert render_graph_dot(G1) == (
        "graph pair {\n"
        "  rankdir=TB;\n"
        "  node [shape=circle];\n"
        '  { rank=same; t1 [label="t1"]; t2 [label="t2"]; }\n'
        '  { rank=same; b1 [label="b1"]; b2 [label="b2"]; }\n'
        "  t1 -- b1;\n  t1 -- b1;\n  t2 -- b1;\n  t2 -- b2;\n"
        "}\n"
    )
    middles = (("1,2", "3,4"), ("1,3", "2,4"), ("2,3", "1,4"))
    assert render_product_dot(G1, G2, G3) == "\n".join(_filling_dot(k, m) for k, m in enumerate(middles, 1))
