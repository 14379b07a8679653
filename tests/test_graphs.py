"""Pair graphs, orbit enumeration, and canonical representatives."""

import itertools
import math
import pickle

import pytest

from schurbox import graphs as graphs_module
from schurbox import verify
from schurbox.combinatorics import (
    Configuration,
    Params,
    TooLargeError,
    canonical_index,
    compositions,
    enumerate_configurations,
    enumerate_multi_indices,
    to_configuration,
    to_multi_index,
)
from schurbox.graphs import (
    ORBIT_CAP,
    BipartiteMultigraph,
    canonical_configuration,
    canonical_indices,
    canonical_pair,
    diagonal_graph,
    enumerate_graphs,
    graph_count,
    in_reach,
    pair_graph,
    rank,
    rank_weights,
)

from reference import act_on_index, all_permutations

SHAPES = (Params(2, 2), Params(2, 3), Params(3, 2))


def brute_force_orbits(p):
    """Orbits of simultaneous ball renaming on index pairs, by direct closure."""
    orbits = []
    seen = set()
    for pair in itertools.product(enumerate_multi_indices(p), repeat=2):
        if pair in seen:
            continue
        orbit = {(act_on_index(w, pair[0]), act_on_index(w, pair[1])) for w in all_permutations(p.d)}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_matrix_validation():
    with pytest.raises(ValueError):
        BipartiteMultigraph(((1, 2),))
    with pytest.raises(ValueError):
        BipartiteMultigraph(((1, -1), (0, 2)))
    with pytest.raises(ValueError):
        BipartiteMultigraph(((1.0,),))
    with pytest.raises(ValueError):
        BipartiteMultigraph(((True, 0), (0, True)))
    with pytest.raises(ValueError):
        BipartiteMultigraph(())


def test_valencies_and_str():
    g = BipartiteMultigraph(((2, 1), (0, 1)))
    assert g.n == 2
    assert g.d == 4
    assert g.bottom_valencies() == (3, 1)
    assert g.top_valencies() == (2, 2)
    assert str(g) == "[[2,1],[0,1]]"


def test_stored_shape_leaves_identity_to_the_matrix():
    g = BipartiteMultigraph(((2, 1), (0, 1)))
    same = BipartiteMultigraph([[2, 1], [0, 1]])
    assert (same.n, same.d) == (2, 4)
    assert g == same and hash(g) == hash(same)
    assert repr(g) == "BipartiteMultigraph(matrix=((2, 1), (0, 1)))"
    assert g.__reduce__() == (BipartiteMultigraph, (g.matrix,))
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and (copy.n, copy.d) == (2, 4)


def test_pair_graph_worked_example():
    a = Configuration.from_word("|123|4|")
    b = Configuration.from_word("|13|24|")
    assert pair_graph(a, b).matrix == ((2, 1), (0, 1))
    # edges follow b's boxes on top, a's on the bottom
    assert pair_graph(b, a).matrix == ((2, 0), (1, 1))


def test_pair_graph_shape_mismatch():
    with pytest.raises(ValueError):
        pair_graph(Configuration.from_word("|12|"), Configuration.from_word("|1|2|"))
    with pytest.raises(ValueError):
        pair_graph(Configuration.from_word("|12|3|"), Configuration.from_word("|1|2|"))
    with pytest.raises(ValueError):
        pair_graph(Configuration.from_word("|1|2|"), Configuration.from_word("|1|2||"))


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2), Params(3, 3)], ids=str)
def test_pair_graph_equals_the_checked_graph(p):
    # pair_graph skips the constructor's checks; its graphs must be the ones they pass
    for a, b in itertools.product(enumerate_configurations(p), repeat=2):
        g = pair_graph(a, b)
        cells = list(zip(to_multi_index(a), to_multi_index(b)))
        checked = BipartiteMultigraph(
            tuple(tuple(cells.count((i, j)) for j in range(1, p.n + 1)) for i in range(1, p.n + 1))
        )
        assert (g.matrix, g.n, g.d) == (checked.matrix, checked.n, checked.d)
        assert type(g.matrix) is tuple and all(type(row) is tuple for row in g.matrix)


def test_pair_graph_valencies_exhaustive():
    p = Params(2, 3)
    for a, b in itertools.product(enumerate_configurations(p), repeat=2):
        g = pair_graph(a, b)
        assert g.bottom_valencies() == a.content()
        assert g.top_valencies() == b.content()


def test_pair_graph_classifies_orbits():
    # two index pairs share a graph exactly when a renaming takes one to the other
    for p in SHAPES:
        orbits = brute_force_orbits(p)
        keys = []
        for orbit in orbits:
            graphs = {pair_graph(to_configuration(x, p.n), to_configuration(y, p.n)) for x, y in orbit}
            assert len(graphs) == 1
            keys.append(graphs.pop())
        assert len(set(keys)) == len(orbits)
        assert len(orbits) == graph_count(p)


def test_enumerate_graphs_counts():
    expected = {(1, 5): 1, (2, 2): 10, (2, 3): 20, (2, 4): 35, (3, 2): 45, (3, 3): 165}
    for (n, d), count in expected.items():
        p = Params(n, d)
        graphs = enumerate_graphs(p)
        assert len(graphs) == count == graph_count(p)
        assert len(set(graphs)) == count
        assert all(g.n == n and g.d == d for g in graphs)
        # built unchecked: each must be the graph the checking constructor gives
        assert all(g == BipartiteMultigraph(g.matrix) for g in graphs)


def _holds_only_its_slots(g: BipartiteMultigraph) -> bool:
    """Whether g has no instance dict, and its slots are its matrix, the n and d read off it, and a weak reference."""
    slots = {name for cls in type(g).__mro__ for name in getattr(cls, "__slots__", ())}
    return not hasattr(g, "__dict__") and slots == {"matrix", "n", "d", "__weakref__"}


def test_graphs_share_equal_rows_and_hold_only_their_matrix():
    def sizes():  # of the graphs module's containers
        return {name: len(value) for name, value in vars(graphs_module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    before = sizes()
    graphs = enumerate_graphs(Params(3, 3))
    rows = {}
    for g in graphs:
        for row in g.matrix:
            assert rows.setdefault(row, row) is row
    assert len(rows) == math.comb(6, 3)  # every row of at most 3 edges over 3 columns
    for g in graphs:
        assert g.top_valencies() == tuple(map(sum, zip(*g.matrix)))
        assert g.bottom_valencies() == tuple(map(sum, g.matrix))
        assert _holds_only_its_slots(g)
    # a graph built apart keeps nothing of the valencies it was asked for, before or after pickling
    g = BipartiteMultigraph(((2, 0, 0), (0, 0, 1), (0, 0, 0)))
    assert (g.top_valencies(), g.bottom_valencies()) == ((2, 0, 1), (2, 1, 0))
    assert _holds_only_its_slots(g)
    copy = pickle.loads(pickle.dumps(g))
    assert (copy.top_valencies(), copy.bottom_valencies()) == ((2, 0, 1), (2, 1, 0))
    assert _holds_only_its_slots(copy)
    # and no table in the module grows with the shapes met
    for p in (Params(2, 7), Params(3, 4)):
        assert verify.check_identity(p).passed
    assert sizes() == before


def test_enumerate_graphs_sorted():
    graphs = enumerate_graphs(Params(2, 3))
    keys = [g.sort_key for g in graphs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p", [Params(1, 1), Params(1, 4), Params(4, 1), Params(2, 3), Params(3, 3), Params(2, 12), Params(4, 4)], ids=str)
def test_rank_is_the_enumeration_order(p):
    graphs = enumerate_graphs(p)
    assert [rank(g.sort_key) for g in graphs] == list(range(len(graphs)))


@pytest.mark.parametrize("d", range(1, 13))
def test_rank_weights_keep_oracle_labels_below_the_orbit_cap(d):
    # the oracle sums one weight per ball into its labels, uint16 up to 2^16 graphs and int32
    # above; at the widest shape it reaches for each d, the largest sum is the last graph's rank
    n = 1
    while in_reach(Params(n + 1, d)):
        n += 1
    largest = sum(map(max, rank_weights(n * n, d)))
    assert largest == graph_count(Params(n, d)) - 1 < ORBIT_CAP


def test_enumerate_graphs_cap():
    with pytest.raises(TooLargeError):
        # 3,268,760 graphs, above the default cap of 10^6
        enumerate_graphs(Params(4, 10))


def test_diagonal_graph():
    g = diagonal_graph((2, 0, 1))
    assert g.matrix == ((2, 0, 0), (0, 0, 0), (0, 0, 1))
    assert g.top_valencies() == g.bottom_valencies() == (2, 0, 1)


def test_canonical_configuration():
    assert canonical_configuration((2, 2)).word() == "|12|34|"
    assert canonical_configuration((0, 3, 1)).word() == "||123|4|"


@pytest.mark.parametrize("p", [Params(2, 5), Params(3, 3), Params(4, 4)], ids=str)
def test_canonical_index_is_c_of_the_diagonal_graph(p):
    # c is the top row of the diagonal graph's canonical pair, and the one sorted multi-index of its content
    for content in compositions(p.d, p.n):
        c = canonical_index(content)
        assert c == canonical_indices(diagonal_graph(content))[1]
        assert list(c) == sorted(c) and to_configuration(c, p.n).content() == content


def test_canonical_pair_example():
    a, c = canonical_pair(BipartiteMultigraph(((2, 1), (1, 0))))
    assert c.word() == "|123|4|"
    assert a.word() == "|124|3|"


@pytest.mark.parametrize("p", SHAPES + (Params(3, 3), Params(1, 3), Params(3, 1)), ids=str)
def test_canonical_indices_read_the_graph_column_by_column(p):
    # c sorted is the canonical configuration; within a box of c, a never decreases
    for g in enumerate_graphs(p):
        a, c = canonical_indices(g)
        assert pair_graph(to_configuration(a, p.n), to_configuration(c, p.n)) == g
        assert list(c) == sorted(c)
        assert all(a[s] <= a[s + 1] for s in range(p.d - 1) if c[s] == c[s + 1])
        assert canonical_pair(g) == (to_configuration(a, p.n), to_configuration(c, p.n))


def test_canonical_pair_realizes_every_graph():
    for p in SHAPES:
        for g in enumerate_graphs(p):
            a, c = canonical_pair(g)
            assert pair_graph(a, c) == g
            assert c == canonical_configuration(g.top_valencies())
