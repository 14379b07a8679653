"""Structure constants of the graph basis: an engine, a referee and a reference.

The product of two basis operators expands in basis operators with
nonnegative integer coefficients.  The coefficient attached to a graph g
counts middle rows of a three-row diagram: fix any pair (a, c) with
pair_graph(a, c) == g, then count the configurations b with
pair_graph(a, b) == g1 and pair_graph(b, c) == g2.  The count is the same
for every choice of (a, c), and :func:`multiply_basis_counting`, the
referee, performs it literally with the pair from :func:`canonical_pair`.
It sweeps rows as plain multi-indices, so it builds no configuration and
no graph per diagram, only one graph per term at the end, without
re-validation.

Two further routes never touch configurations and work on the edges of g1
and g2 alone.  An *Euler function* is a bijection from the edges of g2 onto
the edges of g1 such that matched edges meet in the middle row: the bottom
vertex of the g2 edge equals the top vertex of the g1 edge.  Splicing each
edge with its partner produces a composed graph, and the graphs arising this
way are exactly the support of the product.  Counting Euler functions
themselves overcounts, because parallel edges are interchangeable; the
correct objects are *word matrices*.  Give each parallel class of each
factor a label; entry (s, t) of the word matrix lists, in ball order, the
ordered pairs (g2 label, g1 label) used by the balls travelling from top
box t to bottom box s.  Word matrices are in bijection with middle
configurations, so their number per composed graph is the structure
constant.  :func:`multiply_basis_euler`, the production engine, reaches that
number arithmetically by Green's product rule, one middle vertex at a time,
over per-vertex moves (the nonzero entries of each contingency table) that
are memoized by the vertex's row of g2 and column of g1.  The fold is the
kernel :func:`euler_fold`, which returns the raw {flattened composed
matrix: coefficient} counts, and :func:`product_rows` runs it once per orbit;
:func:`multiply_basis_euler` wraps them as an element without re-validating
graphs it built itself.  :func:`multiply_basis_mendez` instead builds every
word matrix explicitly and counts them.  It is slower than ``euler`` on
every measured product, so it is not on the engine roster
(``algebra.ENGINE_NAMES``); it stays as a reference for the word-matrix
bijection.  Nothing here builds an Euler function.

>>> g1 = BipartiteMultigraph(((2, 1), (0, 1)))
>>> g2 = BipartiteMultigraph(((2, 0), (1, 1)))
>>> print(multiply_basis_counting(g1, g2))
xi[[2,1],[1,0]] + 3*xi[[3,0],[0,1]]
>>> sorted(euler_fold(g1, g2).items())
[((2, 1, 1, 0), 1), ((3, 0, 0, 1), 3)]
"""

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter, le

from .algebra import AlgebraElement, apply_basis
from .combinatorics import Configuration, arrangements, column_arrangements, to_multi_index
from .graphs import (
    BipartiteMultigraph,
    EdgeLabel,
    basis,
    canonical_pair,
    pair_graph,
    rank,
)

Pair = tuple[EdgeLabel, EdgeLabel]
"""One recorded ball path: (label of its g2 edge, label of its g1 edge)."""


def _check_same_shape(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> None:
    if (g1.n, g1.d) != (g2.n, g2.d):
        raise ValueError(f"graph shapes differ: ({g1.n},{g1.d}) vs ({g2.n},{g2.d})")


@dataclass(frozen=True)
class WordMatrix:
    """Matrix of label-pair words; entry (s, t) records the balls going from top box t to bottom box s."""

    entries: tuple[tuple[tuple[Pair, ...], ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def graph(self) -> BipartiteMultigraph:
        """Graph of word lengths: one composed edge per recorded ball path."""
        return BipartiteMultigraph(tuple(tuple(len(word) for word in row) for row in self.entries))


def _bounded_compositions(total: int, bounds: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not bounds:
        if total == 0:
            yield ()
        return
    for head in range(min(total, bounds[0]) + 1):
        for tail in _bounded_compositions(total - head, bounds[1:]):
            yield (head,) + tail


def _tables(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Nonnegative integer matrices with the given row and column sums."""
    if not row_sums:
        if all(c == 0 for c in col_sums):
            yield ()
        return
    for first in _bounded_compositions(row_sums[0], col_sums):
        reduced = tuple(c - f for c, f in zip(col_sums, first))
        for rest in _tables(row_sums[1:], reduced):
            yield (first,) + rest


@lru_cache(maxsize=4096)
def _vertex_moves(
    g2_row: tuple[int, ...], g1_column: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The fold's moves at one middle vertex v, from row v of g2 and column v of g1.

    One move per contingency table between the g2 edges arriving at v (by top
    box t) and the g1 edges leaving v (by bottom box s): the nonzero entries
    k of the table as (s * n + t, k) pairs, the cell of the flattened
    composed matrix that they add to.  Memoized, since few margins recur.
    """
    n = len(g2_row)
    tops = [t for t in range(n) if g2_row[t]]
    bottoms = [s for s in range(n) if g1_column[s]]
    cells = [s * n + t for t in tops for s in bottoms]
    tables = _tables(tuple(g2_row[t] for t in tops), tuple(g1_column[s] for s in bottoms))
    return tuple(
        tuple((cell, k) for cell, k in zip(cells, sum(table, ())) if k) for table in tables
    )


def _label_pairings(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> Iterator[dict[Pair, int]]:
    """All ways to pair parallel classes across the middle row, with counts.

    At each middle vertex v the pairings are :func:`_vertex_moves` of row v
    of g2 and column v of g1, and per-vertex moves combine freely.  An entry
    k at cell s·n + t pairs the g2 class (t + 1, v) with the g1 class
    (v, s + 1).  Yields {(g2 label, g1 label): count} maps, exactly the
    label-level shadows of Euler functions.
    """
    n = g1.n
    for moves in itertools.product(*map(_vertex_moves, g2.matrix, zip(*g1.matrix))):
        yield {
            ((cell % n + 1, v), (v, cell // n + 1)): k
            for v, move in enumerate(moves, start=1)
            for cell, k in move
        }


def enumerate_word_matrices(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> Iterator[WordMatrix]:
    """Every word matrix of the pair (g1, g2), each exactly once.

    A pairing of parallel classes fixes the multiset of label pairs landing
    in each entry; the entry's word is any arrangement of that multiset,
    chosen independently per entry.
    """
    _check_same_shape(g1, g2)
    n = g1.n
    for pairing in _label_pairings(g1, g2):
        entries = [Counter() for _ in range(n * n)]  # entry (s, t) at s * n + t
        for (label2, label1), count in pairing.items():
            entries[(label1[1] - 1) * n + label2[0] - 1][(label2, label1)] = count
        for choice in itertools.product(*map(arrangements, entries)):
            yield WordMatrix(tuple(choice[s * n : (s + 1) * n] for s in range(n)))


def multiply_basis_mendez(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Product of basis operators by counting word matrices (each yielded once) per composed graph."""
    _check_same_shape(g1, g2)
    return AlgebraElement(g1.n, g1.d, Counter(wm.graph() for wm in enumerate_word_matrices(g1, g2)))


def euler_fold(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> dict[tuple[int, ...], int]:
    """The product of two basis operators as raw counts: {flattened composed matrix: coefficient}.

    Green's product rule, one middle vertex at a time.  Euler functions
    factor over the middle vertices, and up to parallel copies the
    bijections at vertex v are the contingency tables whose entry (t, s)
    counts balls going from top box t through v to bottom box s.  The fold
    maps each partial composed matrix, flattened row by row, to its number of
    partial word matrices; an entry k adds k balls to composed entry (s, t)
    and interleaves them with the ``prefix`` already there in
    C(prefix + k, k) ways.  Every coefficient is positive; the map is empty
    when the valencies do not meet in the middle row.
    """
    _check_same_shape(g1, g2)
    n = g1.n
    if g2.bottom_valencies() != g1.top_valencies():
        return {}
    states = {(0,) * (n * n): 1}
    for g2_row, g1_column in zip(g2.matrix, zip(*g1.matrix)):
        moves = _vertex_moves(g2_row, g1_column)
        if moves == ((),):  # no edge meets this vertex: the empty move keeps every state
            continue
        folded: dict[tuple[int, ...], int] = {}
        for composed, weight in states.items():
            for move in moves:
                entries = list(composed)
                ways = weight
                for cell, k in move:
                    prefix = entries[cell]
                    if prefix:
                        ways *= math.comb(prefix + k, k)
                    entries[cell] = prefix + k
                key = tuple(entries)
                folded[key] = folded.get(key, 0) + ways
        states = folded
    return states


def composed_graph(key: tuple[int, ...], n: int, d: int) -> BipartiteMultigraph:
    """The graph of one of :func:`euler_fold`'s keys, valid by construction, so built without re-validation."""
    return BipartiteMultigraph._trusted(tuple(key[s * n : (s + 1) * n] for s in range(n)), n, d)


def multiply_basis_euler(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Product of basis operators by Green's product rule: :func:`euler_fold` as an element.

    The composed graphs are valid by construction, so they and the element
    are built without re-validation.
    """
    n, d = g1.n, g1.d
    terms = {composed_graph(key, n, d): ways for key, ways in euler_fold(g1, g2).items()}
    return AlgebraElement._from_terms(n, d, terms)


def product_rows(n: int, d: int) -> Iterator[list[tuple[int, list[tuple[int, int]]]]]:
    """Row i of the basis products: (k, sorted (term index, coefficient) pairs) per nonzero product i·k.

    Rows come in basis order and k increases; a product is nonzero exactly
    when the bottom valencies of k meet the top valencies of i.  The first
    pair of a ``Basis.orbit`` met in that order is folded, and every pair of
    the orbit, the folded one included, gets the relabelled terms in its
    row's bucket, {k: (term indices, coefficients)}.  Row i pops its bucket
    when it starts; no orbit reaches an earlier row, so the buckets held are
    those of rows still to come.
    """
    layer = basis(n, d)
    graphs, by_bottom = layer.graphs, layer.by_bottom
    pending: dict[int, dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for i, g1 in enumerate(graphs):
        bucket = pending.pop(i, {})
        row = []
        for k in by_bottom.get(g1.top_valencies(), ()):
            if k not in bucket:
                fold = euler_fold(g1, graphs[k])
                ways = tuple(fold.values())
                for (a, b), image in layer.orbit(i, k, tuple(map(rank, fold))).items():
                    (bucket if a == i else pending.setdefault(a, {}))[b] = image, ways
            row.append((k, sorted(zip(*bucket.pop(k)))))
        yield row


def middle_fillings(
    g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph
) -> tuple[Configuration, Configuration, list[Configuration]]:
    """Canonical witnesses: the pair (a, c) for g and every compatible middle configuration."""
    _check_same_shape(g1, g2)
    _check_same_shape(g1, g)
    a, c = canonical_pair(g)
    middles = [b for b in sorted(apply_basis(g2, c), key=to_multi_index) if pair_graph(a, b) == g1]
    return a, c, middles


def coeff_by_counting(g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph) -> int:
    """One structure constant by direct middle-configuration counting."""
    if g2.bottom_valencies() != g1.top_valencies():
        return 0
    if g.top_valencies() != g2.top_valencies():
        return 0
    if g.bottom_valencies() != g1.bottom_valencies():
        return 0
    return len(middle_fillings(g1, g2, g)[2])


def multiply_basis_counting(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Product of basis operators by sweeping three-row diagrams over one canonical top row.

    Rows are multi-indices, boxes numbered from 0 here.  The top row c is
    the sorted multi-index of g2's top valencies, since the canonical
    configuration numbers the balls box by box.  The middles b are the
    :func:`combinatorics.column_arrangements` of column j of g2 over the
    balls of c's box j, as :func:`algebra.apply_basis` walks them; the
    bottoms a are those of column v of g1 over the balls that b puts in box
    v.  All pairs (a, b) are visited, and the composed graph counts the
    cells (a_s, c_s).  A term counts only at its graph's canonical bottom
    row, where a's boxes never decrease within a box of c (the rule of
    :func:`canonical_pair`); the sweep always visits that row.  (The middle
    count is the same at every bottom row with the right graph, so reading
    one row is enough; that independence is exercised separately by the
    tests.)  Ball s is keyed c_s·n + a_s, so a row is canonical exactly when
    its keys never decrease, and its keys name its graph.
    """
    _check_same_shape(g1, g2)
    n, d = g1.n, g1.d
    if g2.bottom_valencies() != g1.top_valencies():
        return AlgebraElement.zero(n, d)
    # whatever b is, the balls it puts in box v are, in ball order, g2[v][0] balls
    # of c's box 0, then g2[v][1] of box 1, and so on: column v of g1 is keyed once
    keyed = []
    for row, column in zip(g2.matrix, zip(*g1.matrix)):
        offsets = [j * n for j, k in enumerate(row) for _ in range(k)]
        keyed.append([tuple(map(add, offsets, boxes)) for boxes in column_arrangements(column)])
    counts: dict[tuple[int, ...], int] = {}
    for middle in itertools.product(*map(column_arrangements, zip(*g2.matrix))):
        b = sum(middle, ())
        # a choice of bottoms lists the keys ball by ball through b's boxes in turn
        order = sorted(range(d), key=b.__getitem__)
        # back to ball order; itemgetter of one index returns the item, not a 1-tuple
        by_ball = itemgetter(*sorted(range(d), key=order.__getitem__)) if d > 1 else tuple
        for choice in itertools.product(*keyed):
            keys = by_ball(sum(choice, ()))
            if all(map(le, keys, keys[1:])):
                counts[keys] = counts.get(keys, 0) + 1
    # distinct keys name distinct valid graphs, so neither they nor the element are re-validated
    terms = {}
    for keys, count in counts.items():
        rows = [[0] * n for _ in range(n)]
        for key in keys:
            rows[key % n][key // n] += 1
        terms[BipartiteMultigraph._trusted(tuple(map(tuple, rows)), n, d)] = count
    return AlgebraElement._from_terms(n, d, terms)
