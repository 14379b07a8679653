"""Structure constants of the graph basis: an engine, a referee and a reference.

The product of two basis operators expands in basis operators with
nonnegative integer coefficients.  The coefficient attached to a graph g
counts middle rows of a three-row diagram: fix any pair (a, c) with
pair_graph(a, c) == g, then count the configurations b with
pair_graph(a, b) == g1 and pair_graph(b, c) == g2.  The count is the same
for every choice of (a, c), and :func:`multiply_basis_counting`, the
referee, performs it literally with the pair from :func:`canonical_pair`:
:func:`canonical_diagrams` walks rows as plain multi-indices and visits
only the diagrams whose bottom row is that canonical a.

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
constant.  :func:`euler_fold`, the production engine, reaches that
number arithmetically by Green's product rule, one middle vertex at a time,
over per-vertex moves (the nonzero entries of each contingency table) that
are memoized by the vertex's row of g2 and column of g1.  Both engines,
:func:`euler_fold` and the referee's :func:`counting_fold`, return raw
counts, {flattened composed matrix: coefficient}: a key is its graph's
``sort_key``, so ``multiply`` writes the counts sorted, and only the
``multiply_basis_*`` wrappers build an element from them.
:func:`multiply_basis_mendez` instead builds every word matrix explicitly
and counts them.  It is slower than ``euler`` on every measured product, so
it is not on the engine roster (``algebra.ENGINE_NAMES``); it stays as a
reference for the word-matrix bijection.  Nothing here builds an Euler
function.

>>> g1 = BipartiteMultigraph(((2, 1), (0, 1)))
>>> g2 = BipartiteMultigraph(((2, 0), (1, 1)))
>>> print(multiply_basis_counting(g1, g2))
xi[[2,1],[1,0]] + 3*xi[[3,0],[0,1]]
>>> sorted(euler_fold(g1, g2).items())
[((2, 1, 1, 0), 1), ((3, 0, 0, 1), 3)]
"""

import itertools
import math
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .algebra import AlgebraElement, _image_size
from .combinatorics import (
    Configuration,
    _check_cap,
    arrangements,
    canonical_index,
    column_arrangements,
    to_configuration,
)
from .graphs import BipartiteMultigraph, EdgeLabel, _check_same_shape, basis, canonical_pair

Pair = tuple[EdgeLabel, EdgeLabel]
"""One recorded ball path: (label of its g2 edge, label of its g1 edge)."""
Entry = tuple[tuple[int, ...], tuple[int, ...]]
"""One nonzero product of a table row: (term indices, coefficients)."""

FILLING_ROW_CAP = 10**5
"""Middle rows :func:`middle_fillings` walks at most: [[2,2,2],[2,2,2],[2,2,2]] has 729,000."""


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


@lru_cache(maxsize=4096)
def _vertex_moves(
    g2_row: tuple[int, ...], g1_column: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The fold's moves at one middle vertex v, from row v of g2 and column v of g1.

    One move per contingency table between the g2 edges arriving at v (by top
    box t) and the g1 edges leaving v (by bottom box s): the nonzero entries
    k of the table as (s * n + t, k) pairs, the cell of the flattened
    composed matrix that they add to.  The tables are built one top box at a
    time, in lexicographic order, each top box but the last taking every
    split of its edges over what the bottom boxes still lack, the last top
    box the remainder; none when the two sums differ.  Memoized, since few
    margins recur.
    """
    if sum(g2_row) != sum(g1_column):
        return ()
    n = len(g2_row)
    tops = [t for t in range(n) if g2_row[t]]
    bottoms = [s for s in range(n) if g1_column[s]]
    partial = [((), tuple(g1_column[s] for s in bottoms))]  # (move so far, what each bottom box still lacks)
    for t in tops[:-1]:
        partial = [
            (move + tuple((s * n + t, k) for s, k in zip(bottoms, split) if k),
             tuple(left - k for left, k in zip(lacking, split)))
            for move, lacking in partial
            for split in _bounded_compositions(g2_row[t], lacking)
        ]
    last = tops[-1] if tops else 0
    return tuple(move + tuple((s * n + last, k) for s, k in zip(bottoms, lacking) if k) for move, lacking in partial)


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
        for choice in itertools.product(*(arrangements(entry.elements()) for entry in entries)):
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
    when the valencies do not meet in the middle row, since a vertex whose
    two sums differ has no moves.
    """
    _check_same_shape(g1, g2)
    n = g1.n
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


def multiply_basis_euler(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Product of basis operators by Green's product rule: :func:`euler_fold` as an element."""
    return AlgebraElement._from_counts(g1.n, g1.d, euler_fold(g1, g2))


def _symmetry_maps(graphs: tuple[BipartiteMultigraph, ...]) -> list[list[int]]:
    """The symmetry's generators as basis-index maps: each adjacent box swap, then the transpose.

    ``graphs`` is the basis in basis order.  Each image's flattened matrix is
    looked up in a {flattened matrix: basis index} dict of that basis, built
    here and dropped on return.
    """
    n = graphs[0].n
    keys = [g.sort_key for g in graphs]
    position = {key: k for k, key in enumerate(keys)}
    cells = [divmod(cell, n) for cell in range(n * n)]
    swaps = [[*range(s), s + 1, s, *range(s + 2, n)] for s in range(n - 1)]
    # each generator as the flattened cell that every cell of the image reads
    flats = [[box[i] * n + box[j] for i, j in cells] for box in swaps] + [[j * n + i for i, j in cells]]
    return [[position[tuple(map(key.__getitem__, flat))] for key in keys] for flat in flats]


def product_rows(n: int, d: int) -> Iterator[dict[int, Entry]]:
    """Row i of the basis products: {k: (term indices, coefficients)} per nonzero product i·k, unsorted.

    A product is nonzero exactly when the bottom valencies of k meet the top
    valencies of i.  Relabelling boxes by σ in S_n is an automorphism of the
    algebra and transposing an anti-automorphism, so c(g1, g2; g) =
    c(σg1σᵀ, σg2σᵀ; σgσᵀ) = c(g2ᵀ, g1ᵀ; gᵀ) (Green, *Polynomial
    Representations of GL_n*, §2.3).  The first pair of an orbit met in row
    order is folded, and its terms are ranked through a {flattened matrix:
    basis index} dict of the basis, local to the walk.  Renaming commutes
    with transposing, so the orbit is the renaming orbit, walked
    breadth-first by the adjacent swaps of :func:`_symmetry_maps`, and the
    transposes of its members: that orbit again if it holds (i, k)'s
    transpose, else disjoint from it.  Each member is filed into its row's
    bucket as it is reached, with relabelled term indices and the orbit's one
    coefficient tuple: the buckets are the visited set.  No orbit reaches an
    earlier row, so the buckets held are row i's and those still to come.
    Equal entries are one tuple: the walk shares them through a table of the
    last 4,096 entries filed (at (3,4), 18,711 entries have 2,721 values).

    >>> list(product_rows(2, 1)) == [{0: ((0,), (1,)), 1: ((1,), (1,))}, {2: ((0,), (1,)), 3: ((1,), (1,))},
    ...                              {0: ((2,), (1,)), 1: ((3,), (1,))}, {2: ((2,), (1,)), 3: ((3,), (1,))}]
    True
    """
    graphs = basis(n, d)
    position = {g.sort_key: k for k, g in enumerate(graphs)}
    by_bottom: dict[tuple[int, ...], list[int]] = {}
    for k, g in enumerate(graphs):
        by_bottom.setdefault(g.bottom_valencies(), []).append(k)
    *swaps, t = _symmetry_maps(graphs)

    @lru_cache(maxsize=4096)
    def shared(entry: Entry) -> Entry:
        return entry

    pending: defaultdict[int, dict[int, Entry]] = defaultdict(dict)
    for i, g1 in enumerate(graphs):
        bucket = pending[i]
        for k in by_bottom.get(g1.top_valencies(), ()):
            if k not in bucket:
                fold = euler_fold(g1, graphs[k])
                terms, ways = tuple(map(position.__getitem__, fold)), tuple(fold.values())
                bucket[k] = shared((terms, ways))
                renamed = [(i, k, terms)]
                for a, b, terms in renamed:
                    for m in swaps:
                        row = pending[m[a]]
                        if m[b] not in row:
                            image = tuple(map(m.__getitem__, terms))
                            row[m[b]] = shared((image, ways))
                            renamed.append((m[a], m[b], image))
                if t[i] not in pending.get(t[k], ()):
                    for a, b, terms in renamed:
                        pending[t[b]][t[a]] = shared((tuple(map(t.__getitem__, terms)), ways))
        yield pending.pop(i)


def canonical_diagrams(
    g1: BipartiteMultigraph, g2: BipartiteMultigraph, cap: tuple[int, ...] | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every canonical three-row diagram of (g1, g2), as (middle row, flattened composed matrix).

    Rows are multi-indices with boxes from 0.  The top row c is
    :func:`combinatorics.canonical_index` of g2's top valencies.  The
    middles b are the :func:`combinatorics.column_arrangements` of g2's
    columns, concatenated in multi-index order, as :func:`algebra.apply_basis`
    walks them.  Below each, a stack places ball s in a bottom box x with an
    unused edge of column b_s of g1, no lower than ball s − 1's box when
    both sit in one box of c (:func:`canonical_pair`'s rule), and counts it
    in cell x·n + c_s.  ``cap`` bounds each cell; a leaf sums to d, so under
    a graph's ``sort_key`` the leaves are exactly that graph's diagrams.
    """
    _check_same_shape(g1, g2)
    n, d = g1.n, g1.d
    if g2.bottom_valencies() != g1.top_valencies():
        return  # a leaf would leave edges of g1 unused
    top = [j - 1 for j in canonical_index(g2.top_valencies())]
    cap = cap or (d,) * (n * n)
    left = [list(column) for column in zip(*g1.matrix)]  # left[v][x]: unused g1 edges from v to x
    flat = [0] * (n * n)
    bottom = [0] * d
    for middle in itertools.product(*map(column_arrangements, zip(*g2.matrix))):
        b = sum(middle, ())
        s = x = 0  # ball s tries the boxes from x up
        while s >= 0:
            if s < d:
                column, t = left[b[s]], top[s]
                while x < n and not (column[x] and flat[x * n + t] < cap[x * n + t]):
                    x += 1
                if x < n:
                    column[x] -= 1
                    flat[x * n + t] += 1
                    bottom[s] = x
                    s += 1
                    if s < d and top[s] != t:
                        x = 0
                    continue
            else:
                yield b, tuple(flat)
            s -= 1
            if s >= 0:
                x = bottom[s]
                left[b[s]][x] += 1
                flat[x * n + top[s]] -= 1
                x += 1


def middle_fillings(
    g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph
) -> tuple[Configuration, Configuration, list[Configuration]]:
    """Canonical witnesses: the pair (a, c) for g and, in multi-index order, every compatible middle configuration.

    Refuses, before it walks, when g2 has more than :data:`FILLING_ROW_CAP`
    middle rows, its :func:`algebra.apply_basis` images: the walk visits
    each, and under g's bottom row each gives at most one filling.
    """
    _check_same_shape(g1, g)
    if g2.bottom_valencies() == g1.top_valencies():  # otherwise the walk visits no row
        _check_cap(_image_size(g2), FILLING_ROW_CAP, f"the middle rows of the fillings of {g1} * {g2}")
    a, c = canonical_pair(g)
    middles = [to_configuration([v + 1 for v in b], g.n) for b, _ in canonical_diagrams(g1, g2, g.sort_key)]
    return a, c, middles


def coeff_by_counting(g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph) -> int:
    """One structure constant by direct middle-configuration counting: the canonical diagrams capped at g."""
    _check_same_shape(g1, g)
    return sum(1 for _ in canonical_diagrams(g1, g2, g.sort_key))


def counting_fold(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> Counter:
    """The product of basis operators as raw counts: :func:`canonical_diagrams` counted per composed matrix."""
    return Counter(key for _, key in canonical_diagrams(g1, g2))


def multiply_basis_counting(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Product of basis operators by the literal definition: :func:`counting_fold` as an element."""
    return AlgebraElement._from_counts(g1.n, g1.d, counting_fold(g1, g2))
