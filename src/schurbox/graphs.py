"""Bipartite multigraphs recording how balls move between two configurations.

For configurations a and b of the same shape, :func:`pair_graph` builds the
graph with n vertices in each of two rows and one edge per ball, joining the
ball's box in b (top row) to its box in a (bottom row).  The graph is stored
as an n-by-n multiplicity matrix with

    matrix[i-1][j-1]  =  number of balls lying in box i of a and box j of b,

so rows index the bottom (first-argument) side and columns the top side; row
sums are the content of a, column sums the content of b.  Renaming the balls
never changes the graph, and two pairs give the same graph exactly when one
is a renaming of the other, so the matrix is a complete invariant of the
diagonal renaming orbit of (a, b) and serves as the orbit's canonical key.
A graph is a slotted record holding only that matrix and the n and d read
off it; its valencies, the row and column sums, are summed afresh on each call.
The graphs of shape (n, d) are the n-by-n matrices of nonnegative integers
with total sum d; there are C(n*n + d - 1, d) of them.

>>> a = Configuration.from_word("|123|4|")
>>> b = Configuration.from_word("|13|24|")
>>> pair_graph(a, b).matrix
((2, 1), (0, 1))
>>> canonical_pair(BipartiteMultigraph(((2, 1), (1, 0))))[0].word()
'|124|3|'

:func:`basis` lists one shape's graphs as a tuple, cached for the last shape
asked, and :func:`rank` computes a graph's index in that list from its
flattened matrix:

>>> [str(g) for g in basis(2, 1)]
['[[0,0],[0,1]]', '[[0,0],[1,0]]', '[[0,1],[0,0]]', '[[1,0],[0,0]]']
>>> rank((0, 1, 0, 0))
2
"""

import itertools
import math
from collections.abc import Sequence
from functools import lru_cache
from operator import getitem

from .combinatorics import (
    Configuration,
    Params,
    TooLargeError,
    _check_cap,
    _FrozenRecord,
    canonical_index,
    compositions,
    to_configuration,
    to_multi_index,
)

EdgeLabel = tuple[int, int]
"""A parallel class of edges, as the pair (top vertex, bottom vertex)."""

ORACLE_CAP = 4096
"""Basis vectors (n**d) the dense oracle takes at most."""
ORBIT_CAP = 2**17
"""Orbits, one graph each where a suite enumerates them: (5,5), (9,3) and (6,4) fit, (8,4)'s 766,480 do not."""
CELL_CAP = 2**24
"""Matrix cells (graphs times n**2 each) the graph set holds at most: (32,1)'s 1,048,576 fit."""


class BipartiteMultigraph(_FrozenRecord):
    """Two rows of n vertices joined by d edges, as a multiplicity matrix."""

    # n and d are derived from matrix once; equality, hashing, repr and pickling use matrix alone
    __slots__ = ("matrix", "n", "d")

    def __init__(self, matrix: tuple[tuple[int, ...], ...]):
        matrix = tuple(tuple(row) for row in matrix)
        n = len(matrix)
        if n < 1 or any(len(row) != n for row in matrix):
            raise ValueError(f"multiplicity matrix must be square and nonempty: {matrix!r}")
        for row in matrix:
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 0:
                    raise ValueError(f"multiplicities must be nonnegative integers, got {entry!r}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", sum(map(sum, matrix)))

    @classmethod
    def _trusted(cls, matrix: tuple[tuple[int, ...], ...], n: int, d: int) -> "BipartiteMultigraph":
        """A graph taken as valid, without the checks of the public constructor.

        The caller guarantees that ``matrix`` is a square tuple of tuples of
        nonnegative ints with side n and total d, as an engine's composed
        matrices are.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "matrix", matrix)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "d", d)
        return g

    def _values(self) -> tuple:
        return (self.matrix,)

    def top_valencies(self) -> tuple[int, ...]:
        """Edges at each top vertex (column sums); the content of the top configuration."""
        return tuple(map(sum, zip(*self.matrix)))

    def bottom_valencies(self) -> tuple[int, ...]:
        """Edges at each bottom vertex (row sums); the content of the bottom configuration."""
        return tuple(map(sum, self.matrix))

    @property
    def sort_key(self) -> tuple[int, ...]:
        """Flattened matrix; graphs are ordered lexicographically by this key."""
        return tuple(itertools.chain.from_iterable(self.matrix))

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(e) for e in row) + "]" for row in self.matrix) + "]"


def _check_same_shape(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> None:
    if (g1.n, g1.d) != (g2.n, g2.d):
        raise ValueError(f"graph shapes differ: ({g1.n},{g1.d}) vs ({g2.n},{g2.d})")


def pair_graph(a: Configuration, b: Configuration) -> BipartiteMultigraph:
    """The graph of (a, b): one edge per ball, from its box in b down to its box in a.

    Counting balls always gives a valid matrix, so the graph skips the
    constructor's checks.
    """
    bottom = to_multi_index(a)
    top = to_multi_index(b)
    n = len(a.boxes)
    if len(b.boxes) != n or len(bottom) != len(top):
        raise ValueError(f"configuration shapes differ: ({a.n},{a.d}) vs ({b.n},{b.d})")
    rows = [[0] * n for _ in range(n)]
    for i, j in zip(bottom, top):
        rows[i - 1][j - 1] += 1
    return BipartiteMultigraph._trusted(tuple(map(tuple, rows)), n, len(bottom))


def diagonal_graph(content: Sequence[int]) -> BipartiteMultigraph:
    """The graph whose only edges join each vertex straight down, with the given counts."""
    n = len(content)
    return BipartiteMultigraph(
        tuple(tuple(content[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


def graph_count(p: Params) -> int:
    """Number of graphs of shape ``p``: C(n*n + d - 1, d)."""
    return math.comb(p.n * p.n + p.d - 1, p.d)


def in_reach(p: Params) -> bool:
    """Whether the dense oracle takes shape p: at most ORACLE_CAP basis vectors and ORBIT_CAP orbits."""
    return p.index_count <= ORACLE_CAP and graph_count(p) <= ORBIT_CAP


def check_reach(p: Params) -> None:
    """Raise :class:`TooLargeError` unless the dense oracle takes shape p."""
    if not in_reach(p):
        raise TooLargeError(
            f"instance too large for the dense oracle: {p.index_count} basis vectors "
            f"(cap {ORACLE_CAP}), {graph_count(p)} orbits (cap {ORBIT_CAP})"
        )


def check_graph_caps(p: Params) -> None:
    """Raise :class:`TooLargeError` if the graph set of shape p has too many graphs or matrix cells."""
    _check_cap(graph_count(p), None, f"the graph set at n={p.n}, d={p.d}")
    _check_cap(graph_count(p) * p.n * p.n, CELL_CAP, f"the graph set's matrix cells at n={p.n}, d={p.d}")


@lru_cache(maxsize=8)
def rank_weights(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """What each ball adds to a flattened matrix's :func:`rank`: entry [j][c] for ball j in cell c.

    Balls are taken in cell order, counted from 0.  Ball j in cell c < m - 1
    counts the matrices that come earlier because they agree before it and
    end cell c just before it: their other d - j balls fill the m - c - 1
    later cells, in C(d - j + m - c - 2, m - c - 2) ways.  In the last cell
    no matrix ends earlier, so it adds 0.
    """
    return tuple(
        tuple(math.comb(d - j + m - c - 2, m - c - 2) for c in range(m - 1)) + (0,) for j in range(d)
    )


def rank(flat: Sequence[int]) -> int:
    """The position of a flattened matrix in :func:`enumerate_graphs` order, read off its occupied cells."""
    m = len(flat)
    balls = [c for c in itertools.compress(range(m), flat) for _ in range(flat[c])]
    return sum(map(getitem, rank_weights(m, len(balls)), balls))


def enumerate_graphs(p: Params) -> list[BipartiteMultigraph]:
    """All graphs of shape ``p``, ordered lexicographically by flattened matrix."""
    check_graph_caps(p)
    n, d = p.n, p.d
    rows = [slice(k * n, (k + 1) * n) for k in range(n)]
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal rows are one tuple: (9,3) has 220
    graphs = []
    for flat in compositions(d, n * n):
        matrix = [flat[r] for r in rows]
        # every composition is a valid matrix, so the graphs skip the constructor's checks
        graphs.append(BipartiteMultigraph._trusted(tuple(map(shared.setdefault, matrix, matrix)), n, d))
    return graphs


@lru_cache(maxsize=1)
def basis(n: int, d: int) -> tuple[BipartiteMultigraph, ...]:
    """The graphs of shape (n, d) in enumeration order, kept for the most recently asked shape."""
    return tuple(enumerate_graphs(Params(n, d)))


def canonical_indices(g: BipartiteMultigraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The multi-indices of the fixed pair (a, c) with ``pair_graph(a, c) == g``: g read column by column.

    Balls are numbered box by box of c, and entry g[i][j] gives the next
    g[i][j] balls, from top box j + 1 down to bottom box i + 1.  Any other
    pair with graph g is a simultaneous renaming of this one.
    """
    a = tuple(bottom for column in zip(*g.matrix) for bottom, k in enumerate(column, start=1) for _ in range(k))
    return a, canonical_index(g.top_valencies())


def canonical_configuration(content: Sequence[int]) -> Configuration:
    """The configuration of :func:`combinatorics.canonical_index`: balls numbered box by box."""
    return to_configuration(canonical_index(content), len(content))


def canonical_pair(g: BipartiteMultigraph) -> tuple[Configuration, Configuration]:
    """The configurations of :func:`canonical_indices`: c numbers the balls box by box."""
    return tuple(to_configuration(index, g.n) for index in canonical_indices(g))
