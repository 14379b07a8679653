"""Dense ground truth: one integer label grid per shape.

Green's product rule (J. A. Green, *Polynomial Representations of GL_n*,
LNM 830, §2.3) indexes the basis by the renaming orbits on pairs of
multi-indices, and needs one thing from a dense model: the N×N array that
gives the orbit label, the basis index of the orbit's graph, of each index
pair.  :func:`pair_table` builds it in numpy from the multi-indices alone:
each label is computed by :func:`graphs.rank`'s formula, not looked up, and
no :func:`graphs.pair_graph` call, graph or basis is made, so the oracle
stays independent of the combinatorial engines.  A graph is counted from
its cell only when an answer names it.  Everything else here reads
it: the 0/1 matrix of a basis operator is ``labels == label``, the product
of two basis operators is one column of middle-index counts, and the cells
that renaming moves (:func:`moved_cells`, none on a grid that commutes with
it) are one reindexing of the grid per adjacent transposition.  Matrices
handed out hold plain Python ints (object-dtype numpy arrays), so arithmetic
on them is exact.  The module refuses instances with more than 4096 basis
vectors or more than 2^17 orbits (:func:`graphs.in_reach`); it exists to
certify the fast paths, not to replace them.  It is the package's only numpy
importer, and the rest of the package imports it only where it reads it.
"""

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np

from .combinatorics import Params, _Record, canonical_index, index_position
from .graphs import (
    BipartiteMultigraph,
    _check_same_shape,
    canonical_indices,
    check_reach,
    graph_count,
    rank,
    rank_weights,
)
from .algebra import AlgebraElement

_BLOCK_CELLS = 2**18
"""Ball cells held at once by the grid build, rows x N x d int32 values; :func:`moved_cells` reads as many rows."""


class NotInSpanError(ValueError):
    """A matrix is not a combination of the basis operators."""


class DenseOperator(_Record):
    """Square integer matrix acting on basis vectors in multi-index order."""

    __slots__ = ("n", "d", "matrix")

    def __init__(self, n: int, d: int, matrix: np.ndarray):
        self.n, self.d, self.matrix = n, d, matrix

    def _values(self) -> tuple:
        return (self.n, self.d, self.matrix)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(f"shape mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})")
        return DenseOperator(self.n, self.d, self.matrix @ other.matrix)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseOperator)
            and (self.n, self.d) == (other.n, other.d)
            and bool((self.matrix == other.matrix).all())
        )


class PairTable:
    """The orbit label of every pair of multi-indices of one shape.

    ``labels[r, c]`` (read-only, uint16 where every label fits, else int32)
    is the orbit label of the r-th and c-th multi-indices, in multi-index
    order: the :func:`graphs.rank` of its graph.  ``digits[r]`` (read-only)
    is the r-th multi-index with boxes counted from 0, r's digits in base n.

    A pair (x, y) puts ball k in cell ``(x_k - 1)·n + (y_k - 1)`` of the
    n×n grid, the flattened matrix's entry (x_k, y_k), and its orbit is the
    multiset of those cells.  Sorted along the balls, the cells are the
    graph's balls in cell order, so the label is the graph's
    :func:`graphs.rank`, summed ball by ball from :func:`graphs.rank_weights`;
    counted, they are the graph (:meth:`graph`), so the table holds none.
    """

    def __init__(self, p: Params):
        check_reach(p)
        self.p = p
        n, d, size = p.n, p.d, p.index_count
        weights = np.array(rank_weights(n * n, d), dtype=np.int32)  # every label is below ORBIT_CAP
        # C order: the build reads whole rows, which a transposed view made 20% slower at (2,12)
        digits = np.ascontiguousarray(np.indices((n,) * d, dtype=np.int32).reshape(d, size).T)
        digits.flags.writeable = False
        self.digits = digits
        labels = np.empty((size, size), dtype=np.uint16 if graph_count(p) <= 2**16 else np.int32)
        block = max(1, _BLOCK_CELLS // (size * d))
        for r in range(0, size, block):
            cells = digits[r : r + block, None, :] * n + digits[None, :, :]
            cells.sort(axis=2)
            # one take per ball: a single gather over (ball, cell) pairs was 2x slower at (2,12)
            labels[r : r + block] = sum(w.take(cells[:, :, j]) for j, w in enumerate(weights))
        labels.flags.writeable = False
        self.labels = labels
        self._columns: dict[tuple[int, ...], tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return len(self.digits)

    def counts(self, r: int, c: int) -> tuple[int, ...]:
        """The flattened matrix of cell (r, c)'s graph: its balls counted by cell."""
        n = self.p.n
        return tuple(np.bincount(self.digits[r] * n + self.digits[c], minlength=n * n).tolist())

    def graph(self, r: int, c: int) -> BipartiteMultigraph:
        """The graph of cell (r, c); counting always gives a valid matrix."""
        n, flat = self.p.n, self.counts(r, c)
        return BipartiteMultigraph._trusted(tuple(flat[i : i + n] for i in range(0, n * n, n)), n, self.p.d)

    def column(self, content: tuple[int, ...]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Column y of :func:`combinatorics.canonical_index` of ``content``, read once per content.

        Returns y, the column's labels, and the labels it holds with the row
        of each one's first cell and each row's position among them
        (``np.unique(..., return_index=True, return_inverse=True)``).  The
        memo lives on the table, so it goes with it.
        """
        memo = self._columns.get(content)
        if memo is None:
            y = index_position(canonical_index(content), self.p.n)
            orbits = np.ascontiguousarray(self.labels[:, y])
            memo = self._columns[content] = y, orbits, *np.unique(orbits, return_index=True, return_inverse=True)
            for array in memo[1:]:
                array.flags.writeable = False
        return memo

    def first_cell(self, label: int) -> tuple[int, int]:
        """Row and column of the first cell carrying ``label``, in row-scan order."""
        return divmod(int(np.argmax(self.labels.ravel() == label)), self.size)


@lru_cache(maxsize=1)
def pair_table(n: int, d: int) -> PairTable:
    return PairTable(Params(n, d))


def operator_matrix(g: BipartiteMultigraph) -> DenseOperator:
    """0/1 matrix of a basis operator: entry (r, c) is 1 exactly when pair (r, c) lies in the orbit of g."""
    table = pair_table(g.n, g.d)
    m = (table.labels == rank(g.sort_key)).astype(np.int64).astype(object)
    return DenseOperator(g.n, g.d, m)


def orbit_composition_counts(g: BipartiteMultigraph) -> Counter:
    """Middle indices z at the canonical cell (x, y) of g, counted by the labels of (x, z) and (z, y).

    The count under the label pair (i, j) is Green's coefficient of the g
    orbit operator in the product of the operators of basis graphs i and j.
    Each z's label pair is one int64 key ``label_x·G + label_y`` below G² <=
    2^34, and the keys are counted in one sort.  The canonical cell holds the
    pair that :func:`graphs.canonical_indices` gives for g.
    """
    table = pair_table(g.n, g.d)
    x, y = (index_position(index, g.n) for index in canonical_indices(g))
    size = graph_count(table.p)
    keys = table.labels[x].astype(np.int64) * size + table.labels[:, y]
    found, counts = np.unique(keys, return_counts=True)
    return Counter({divmod(key, size): count for key, count in zip(found.tolist(), counts.tolist())})


def orbit_composition_count(g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph) -> int:
    """Middle indices z with (x, z) in the orbit of g1 and (z, y) in that of g2, at the canonical cell of g."""
    return orbit_composition_counts(g)[(rank(g1.sort_key), rank(g2.sort_key))]


def _transposition_indices(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Index maps of the adjacent transpositions (s, s + 1), s = 1 .. d - 1.

    Entry i of map s is the position of the multi-index that the
    transposition sends multi-index i to, the row of column i's one in the
    transposition's permutation matrix.  Multi-indices are in lexicographic
    order, the C order of an array of d axes of length n, so the map is that
    array's positions with axes s - 1 and s swapped.
    """
    grid = np.arange(n**d).reshape((n,) * d)
    return tuple(grid.swapaxes(s - 1, s).ravel() for s in range(1, d))


def moved_cells(m: np.ndarray, n: int, d: int):
    """The cells (r, c) of an N×N matrix with ``m[σr, σc] != m[r, c]`` for an adjacent transposition σ.

    Yields (rows, columns) arrays per transposition and row block, a cell once
    per transposition that moves it.  Those generate all renamings, so ``m``
    commutes with the action (on the label grid: every basis operator does)
    exactly when nothing comes.  No product or second N×N array is formed.
    """
    block = max(1, _BLOCK_CELLS // (len(m) * d))
    for sigma in _transposition_indices(n, d):
        for r in range(0, len(m), block):
            moved = m[sigma[r : r + block]][:, sigma] != m[r : r + block]
            if moved.any():
                rows, columns = moved.nonzero()
                yield rows + r, columns


def commutes_with_renaming(op: DenseOperator) -> bool:
    """Whether a matrix commutes with every adjacent-transposition matrix: no cell of it is moved."""
    return next(moved_cells(op.matrix, op.n, op.d), None) is None


def check_commutant(g: BipartiteMultigraph) -> bool:
    """Certify that one basis operator commutes with the renaming action."""
    return commutes_with_renaming(operator_matrix(g))


def decompose(op: DenseOperator) -> AlgebraElement:
    """Expand a matrix in the basis operators, or raise :class:`NotInSpanError`.

    The orbits partition all entries, so the expansion exists exactly when
    the matrix is constant on each orbit; the coefficient is read off at
    each orbit's first cell in row-scan order, and so is the orbit's graph.
    """
    table = pair_table(op.n, op.d)
    labels = table.labels.ravel()
    entries = op.matrix.ravel()
    first = np.unique(labels, return_index=True)[1]
    values = entries[first]
    differ = np.flatnonzero(entries != values[labels])
    if len(differ):
        r0, c0 = divmod(int(first[labels[differ[0]]]), table.size)
        r, c = divmod(int(differ[0]), table.size)
        raise NotInSpanError(
            f"matrix is not constant on the orbit of {table.graph(r, c)}: "
            f"entry {(r0, c0)} is {op.matrix[r0, c0]} but {(r, c)} is {op.matrix[r, c]}"
        )
    terms = [(divmod(cell, table.size), int(value)) for cell, value in zip(first.tolist(), values) if value]
    return AlgebraElement(op.n, op.d, [(table.graph(*cell), value) for cell, value in terms])


def oracle_fold(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> dict[tuple[int, ...], int]:
    """Ground-truth product as raw counts, {flattened composed matrix: coefficient}, read off one dense column.

    Every term of the product has g2's top valencies, so every term's orbit
    meets column y, the index of the canonical configuration of those
    valencies; the table finds y and reads that column once per content
    (:meth:`PairTable.column`).  Entry z of the product's column counts the
    middle indices w with (z, w) in the orbit of g1 and (w, y) in that of
    g2, a sum of at most N zeros and ones.  (z, w) lies in the orbit of g1
    exactly when (w, z) lies in that of its transpose, so the count reads
    the middle rows of the grid, not its columns.  The product lies in the
    span of the basis operators, so the column must be constant on each
    orbit it meets; that value is the orbit's coefficient, and the orbit's
    matrix is counted from its first cell.
    """
    _check_same_shape(g1, g2)
    table = pair_table(g1.n, g1.d)
    y, orbits, _, first, inverse = table.column(g2.top_valencies())
    middle = orbits == rank(g2.sort_key)
    transposed = rank(tuple(itertools.chain.from_iterable(zip(*g1.matrix))))
    column = (table.labels[middle] == transposed).sum(axis=0)
    if not column.any():  # a zero product is constant on every orbit
        return {}
    values = column[first]
    differ = (values[inverse] != column).nonzero()[0]
    if len(differ):
        z = int(differ[0])
        z0 = int(first[inverse[z]])
        raise NotInSpanError(
            f"product is not constant on the orbit of {table.graph(z, y)}: "
            f"entry {(z0, y)} is {column[z0]} but {(z, y)} is {column[z]}"
        )
    return {table.counts(z, y): value for z, value in zip(first.tolist(), values.tolist()) if value}


def multiply_basis_oracle(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Ground-truth product of basis operators: :func:`oracle_fold` as an element."""
    return AlgebraElement._from_counts(g1.n, g1.d, oracle_fold(g1, g2))
