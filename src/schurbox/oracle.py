"""Dense ground truth: basis operators as explicit 0/1 matrices.

Everything here is brute force on purpose.  Matrices are built entry by
entry from the defining condition and hold plain Python ints (object-dtype
numpy arrays).  Products are exact: they run in int64 when a bound on the
operands proves that no partial sum can overflow, and fall back to the
object-dtype product otherwise.  Nothing is shared with the combinatorial
engines beyond the pair-graph dictionary itself.  The module refuses
instances with more than 4096 basis vectors; it exists to certify the fast
paths, not to replace them.
"""

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import (
    MultiIndex,
    Params,
    Permutation,
    TooLargeError,
    act_on_index,
    enumerate_multi_indices,
    to_configuration,
    to_multi_index,
)
from .graphs import BipartiteMultigraph, canonical_pair, pair_graph
from .algebra import AlgebraElement

ORACLE_CAP = 4096
_INT64_MAX = 2**63 - 1

OrbitKey = tuple[tuple[int, ...], ...]
"""A multiplicity matrix, as the key of a renaming orbit of index pairs."""


class NotInSpanError(ValueError):
    """A matrix is not a combination of the basis operators."""


def _zeros(size: int) -> np.ndarray:
    return np.zeros((size, size), dtype=object)


def _as_int64(m: np.ndarray) -> np.ndarray | None:
    """m as an int64 array, or None unless every entry is an integer that fits."""
    try:
        m64 = m.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    return m64 if (m64 == m).all() else None


def _max_abs(m: np.ndarray) -> int:
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, exactly, as an object-dtype array; in int64 when that cannot overflow.

    Every entry of the product is a sum of ``a.shape[1]`` terms, each at most
    ``max|a| * max|b|`` in absolute value, so when that bound (taken in Python
    ints) fits in int64 no partial sum can overflow, whatever the order of
    summation.  Otherwise the product runs on Python ints.
    """
    a64, b64 = _as_int64(a), _as_int64(b)
    if a64 is None or b64 is None or a.shape[1] * _max_abs(a64) * _max_abs(b64) > _INT64_MAX:
        return a @ b
    return (a64 @ b64).astype(object)


@dataclass(eq=False)
class DenseOperator:
    """Square integer matrix acting on basis vectors in multi-index order."""

    n: int
    d: int
    matrix: np.ndarray

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(f"shape mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})")
        return DenseOperator(self.n, self.d, _exact_product(self.matrix, other.matrix))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseOperator)
            and (self.n, self.d) == (other.n, other.d)
            and bool((self.matrix == other.matrix).all())
        )

    def copy(self) -> "DenseOperator":
        return DenseOperator(self.n, self.d, self.matrix.copy())


class PairTable:
    """Every basis pair of one shape, keyed by its graph.

    ``positions[g]`` lists the (row, column) pairs whose graph is g, in row
    scan order; the lists partition the full square.  ``graph_at[r][c]`` is
    the interned graph of pair (r, c).
    """

    def __init__(self, p: Params):
        if p.index_count > ORACLE_CAP:
            raise TooLargeError(
                f"instance too large for the dense oracle: {p.index_count} > {ORACLE_CAP} basis vectors"
            )
        self.p = p
        self.indices = enumerate_multi_indices(p, cap=ORACLE_CAP)
        self.index_of = {index: k for k, index in enumerate(self.indices)}
        self.configs = [to_configuration(index, p.n) for index in self.indices]
        interned: dict[BipartiteMultigraph, BipartiteMultigraph] = {}
        positions: dict[BipartiteMultigraph, list[tuple[int, int]]] = {}
        graph_at = []
        for r, a in enumerate(self.configs):
            row = []
            for c, b in enumerate(self.configs):
                g = pair_graph(a, b)
                g = interned.setdefault(g, g)
                positions.setdefault(g, []).append((r, c))
                row.append(g)
            graph_at.append(row)
        self.positions = positions
        self.graph_at = graph_at

    @property
    def size(self) -> int:
        return len(self.indices)


@lru_cache(maxsize=8)
def pair_table(n: int, d: int) -> PairTable:
    return PairTable(Params(n, d))


def operator_matrix(g: BipartiteMultigraph) -> DenseOperator:
    """0/1 matrix of a basis operator: entry (a, b) is 1 exactly when pair_graph(a, b) == g."""
    table = pair_table(g.n, g.d)
    m = _zeros(table.size)
    for r, c in table.positions.get(g, ()):
        m[r, c] = 1
    return DenseOperator(g.n, g.d, m)


@lru_cache(maxsize=8)
def orbit_key_grid(n: int, d: int) -> tuple[tuple[OrbitKey, ...], ...]:
    """Orbit key of every pair of multi-indices, in multi-index order.

    Entry (r, c) is the multiplicity matrix counting the positions k with
    (x_k, y_k) == (i, j) for the r-th index x and c-th index y, computed
    from the indices alone: no configurations and no :class:`PairTable`.
    """
    p = Params(n, d)
    if p.index_count > ORACLE_CAP:
        raise TooLargeError(
            f"instance too large for the dense oracle: {p.index_count} > {ORACLE_CAP} basis vectors"
        )
    indices = enumerate_multi_indices(p, cap=ORACLE_CAP)
    interned: dict[OrbitKey, OrbitKey] = {}  # one object per orbit, however large the grid
    grid = []
    for x in indices:
        row = []
        for y in indices:
            counts = [[0] * n for _ in range(n)]
            for i, j in zip(x, y):
                counts[i - 1][j - 1] += 1
            key = tuple(map(tuple, counts))
            row.append(interned.setdefault(key, key))
        grid.append(tuple(row))
    return tuple(grid)


def orbit_operator_matrix(g: BipartiteMultigraph) -> DenseOperator:
    """Matrix of the orbit-sum operator on multi-indices for the orbit keyed by g.

    Read off :func:`orbit_key_grid`, without the configuration table;
    agreeing entrywise with :func:`operator_matrix` is the standard
    consistency check between the two pictures of the same basis.
    """
    grid = orbit_key_grid(g.n, g.d)
    m = _zeros(len(grid))
    for r, row in enumerate(grid):
        for c, key in enumerate(row):
            if key == g.matrix:
                m[r, c] = 1
    return DenseOperator(g.n, g.d, m)


def canonical_cell(g: BipartiteMultigraph) -> tuple[int, int]:
    """Row and column of the pair :func:`canonical_pair` gives for g."""
    table = pair_table(g.n, g.d)
    a, c = canonical_pair(g)
    return table.index_of[to_multi_index(a)], table.index_of[to_multi_index(c)]


def orbit_composition_counts(g: BipartiteMultigraph) -> Counter:
    """Middle indices z at the canonical cell (x, y) of g, counted by the keys of (x, z) and (z, y).

    The count under (g1, g2) is the coefficient of the g orbit operator in the
    product of the g1 and g2 orbit operators, read off combinatorially.
    """
    x, y = canonical_cell(g)
    grid = pair_table(g.n, g.d).graph_at
    return Counter((grid[x][z], grid[z][y]) for z in range(len(grid)))


def orbit_composition_count(g1: BipartiteMultigraph, g2: BipartiteMultigraph, g: BipartiteMultigraph) -> int:
    """Middle indices z with (x, z) keyed by g1 and (z, y) keyed by g2, at the canonical cell of g."""
    return orbit_composition_counts(g)[(g1, g2)]


def first_composition_mismatch(
    graphs: Sequence[BipartiteMultigraph],
) -> tuple[BipartiteMultigraph, BipartiteMultigraph, BipartiteMultigraph] | None:
    """First (g1, g2, g), scanning g1, then g2, then g, where the dense product disagrees with the count.

    The dense side is the entry of ``operator_matrix(g1) @ operator_matrix(g2)``
    at the canonical cell of g; the combinatorial side is
    ``orbit_composition_counts(g)[(g1, g2)]``.  ``graphs`` are all the basis
    graphs of one shape, so their operator matrices partition the square and
    one grid of graph positions holds them all exactly: the matrix of
    ``graphs[i]`` is ``labels == i``.  Only the G canonical-cell entries of
    each of the G^2 products are computed, one g1 at a time, accumulating in
    int64 (sums of at most N <= 4096 products of 0s and 1s).  Returns None
    when all G^3 entries agree.
    """
    position = {g: i for i, g in enumerate(graphs)}
    expected = [([], [], []) for _ in graphs]  # per g1: g2 positions, g positions, counts
    for k, g in enumerate(graphs):
        for (g1, g2), count in orbit_composition_counts(g).items():
            js, ks, counts = expected[position[g1]]
            js.append(position[g2])
            ks.append(k)
            counts.append(count)
    grid = pair_table(graphs[0].n, graphs[0].d).graph_at
    labels = np.array([[position[g] for g in row] for row in grid])
    xs, ys = (list(axis) for axis in zip(*map(canonical_cell, graphs)))
    rows = labels[xs]  # [k, z]: position of the graph of (x_k, z)
    columns = labels[:, ys] == np.arange(len(graphs))[:, None, None]  # [j, z, k]: entry (z, y_k) of matrix j
    for i, (g1, (js, ks, counts)) in enumerate(zip(graphs, expected)):
        # [j, k]: entry (x_k, y_k) of matrix i times matrix j
        product = np.einsum("kz,jzk->jk", rows == i, columns, dtype=np.int64)
        want = np.zeros_like(product)
        want[js, ks] = counts
        differ = np.argwhere(product != want)
        if len(differ):
            j, k = differ[0]
            return g1, graphs[j], graphs[k]
    return None


def permutation_matrix(w: Permutation, p: Params) -> DenseOperator:
    """Matrix of the renaming action: the basis vector of index i goes to that of w . i."""
    if w.degree != p.d:
        raise ValueError(f"permutation degree {w.degree} does not match d={p.d}")
    table = pair_table(p.n, p.d)
    m = _zeros(table.size)
    for col, index in enumerate(table.indices):
        m[table.index_of[act_on_index(w, index)], col] = 1
    return DenseOperator(p.n, p.d, m)


@lru_cache(maxsize=8)
def _transposition_indices(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Read-only index maps of the adjacent transpositions (s, s + 1), s = 1 .. d - 1.

    Entry i of map s is the position of the multi-index that the
    transposition sends multi-index i to, the row of column i's one in its
    :func:`permutation_matrix`.
    """
    p = Params(n, d)
    indices = enumerate_multi_indices(p, cap=ORACLE_CAP)
    index_of = {index: k for k, index in enumerate(indices)}
    maps = []
    for s in range(1, d):
        w = Permutation.transposition(d, s, s + 1)
        sigma = np.array([index_of[act_on_index(w, index)] for index in indices], dtype=np.intp)
        sigma.flags.writeable = False
        maps.append(sigma)
    return tuple(maps)


def commutes_with_renaming(op: DenseOperator) -> bool:
    """Whether a matrix commutes with every adjacent-transposition matrix.

    Adjacent transpositions generate all renamings, so this is equivalent to
    commuting with the whole action.  A transposition's matrix P permutes
    basis vectors by an involution sigma, so ``op @ P == P @ op`` exactly
    when reindexing both rows and columns of op by sigma leaves it unchanged;
    no product is formed.
    """
    return all(
        np.array_equal(op.matrix[np.ix_(sigma, sigma)], op.matrix)
        for sigma in _transposition_indices(op.n, op.d)
    )


def check_commutant(g: BipartiteMultigraph) -> bool:
    """Certify that one basis operator commutes with the renaming action."""
    return commutes_with_renaming(operator_matrix(g))


def decompose(op: DenseOperator) -> AlgebraElement:
    """Expand a matrix in the basis operators, or raise :class:`NotInSpanError`.

    The orbit positions partition all entries, so the expansion exists
    exactly when the matrix is constant on each orbit, and the coefficient
    can be read off at any one representative entry.
    """
    table = pair_table(op.n, op.d)
    terms = []
    for g, positions in table.positions.items():
        r0, c0 = positions[0]
        value = op.matrix[r0, c0]
        for r, c in positions[1:]:
            if op.matrix[r, c] != value:
                raise NotInSpanError(
                    f"matrix is not constant on the orbit of {g}: "
                    f"entry {(r0, c0)} is {value} but {(r, c)} is {op.matrix[r, c]}"
                )
        if value:
            terms.append((g, int(value)))
    return AlgebraElement(op.n, op.d, terms)


def multiply_basis_oracle(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Ground-truth product: multiply the dense matrices and expand the result."""
    if (g1.n, g1.d) != (g2.n, g2.d):
        raise ValueError(f"graph shapes differ: ({g1.n},{g1.d}) vs ({g2.n},{g2.d})")
    return decompose(operator_matrix(g1) @ operator_matrix(g2))
