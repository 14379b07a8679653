"""The dense matrix oracle and its self-checks."""

import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from schurbox import oracle
from schurbox.algebra import AlgebraElement
from schurbox.combinatorics import (
    Params,
    TooLargeError,
    canonical_index,
    compositions,
    enumerate_multi_indices,
    index_position,
    to_configuration,
)
from schurbox.graphs import ORACLE_CAP, BipartiteMultigraph, basis, enumerate_graphs, in_reach, pair_graph, rank
from schurbox.structconst import multiply_basis_counting, multiply_basis_euler
from schurbox.oracle import (
    DenseOperator,
    NotInSpanError,
    check_commutant,
    commutes_with_renaming,
    decompose,
    moved_cells,
    multiply_basis_oracle,
    operator_matrix,
    orbit_composition_count,
    pair_table,
)

from reference import DAMAGE, Permutation, act_on_index, all_permutations, damaged, transposition

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))
G3 = BipartiteMultigraph(((3, 0), (0, 1)))
G4 = BipartiteMultigraph(((2, 1), (1, 0)))


def _configs(table):
    return [to_configuration(index, table.p.n) for index in enumerate_multi_indices(table.p)]


def _first_cell(table, g):
    """First cell of g's orbit in row-scan order."""
    return table.first_cell(rank(g.sort_key))


def permutation_matrix(w: Permutation, p: Params) -> DenseOperator:
    """Matrix of the renaming action: the basis vector of index i goes to that of w . i."""
    if len(w) != p.d:
        raise ValueError(f"permutation degree {len(w)} does not match d={p.d}")
    table = pair_table(p.n, p.d)
    m = np.zeros((table.size, table.size), dtype=object)
    for col, index in enumerate(enumerate_multi_indices(p)):
        m[index_position(act_on_index(w, index), p.n), col] = 1
    return DenseOperator(p.n, p.d, m)


def test_pair_table_partitions_the_square():
    table = pair_table(2, 3)
    assert table.size == 8
    assert table.labels.shape == (8, 8)
    assert not table.labels.flags.writeable
    assert not table.digits.flags.writeable
    graphs = basis(2, 3)
    assert sorted(graphs, key=lambda g: g.sort_key) == enumerate_graphs(Params(2, 3))
    assert all(rank(g.sort_key) == label for label, g in enumerate(graphs))
    sizes = np.bincount(table.labels.ravel(), minlength=len(graphs))
    assert sizes.sum() == 64
    assert sizes.min() >= 1
    configs = _configs(table)
    for r, c in itertools.product(range(table.size), repeat=2):
        assert pair_graph(configs[r], configs[c]) == graphs[table.labels[r, c]]


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2)], ids=str)
def test_pair_table_labels_every_cell_by_its_basis_index(p):
    # the oracle shares the basis's numbering, but neither builds the basis nor holds a graph
    basis.cache_clear()
    pair_table.cache_clear()
    table = pair_table(p.n, p.d)
    assert basis.cache_info().currsize == 0
    assert sorted(vars(table)) == ["_columns", "digits", "labels", "p"]
    configs = _configs(table)
    labels = table.labels.tolist()
    for r, a in enumerate(configs):
        for c, b in enumerate(configs):
            assert labels[r][c] == rank(pair_graph(a, b).sort_key)


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 3), Params(2, 5)], ids=str)
def test_pair_table_counts_each_cells_graph(p):
    # the checking constructor rejects any entry that is not a plain int
    table = pair_table(p.n, p.d)
    graphs = basis(p.n, p.d)
    for r, c in itertools.product(range(table.size), repeat=2):
        g = table.graph(r, c)
        assert g == graphs[table.labels[r, c]] == BipartiteMultigraph(g.matrix)
        assert (g.n, g.d) == (p.n, p.d)


def test_pair_table_keeps_one_shape():
    # a cached table holds its column memo, so an older shape's must go with it
    pair_table.cache_clear()
    # a tuple takes no weak reference, so the basis is watched through its first graph
    g = basis(2, 3)[0]
    multiply_basis_oracle(g, g)
    (_, orbits, found, first, inverse), = pair_table(2, 3)._columns.values()
    kept = [weakref.ref(x) for x in (g, pair_table(2, 3), orbits, found, first, inverse)]
    del g, orbits, found, first, inverse
    basis(3, 2)
    pair_table(3, 2)
    gc.collect()
    assert [ref() for ref in kept] == [None] * 6


def test_oracle_column_memo_agrees_with_a_fresh_table():
    pair_table.cache_clear()
    graphs = basis(2, 4)
    memoized = {(g1, g2): multiply_basis_oracle(g1, g2) for g1, g2 in itertools.product(graphs, repeat=2)}
    assert len(pair_table(2, 4)._columns) == 5  # one column per content
    for (g1, g2), product in memoized.items():
        pair_table.cache_clear()
        assert multiply_basis_oracle(g1, g2) == product, (g1, g2)


@pytest.mark.parametrize("p", [Params(2, 5), Params(3, 3)], ids=str)
def test_pair_table_column_starts_at_the_canonical_index(p):
    table = pair_table(p.n, p.d)
    for content in compositions(p.d, p.n):
        y = table.column(content)[0]
        assert y == index_position(canonical_index(content), p.n)
        assert np.array_equal(table.column(content)[1], table.labels[:, y])


def test_pair_table_cap():
    assert Params(2, 12).index_count == ORACLE_CAP
    pair_table.cache_clear()
    with pytest.raises(TooLargeError):
        pair_table(2, 13)
    with pytest.raises(TooLargeError):
        operator_matrix(BipartiteMultigraph(((13, 0), (0, 0))))


@pytest.mark.parametrize(
    "shape, reached",
    [((2, 12), True), ((5, 5), True), ((9, 3), True), ((6, 4), True),
     ((2, 13), False), ((8, 4), False), ((64, 2), False), ((4096, 1), False)],
)
def test_in_reach_bounds_vectors_and_orbits(shape, reached):
    assert in_reach(Params(*shape)) is reached


def test_orbit_cap_refuses_before_allocating():
    # 16^3 = 4096 vectors is within the vector cap, but C(258, 3) = 2,829,056
    # orbits would each be a graph for the suites that read the grid
    assert Params(16, 3).index_count == ORACLE_CAP
    pair_table.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="2829056 orbits"):
            pair_table(16, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_operator_matrix_entries():
    table = pair_table(2, 2)
    configs = _configs(table)
    for g in enumerate_graphs(Params(2, 2)):
        m = operator_matrix(g).matrix
        for r in range(table.size):
            for c in range(table.size):
                expected = 1 if pair_graph(configs[r], configs[c]) == g else 0
                assert type(m[r, c]) is int
                assert m[r, c] == expected


def test_label_grid_matches_orbit_keys():
    # the orbit key of (x, y) counts the positions k with (x_k, y_k) == (i, j)
    indices = enumerate_multi_indices(Params(2, 3))
    table = pair_table(2, 3)
    assert table.digits.tolist() == [[i - 1 for i in index] for index in indices]
    graphs = basis(2, 3)
    for r, x in enumerate(indices):
        for c, y in enumerate(indices):
            counts = [[0, 0], [0, 0]]
            for i, j in zip(x, y):
                counts[i - 1][j - 1] += 1
            assert graphs[table.labels[r, c]].matrix == tuple(map(tuple, counts))


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2)])
def test_label_grid_matches_pair_graph_on_every_cell(p):
    table = pair_table(p.n, p.d)
    graphs = basis(p.n, p.d)
    configs = _configs(table)
    cells = 0
    for r, a in enumerate(configs):
        for c, b in enumerate(configs):
            assert graphs[table.labels[r, c]] == pair_graph(a, b)
            cells += 1
    assert cells == p.index_count**2


def test_orbit_matrix_equals_configuration_matrix():
    for p in (Params(2, 3), Params(3, 2)):
        configs = _configs(pair_table(p.n, p.d))
        for g in enumerate_graphs(p):
            expected = np.array([[int(pair_graph(a, b) == g) for b in configs] for a in configs], dtype=object)
            assert operator_matrix(g) == DenseOperator(p.n, p.d, expected)


def test_permutation_matrix_is_an_action():
    p = Params(2, 3)
    for w1, w2 in itertools.product(all_permutations(p.d), repeat=2):
        lhs = permutation_matrix(w1, p) @ permutation_matrix(w2, p)
        assert lhs == permutation_matrix(act_on_index(w1, w2), p)
    with pytest.raises(ValueError):
        permutation_matrix((1, 2), p)


def test_basis_operators_commute_with_renaming():
    for g in enumerate_graphs(Params(2, 3)):
        assert check_commutant(g)


def test_corrupted_operator_fails_checks():
    table = pair_table(2, 2)
    g = next(g for g in enumerate_graphs(Params(2, 2)) if operator_matrix(g).matrix.sum() >= 2)
    op = operator_matrix(g)
    broken = DenseOperator(op.n, op.d, op.matrix.copy())
    r, c = _first_cell(table, g)
    broken.matrix[r, c] = 0
    assert not commutes_with_renaming(broken)
    with pytest.raises(NotInSpanError, match="not constant on the orbit"):
        decompose(broken)


def test_decompose_roundtrip():
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    rng = random.Random(3)
    for _ in range(15):
        coeffs = {rng.choice(graphs): rng.randint(-10**20, 10**20) for _ in range(4)}
        x = AlgebraElement(p.n, p.d, coeffs)
        m = sum(
            (coeff * operator_matrix(g).matrix for g, coeff in x.items()),
            start=operator_matrix(graphs[0]).matrix * 0,
        )
        assert decompose(DenseOperator(p.n, p.d, m)) == x


def test_decompose_rejects_non_commutant():
    p = Params(2, 2)
    m = operator_matrix(enumerate_graphs(p)[0]).matrix * 0
    m[0, 1] = 1
    with pytest.raises(NotInSpanError):
        decompose(DenseOperator(p.n, p.d, m))


def test_oracle_worked_product():
    product = multiply_basis_oracle(G1, G2)
    assert product == AlgebraElement(2, 4, [(G3, 3), (G4, 1)])
    with pytest.raises(ValueError):
        multiply_basis_oracle(G1, BipartiteMultigraph(((1,),)))


def test_oracle_squares_a_dense_factor_at_1024_vectors():
    # one column of the product, not the 1024 x 1024 matrices
    g = BipartiteMultigraph(((3, 2), (2, 3)))
    pair_table.cache_clear()
    tracemalloc.start()
    try:
        product = multiply_basis_oracle(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pair_table.cache_clear()
    assert product == multiply_basis_euler(g, g)
    assert peak < 32 * 2**20


def test_oracle_product_rejects_a_relabelled_cell(monkeypatch):
    # a product column that is not constant on an orbit is not in the span
    table = pair_table(2, 2)
    broken = oracle.PairTable(table.p)
    broken.labels = table.labels.copy()
    broken.labels[0, 0] = rank((1, 0, 1, 0))
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    g1 = BipartiteMultigraph(((0, 1), (0, 1)))
    g2 = BipartiteMultigraph(((0, 0), (2, 0)))
    with pytest.raises(NotInSpanError, match=r"product is not constant on the orbit of \[\[1,0\],\[1,0\]\]"):
        multiply_basis_oracle(g1, g2)


def test_referees_build_what_the_checked_constructors_build():
    # counting and the oracle build their terms and elements without re-validation
    graphs = basis(2, 4)
    for g1, g2 in itertools.product(graphs, repeat=2):
        for product in (multiply_basis_counting(g1, g2), multiply_basis_oracle(g1, g2)):
            terms = [(BipartiteMultigraph(g.matrix), c) for g, c in product.items()]
            assert product == AlgebraElement(2, 4, terms), (g1, g2)
            assert all((g.n, g.d) == (2, 4) and c != 0 for g, c in product.items())


def test_orbit_composition_count_matches_products():
    p = Params(2, 2)
    graphs = enumerate_graphs(p)
    for g1, g2 in itertools.product(graphs, repeat=2):
        product = multiply_basis_oracle(g1, g2)
        for g in graphs:
            assert orbit_composition_count(g1, g2, g) == product.coefficient(g)


def test_matmul_shape_mismatch():
    a = operator_matrix(enumerate_graphs(Params(2, 2))[0])
    b = operator_matrix(enumerate_graphs(Params(2, 3))[0])
    with pytest.raises(ValueError):
        a @ b


def test_exact_arithmetic_stays_integral():
    # object-dtype matrices keep plain ints through products
    p = Params(2, 4)
    g = enumerate_graphs(p)[17]
    m = (operator_matrix(g) @ operator_matrix(g)).matrix
    assert all(isinstance(entry, int) for entry in m.flat)


@pytest.mark.parametrize(
    "a, b",
    [
        # 0/1 operands
        (
            np.array([[(i * j + i) % 2 for j in range(8)] for i in range(8)], dtype=object),
            np.array([[int((i + j) % 3 == 0) for j in range(8)] for i in range(8)], dtype=object),
        ),
        # entries around 2**40 at size 8: the entries of the product (about
        # 2**83) do not fit in int64
        (
            np.array([[2**40 + 3 * i + j for j in range(8)] for i in range(8)], dtype=object),
            np.array([[2**40 - i * j for j in range(8)] for i in range(8)], dtype=object),
        ),
        # one entry beyond int64
        (
            np.array([[2**64 + 1, 1], [0, 3]], dtype=object),
            np.array([[1, 2], [3, 4]], dtype=object),
        ),
    ],
    ids=["zero-one", "bound-fails", "beyond-int64"],
)
def test_matmul_is_exact_on_both_sides_of_the_int64_bound(a, b):
    n = len(a)
    product = (DenseOperator(2, n, a) @ DenseOperator(2, n, b)).matrix
    expected = a @ b  # object dtype: Python-int arithmetic
    assert product.dtype == object
    assert all(type(entry) is int for entry in product.flat)
    assert product.tolist() == expected.tolist()


def test_matmul_keeps_entries_int64_would_truncate():
    a = np.array([[Fraction(1, 2), 1], [0, 1]], dtype=object)
    b = np.array([[1, 0], [Fraction(1, 3), 1]], dtype=object)
    product = (DenseOperator(2, 1, a) @ DenseOperator(2, 1, b)).matrix
    assert product.tolist() == [[Fraction(5, 6), 1], [Fraction(1, 3), 1]]


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 3), Params(2, 5)], ids=str)
def test_transposition_indices_are_the_renaming_action(p):
    # the maps are array arithmetic; the reference is the permutation matrix's rows
    indices = enumerate_multi_indices(p)
    maps = oracle._transposition_indices(p.n, p.d)
    assert len(maps) == p.d - 1
    for s, sigma in enumerate(maps, start=1):
        w = transposition(p.d, s, s + 1)
        assert sigma.tolist() == [indices.index(act_on_index(w, index)) for index in indices]


def test_commutes_with_renaming_compares_every_row_block(monkeypatch):
    # blocks of 3 rows split the 32 rows of (2,5) into 11, the last one short
    p = Params(2, 5)
    labels = pair_table(p.n, p.d).labels
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 3 * len(labels) * p.d)
    assert commutes_with_renaming(DenseOperator(p.n, p.d, labels))
    broken = labels.copy()
    # the last row is (2,2,2,2,2), fixed by every transposition; column 1, (1,1,1,1,2), is not
    broken[-1, 1] += 1
    assert not commutes_with_renaming(DenseOperator(p.n, p.d, broken))


def _moved_by_brute_force(labels, p):
    """Each cell (r, c) whose image under an adjacent transposition carries another label, once per such one."""
    indices = enumerate_multi_indices(p)
    position = {index: k for k, index in enumerate(indices)}
    moved = Counter()
    for s in range(1, p.d):
        w = transposition(p.d, s, s + 1)
        sigma = [position[act_on_index(w, index)] for index in indices]
        for r, c in itertools.product(range(len(indices)), repeat=2):
            if labels[sigma[r], sigma[c]] != labels[r, c]:
                moved[r, c] += 1
    return moved


def _yielded(labels, p):
    blocks = moved_cells(labels, p.n, p.d)
    return Counter(cell for rows, columns in blocks for cell in zip(rows.tolist(), columns.tolist()))


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2), Params(2, 4)], ids=str)
def test_moved_cells_are_the_cells_a_transposition_moves_to_another_label(p):
    labels = pair_table(p.n, p.d).labels
    assert _yielded(labels, p) == Counter()
    rng = random.Random(p.n * 10 + p.d)
    seen = set()
    for kind in DAMAGE * 4:
        broken = damaged(labels, kind, rng)
        expected = _moved_by_brute_force(broken, p)
        assert _yielded(broken, p) == expected, kind
        seen.add(bool(expected))
    assert seen == {True, False}


def test_moved_cells_reads_every_row_block(monkeypatch):
    # blocks of 3 rows split the 16 rows of (2,4) into 6, the last one short
    p = Params(2, 4)
    labels = pair_table(p.n, p.d).labels
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 3 * len(labels) * p.d)
    assert _yielded(labels, p) == Counter()
    rng = random.Random(5)
    for kind in DAMAGE * 2:
        broken = damaged(labels, kind, rng)
        assert _yielded(broken, p) == _moved_by_brute_force(broken, p), kind
    broken = labels.copy()
    broken[-1, 1] += 1  # in the short last block
    assert _yielded(broken, p) == _moved_by_brute_force(broken, p) != Counter()


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2)])
def test_commutes_with_renaming_agrees_with_transposition_products(p):
    perms = [permutation_matrix(transposition(p.d, s, s + 1), p) for s in range(1, p.d)]
    table = pair_table(p.n, p.d)
    seen = set()
    for g in enumerate_graphs(p):
        op = operator_matrix(g)
        broken = DenseOperator(op.n, op.d, op.matrix.copy())
        r, c = _first_cell(table, g)
        broken.matrix[r, c] += 1
        for m in (op, broken):
            expected = all(m @ perm == perm @ m for perm in perms)
            assert commutes_with_renaming(m) == expected
            seen.add(expected)
    assert seen == {True, False}
