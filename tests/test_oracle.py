"""The dense matrix oracle and its self-checks."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from schurbox import oracle, verify
from schurbox.algebra import AlgebraElement
from schurbox.combinatorics import (
    Params,
    Permutation,
    TooLargeError,
    all_permutations,
    enumerate_multi_indices,
)
from schurbox.graphs import BipartiteMultigraph, enumerate_graphs, orbit_representative, pair_graph
from schurbox.oracle import (
    ORACLE_CAP,
    DenseOperator,
    NotInSpanError,
    check_commutant,
    commutes_with_renaming,
    decompose,
    multiply_basis_oracle,
    operator_matrix,
    orbit_composition_count,
    orbit_key_grid,
    orbit_operator_matrix,
    pair_table,
    permutation_matrix,
)

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))
G3 = BipartiteMultigraph(((3, 0), (0, 1)))
G4 = BipartiteMultigraph(((2, 1), (1, 0)))


def test_pair_table_partitions_the_square():
    table = pair_table(2, 3)
    assert table.size == 8
    total = sum(len(positions) for positions in table.positions.values())
    assert total == 64
    for g, positions in table.positions.items():
        for r, c in positions:
            assert table.graph_at[r][c] == g
            assert pair_graph(table.configs[r], table.configs[c]) == g


def test_pair_table_cap():
    assert Params(2, 12).index_count == ORACLE_CAP
    pair_table.cache_clear()
    with pytest.raises(TooLargeError):
        pair_table(2, 13)
    with pytest.raises(TooLargeError):
        orbit_operator_matrix(BipartiteMultigraph(((13, 0), (0, 0))))


def test_operator_matrix_entries():
    table = pair_table(2, 2)
    for g in enumerate_graphs(Params(2, 2)):
        m = operator_matrix(g).matrix
        for r in range(table.size):
            for c in range(table.size):
                expected = 1 if pair_graph(table.configs[r], table.configs[c]) == g else 0
                assert m[r, c] == expected


def test_orbit_key_grid_matches_orbit_representative():
    indices = enumerate_multi_indices(Params(2, 3))
    grid = orbit_key_grid(2, 3)
    assert len(grid) == len(indices) == 8
    for r, x in enumerate(indices):
        assert len(grid[r]) == len(indices)
        for c, y in enumerate(indices):
            assert grid[r][c] == orbit_representative(x, y, 2).matrix


def test_orbit_matrix_equals_configuration_matrix():
    for p in (Params(2, 3), Params(3, 2)):
        for g in enumerate_graphs(p):
            assert orbit_operator_matrix(g) == operator_matrix(g)


def test_permutation_matrix_is_an_action():
    p = Params(2, 3)
    for w1, w2 in itertools.product(all_permutations(p.d), repeat=2):
        lhs = permutation_matrix(w1, p) @ permutation_matrix(w2, p)
        assert lhs == permutation_matrix(w1 * w2, p)
    with pytest.raises(ValueError):
        permutation_matrix(Permutation.identity(2), p)


def test_basis_operators_commute_with_renaming():
    for g in enumerate_graphs(Params(2, 3)):
        assert check_commutant(g)


def test_corrupted_operator_fails_checks():
    table = pair_table(2, 2)
    g = next(g for g in enumerate_graphs(Params(2, 2)) if len(table.positions[g]) >= 2)
    broken = operator_matrix(g).copy()
    r, c = table.positions[g][0]
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
        # 0/1 operands: the int64 path
        (
            np.array([[(i * j + i) % 2 for j in range(8)] for i in range(8)], dtype=object),
            np.array([[int((i + j) % 3 == 0) for j in range(8)] for i in range(8)], dtype=object),
        ),
        # entries around 2**40 at size 8: the bound fails, and the entries
        # of the product (about 2**83) do not fit in int64 either
        (
            np.array([[2**40 + 3 * i + j for j in range(8)] for i in range(8)], dtype=object),
            np.array([[2**40 - i * j for j in range(8)] for i in range(8)], dtype=object),
        ),
        # one entry beyond int64: the conversion fails, the object product runs
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


def test_transposition_indices_built_once_per_shape(monkeypatch):
    # the commutant check reindexes by cached index maps and builds no matrix
    monkeypatch.setattr(oracle, "permutation_matrix", None)
    for p in (Params(2, 5), Params(3, 3)):
        oracle._transposition_indices.cache_clear()
        assert verify.check_commutant(p).passed
        assert oracle._transposition_indices.cache_info().misses == 1


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2)])
def test_commutes_with_renaming_agrees_with_transposition_products(p):
    perms = [permutation_matrix(Permutation.transposition(p.d, s, s + 1), p) for s in range(1, p.d)]
    table = pair_table(p.n, p.d)
    seen = set()
    for g in enumerate_graphs(p):
        op = operator_matrix(g)
        broken = op.copy()
        r, c = table.positions[g][0]
        broken.matrix[r, c] += 1
        for m in (op, broken):
            expected = all(m @ perm == perm @ m for perm in perms)
            assert commutes_with_renaming(m) == expected
            seen.add(expected)
    assert seen == {True, False}
