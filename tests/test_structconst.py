"""Structure constants: middle counting, the euler fold, and word matrices."""

import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from schurbox import structconst
from schurbox.algebra import AlgebraElement, apply_basis, basis_product
from schurbox.combinatorics import Configuration, Params, enumerate_configurations, to_configuration, to_multi_index
from schurbox.graphs import (
    BipartiteMultigraph,
    basis,
    canonical_pair,
    enumerate_graphs,
    pair_graph,
    rank,
)
from schurbox.oracle import multiply_basis_oracle
from schurbox.structconst import (
    coeff_by_counting,
    enumerate_word_matrices,
    euler_fold,
    middle_fillings,
    multiply_basis_counting,
    multiply_basis_euler,
    multiply_basis_mendez,
    product_rows,
)

from reference import act_on_index, all_permutations, counting_sweep

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))
G3 = BipartiteMultigraph(((3, 0), (0, 1)))
G4 = BipartiteMultigraph(((2, 1), (1, 0)))

ENGINES = (multiply_basis_counting, multiply_basis_euler, multiply_basis_mendez)


def middle_count_direct(g1, g2, a, c):
    """Middle configurations counted with no canonicalization at all."""
    p = Params(g1.n, g1.d)
    return sum(
        1
        for b in enumerate_configurations(p)
        if pair_graph(a, b) == g1 and pair_graph(b, c) == g2
    )


def test_worked_product():
    for engine in ENGINES:
        product = engine(G1, G2)
        assert product.coefficient(G3) == 3
        assert product.coefficient(G4) == 1
        assert len(product.support()) == 2


def test_word_matrices_worked_example():
    wms = list(enumerate_word_matrices(G1, G2))
    assert len(wms) == 4
    by_graph = Counter(wm.graph() for wm in wms)
    assert by_graph == Counter({G3: 3, G4: 1})
    # the three matrices composing to G3 place one (b,b) among two (a,a)
    top_left = sorted(
        wm.entries[0][0].index(((1, 2), (2, 1))) for wm in wms if wm.graph() == G3
    )
    assert top_left == [0, 1, 2]


def test_word_matrix_of_filling_roundtrip():
    # word matrices are exactly the middle fillings, in every case at (2,3):
    # each comes once, and per composed graph there are as many as fillings
    for g1, g2 in itertools.product(enumerate_graphs(Params(2, 3)), repeat=2):
        counts = Counter(enumerate_word_matrices(g1, g2))
        assert set(counts.values()) <= {1}
        by_graph = Counter(wm.graph() for wm in counts)
        from_fillings = Counter(
            {g: len(middle_fillings(g1, g2, g)[2]) for g in multiply_basis_counting(g1, g2).support()}
        )
        assert by_graph == from_fillings
        assert by_graph == dict(multiply_basis_counting(g1, g2).items())


def test_middle_fillings_worked_example():
    a, c, middles = middle_fillings(G1, G2, G3)
    assert a.word() == c.word() == "|123|4|"
    assert [b.word() for b in middles] == ["|12|34|", "|13|24|", "|23|14|"]
    a, c, middles = middle_fillings(G1, G2, G4)
    assert (a.word(), c.word()) == ("|124|3|", "|123|4|")
    assert [b.word() for b in middles] == ["|12|34|"]


def test_coeff_by_counting_worked_example():
    assert coeff_by_counting(G1, G2, G3) == 3
    assert coeff_by_counting(G1, G2, G4) == 1
    assert coeff_by_counting(G1, G2, G1) == 0


def test_coeff_independent_of_outer_pair():
    # the middle count depends only on the orbit of (a, c), checked directly
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    configs = enumerate_configurations(p)
    for g1, g2 in [
        (graphs[3], graphs[7]),
        (graphs[10], graphs[10]),
        (graphs[5], graphs[17]),
    ]:
        for g in enumerate_graphs(p):
            counts = {
                middle_count_direct(g1, g2, a, c)
                for a, c in itertools.product(configs, repeat=2)
                if pair_graph(a, c) == g
            }
            assert len(counts) == 1
            assert counts.pop() == coeff_by_counting(g1, g2, g)


def test_renamed_outer_pair_gives_same_count():
    # renaming both outer rows together never changes the middle count
    a, c = canonical_pair(G3)
    assert middle_count_direct(G1, G2, a, c) == 3
    for w in all_permutations(4):
        renamed = [to_configuration(act_on_index(w, to_multi_index(row)), row.n) for row in (a, c)]
        assert middle_count_direct(G1, G2, *renamed) == 3


def test_matrix_units_at_one_ball():
    # with a single ball the basis multiplies like matrix units
    p = Params(3, 1)
    graphs = enumerate_graphs(p)

    def unit(i, j):
        return BipartiteMultigraph(
            tuple(tuple(1 if (r, c) == (i - 1, j - 1) else 0 for c in range(3)) for r in range(3))
        )

    assert set(graphs) == {unit(i, j) for i in range(1, 4) for j in range(1, 4)}
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        for engine in ENGINES:
            product = engine(unit(i, j), unit(k, l))
            if j == k:
                assert product.coefficient(unit(i, l)) == 1
                assert len(product.support()) == 1
            else:
                assert product.is_zero


def test_single_box_products():
    # n = 1: one basis graph, xi * xi = d! / prod ... no: count middles of the
    # unique triple column; every configuration is |12...d|, so the count is 1
    p = Params(1, 3)
    (g,) = enumerate_graphs(p)
    for engine in ENGINES:
        assert engine(g, g).coefficient(g) == 1


def test_engines_agree_exhaustively_small():
    p = Params(2, 2)
    for g1, g2 in itertools.product(enumerate_graphs(p), repeat=2):
        reference = multiply_basis_oracle(g1, g2)
        for engine in ENGINES:
            assert engine(g1, g2) == reference


def test_shape_mismatch_rejected():
    other = BipartiteMultigraph(((1,),))
    for engine in ENGINES:
        with pytest.raises(ValueError):
            engine(G1, other)


def compatible_pairs(p):
    graphs = enumerate_graphs(p)
    return [
        (g1, g2)
        for g1, g2 in itertools.product(graphs, repeat=2)
        if g2.bottom_valencies() == g1.top_valencies()
    ]


def test_euler_matches_counting_on_every_compatible_pair():
    # and folds every other pair to nothing: only the per-vertex moves see that the valencies miss
    for (n, d), expected in (((2, 4), 259), ((3, 3), 2973)):
        graphs = enumerate_graphs(Params(n, d))
        compatible = 0
        for g1, g2 in itertools.product(graphs, repeat=2):
            if g2.bottom_valencies() == g1.top_valencies():
                compatible += 1
                assert multiply_basis_euler(g1, g2) == multiply_basis_counting(g1, g2), (g1, g2)
            else:
                assert euler_fold(g1, g2) == {}, (g1, g2)
        assert compatible == expected


def brute_vertex_moves(g2_row, g1_column):
    """Every table with these margins, entry (t, s) over all n × n cells in lexicographic order, as moves."""
    n = len(g2_row)
    cells = [(t, s) for t in range(n) for s in range(n)]
    return tuple(
        tuple((s * n + t, k) for (t, s), k in zip(cells, table) if k)
        for table in itertools.product(*(range(min(g2_row[t], g1_column[s]) + 1) for t, s in cells))
        if all(sum(table[t * n : t * n + n]) == g2_row[t] for t in range(n))
        and all(sum(table[s::n]) == g1_column[s] for s in range(n))
    )


@pytest.mark.parametrize("n, d", [(2, 3), (2, 5), (3, 3), (3, 4), (4, 3), (2, 8)])
def test_vertex_moves_are_every_table_in_lexicographic_order(n, d):
    # a margin is a row of g2 and a column of g1 with at most d edges; those whose sums differ have no table
    margins = [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) <= d]
    for g2_row, g1_column in itertools.product(margins, repeat=2):
        if sum(g2_row) == sum(g1_column):
            assert structconst._vertex_moves(g2_row, g1_column) == brute_vertex_moves(g2_row, g1_column)
        else:
            assert structconst._vertex_moves(g2_row, g1_column) == ()


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 2)])
def test_counting_equals_the_middle_fillings_on_every_compatible_pair(n, d):
    # the walk against the full sweep, and its witnesses against a filter of every image of c;
    # every term has g2's top and g1's bottom valencies, so no other g can count
    graphs = basis(n, d)
    for g1, g2 in compatible_pairs(Params(n, d)):
        assert multiply_basis_counting(g1, g2) == counting_sweep(g1, g2), (g1, g2)
        for g in graphs:
            if g.top_valencies() == g2.top_valencies() and g.bottom_valencies() == g1.bottom_valencies():
                a, c = canonical_pair(g)
                images = sorted(apply_basis(g2, c), key=to_multi_index)
                assert middle_fillings(g1, g2, g) == (a, c, [b for b in images if pair_graph(a, b) == g1])


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 2)])
def test_rising_within_each_top_box_picks_the_canonical_bottom_row(n, d):
    # counting's rule: among the a with pair_graph(a, c) == g, the one whose
    # boxes never decrease along the balls of each box of c is canonical_pair's
    for g in basis(n, d):
        a0, c = canonical_pair(g)
        top = to_multi_index(c)
        rising = []
        for a in apply_basis(g, c):
            bottom = to_multi_index(a)
            if all(bottom[s - 1] <= bottom[s] for s in range(1, d) if top[s - 1] == top[s]):
                rising.append(a)
        assert rising == [a0], g


def test_counting_builds_no_configuration(monkeypatch):
    built = []
    post_init = Configuration.__post_init__

    def counted(config):
        built.append(config)
        post_init(config)

    monkeypatch.setattr(Configuration, "__post_init__", counted)
    g = BipartiteMultigraph(((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    product = multiply_basis_counting(g, g)
    assert len(product.items()) > 1
    coefficients = {term: coeff_by_counting(g, g, term) for term in product.support()}
    assert built == []
    assert product == multiply_basis_euler(g, g)
    assert coefficients == dict(product.items())


def test_counting_takes_a_column_longer_than_the_recursion_limit():
    # one box of more balls than Python's default recursion limit of 1000
    g = BipartiteMultigraph(((1500,),))
    assert multiply_basis_counting(g, g) == AlgebraElement.basis(g)


def test_euler_fold_agrees_with_the_element_path():
    p = Params(3, 3)
    graphs = enumerate_graphs(p)
    for g1, g2 in compatible_pairs(p):
        fold = euler_fold(g1, g2)
        product = multiply_basis_euler(g1, g2)
        # the unchecked element equals one built through every check
        checked = {BipartiteMultigraph((key[0:3], key[3:6], key[6:9])): c for key, c in fold.items()}
        assert product == AlgebraElement(3, 3, checked)
        assert fold == {g.sort_key: c for g, c in product.items()}
    assert euler_fold(graphs[0], graphs[-1]) == {}


def column_multinomial(g):
    """Configurations a reached from one top row c by g: |apply_basis(g, c)|."""
    top = math.prod(math.factorial(v) for v in g.top_valencies())
    return top // math.prod(math.factorial(m) for row in g.matrix for m in row)


DENSE = (
    (((3, 3), (3, 3)), 7),
    (((4, 2), (2, 4)), 5),
    (((1, 1, 1), (1, 1, 1), (1, 1, 1)), 55),
    (((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)), 16),
    (((1, 1, 1, 1),) * 4, 10147),
)


@pytest.mark.parametrize("matrix, terms", DENSE, ids=[str(BipartiteMultigraph(m)) for m, _ in DENSE])
def test_default_engine_column_multinomial_checksum(matrix, terms):
    # every path c -> b -> a is one middle filling of one composed graph, so
    # sum_g c_g * M(g) = M(g1) * M(g2) at any size
    g = BipartiteMultigraph(matrix)
    product = basis_product(g, g)  # the default engine
    assert len(product.items()) == terms
    assert all(coeff > 0 for _, coeff in product.items())
    total = sum(coeff * column_multinomial(h) for h, coeff in product.items())
    assert total == column_multinomial(g) ** 2


def transposed(g):
    return BipartiteMultigraph(tuple(zip(*g.matrix)))


def relabelled(g, sigma):
    """σgσᵀ: box i of both rows becomes box sigma[i]."""
    rows = [[0] * g.n for _ in range(g.n)]
    for i, row in enumerate(g.matrix):
        for j, m in enumerate(row):
            rows[sigma[i]][sigma[j]] = m
    return BipartiteMultigraph(tuple(map(tuple, rows)))


def orbit(g1, g2):
    """The pairs (σg1σᵀ, σg2σᵀ) for every σ in S_n, and their transposes (σg2ᵀσᵀ, σg1ᵀσᵀ)."""
    pairs = {(relabelled(g1, sigma), relabelled(g2, sigma)) for sigma in itertools.permutations(range(g1.n))}
    return pairs | {(transposed(b), transposed(a)) for a, b in pairs}


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3)])
def test_counting_is_symmetric_under_transpose_and_box_relabelling(n, d):
    # c(g1, g2; g) = c(g2ᵀ, g1ᵀ; gᵀ) = c(σg1σᵀ, σg2σᵀ; σgσᵀ) for every σ in S_n:
    # the identities a table uses to fold one pair per orbit
    products = {(g1, g2): multiply_basis_counting(g1, g2) for g1, g2 in compatible_pairs(Params(n, d))}
    for (g1, g2), product in products.items():
        image = products[transposed(g2), transposed(g1)]
        assert image == AlgebraElement(n, d, [(transposed(g), c) for g, c in product.items()])
        for sigma in itertools.permutations(range(n)):
            image = products[relabelled(g1, sigma), relabelled(g2, sigma)]
            expected = AlgebraElement(n, d, [(relabelled(g, sigma), c) for g, c in product.items()])
            assert image == expected, (g1, g2, sigma)
    # the symmetry maps are those maps on basis indices: the adjacent box
    # swaps, then the transpose
    graphs = basis(n, d)
    swaps = [[*range(s), s + 1, s, *range(s + 2, n)] for s in range(n - 1)]
    images = [lambda g, sigma=sigma: relabelled(g, sigma) for sigma in swaps] + [transposed]
    maps = structconst._symmetry_maps({g.sort_key: k for k, g in enumerate(graphs)}, n)
    assert len(maps) == len(images) == n
    for generator, image in zip(maps, images):
        assert generator == [rank(image(g).sort_key) for g in graphs]
    # and the rows that walk them carry each folded pair's terms to every pair of its orbit
    rows = list(product_rows(n, d))
    assert sum(map(len, rows)) == len(products)
    for g1, row in zip(graphs, rows):
        for k, (terms, coeffs) in row.items():
            assert len(set(terms)) == len(terms) == len(coeffs)
            assert AlgebraElement(n, d, zip(map(graphs.__getitem__, terms), coeffs)) == products[g1, graphs[k]]


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_product_rows_match_one_fold_per_pair_where_orbits_reach_back_into_the_row(n, d):
    graphs = basis(n, d)
    rows = list(product_rows(n, d))
    assert len(rows) == len(graphs)
    for g1, row in zip(graphs, rows):
        folds = ((k, euler_fold(g1, g2)) for k, g2 in enumerate(graphs))
        expected = {k: sorted((rank(key), c) for key, c in fold.items()) for k, fold in folds if fold}
        assert {k: sorted(zip(*entry)) for k, entry in row.items()} == expected
    # some orbit holds two pairs of one row, so the walk puts a relabelled
    # pair into the bucket of the row it is walking
    orbits = (orbit(graphs[i], graphs[k]) for i, row in enumerate(rows) for k in row)
    assert any(len({a for a, _ in pairs}) < len(pairs) for pairs in orbits)


def test_product_rows_hold_pending_terms_in_small_memory():
    # per-row buckets of relabelled terms, with equal entries shared, peak at
    # 1.3 MiB at (3,4) on CPython 3.11; each entry its own tuple took 1.9 MiB
    for _ in product_rows(3, 4):  # build the basis layer and the fold's move cache first
        pass
    tracemalloc.start()
    try:
        for _ in product_rows(3, 4):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_product_rows_share_equal_entries():
    # at (3,4) the 18,711 nonzero products have 2,721 distinct (term indices, coefficients) entries,
    # fewer than the walk's table of shared entries holds, so each value is one object
    entries = [entry for row in product_rows(3, 4) for entry in row.values()]
    assert len(entries) == 18711
    assert len({id(entry) for entry in entries}) == len(set(entries)) == 2721
