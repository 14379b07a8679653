"""Elements, the basis action, the identity, and the multiplication wrapper."""

import gc
import itertools
import random
import tracemalloc

import pytest

from schurbox import algebra, combinatorics, structconst
from schurbox.algebra import (
    ENGINE_NAMES,
    AlgebraElement,
    VectorElement,
    apply,
    apply_basis,
    basis_product,
    check_modulus,
    engine_function,
    identity_element,
    is_prime,
    multiply,
)
from schurbox.combinatorics import (
    Configuration,
    Params,
    TooLargeError,
    enumerate_configurations,
    enumerate_multi_indices,
    to_configuration,
)
from schurbox.graphs import BipartiteMultigraph, canonical_configuration, diagonal_graph, enumerate_graphs
from schurbox.oracle import operator_matrix

G1 = BipartiteMultigraph(((2, 1), (0, 1)))


def random_element(p, rng, size=3, bound=5):
    graphs = enumerate_graphs(p)
    return AlgebraElement(
        p.n, p.d, [(rng.choice(graphs), rng.randint(-bound, bound)) for _ in range(size)]
    )


def test_is_prime_brute_force():
    def slow(m):
        return m >= 2 and all(m % k for k in range(2, m))

    for m in range(-3, 500):
        assert is_prime(m) == slow(m)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_check_modulus():
    check_modulus(None)
    check_modulus(2)
    check_modulus(97)
    for bad in (0, 1, -5, 6, 2.0):
        with pytest.raises(ValueError):
            check_modulus(bad)


def test_element_construction_and_pruning():
    x = AlgebraElement(2, 4, [(G1, 2), (G1, -2)])
    assert x.is_zero
    assert not x
    assert x == AlgebraElement.zero(2, 4)
    y = AlgebraElement(2, 4, {G1: 3})
    assert y.coefficient(G1) == 3
    assert y.support() == [G1]


def test_element_shape_and_type_checks():
    with pytest.raises(ValueError):
        AlgebraElement(2, 3, [(G1, 1)])
    with pytest.raises(TypeError):
        AlgebraElement(2, 4, [(G1, 1.5)])
    with pytest.raises(TypeError):
        AlgebraElement(2, 4, [("g", 1)])
    with pytest.raises(ValueError):
        AlgebraElement(2, 4, [(G1, 1)]) + AlgebraElement(2, 2, [])


def test_element_arithmetic():
    g2 = BipartiteMultigraph(((2, 0), (1, 1)))
    x = AlgebraElement.basis(G1)
    y = AlgebraElement.basis(g2)
    assert (x + y).coefficient(G1) == 1
    assert (x - x).is_zero
    assert (-x).coefficient(G1) == -1
    assert (3 * x + 2 * y).coefficient(g2) == 2
    assert 0 * x == AlgebraElement.zero(2, 4)
    assert x * 4 == 4 * x


def test_element_str():
    g2 = BipartiteMultigraph(((2, 0), (1, 1)))
    x = 3 * AlgebraElement.basis(G1) - AlgebraElement.basis(g2)
    assert str(x) == "-xi[[2,0],[1,1]] + 3*xi[[2,1],[0,1]]"
    assert str(AlgebraElement.zero(2, 4)) == "0"


def test_vector_str_and_items_order():
    b1 = Configuration.from_word("|12|34|")
    b2 = Configuration.from_word("|123|4|")
    v = 2 * VectorElement.basis(b1) - VectorElement.basis(b2)
    # |123|4| has multi-index (1,1,1,2), before (1,1,2,2)
    assert v.support() == [b2, b1]
    assert str(v) == "-e|123|4| + 2*e|12|34|"


def test_reduce():
    x = 7 * AlgebraElement.basis(G1)
    assert x.reduce(5).coefficient(G1) == 2
    assert x.reduce(7).is_zero
    assert x.reduce(None) == x
    v = -1 * VectorElement.basis(Configuration.from_word("|12|34|"))
    assert v.reduce(3).coefficient(Configuration.from_word("|12|34|")) == 2


@pytest.mark.parametrize("p", [Params(3, 2), Params(2, 4)])
def test_items_follow_the_flattened_matrix_order(p):
    rng = random.Random(3)
    for _ in range(20):
        x = random_element(p, rng, size=8)
        assert x.items() == sorted(x.items(), key=lambda kv: kv[0].sort_key)


def test_multiply_never_builds_a_sort_key(monkeypatch):
    def refused(g):
        raise AssertionError("sort_key rebuilt")

    p = Params(2, 3)
    rng = random.Random(9)
    x, y = random_element(p, rng), random_element(p, rng)
    monkeypatch.setattr(BipartiteMultigraph, "sort_key", property(refused))
    basis_product.cache_clear()
    product = multiply(x, y)
    assert [g for g, _ in product.items()] == product.support()
    assert str(product)


def test_vectors_and_operators_do_not_mix():
    b = Configuration.from_word("|12|34|")
    x = AlgebraElement.basis(G1)
    v = VectorElement.basis(b)
    with pytest.raises(TypeError):
        x + v
    with pytest.raises(TypeError):
        v - x
    with pytest.raises(TypeError):
        AlgebraElement.basis(b)
    with pytest.raises(TypeError):
        VectorElement.basis(G1)
    assert x != v
    assert not x == v
    assert AlgebraElement.zero(2, 4) != VectorElement.zero(2, 4)


def test_multiply_checks_the_modulus_before_any_product(monkeypatch):
    calls = []
    monkeypatch.setattr(algebra, "basis_product", lambda *args: calls.append(args))
    x = AlgebraElement.basis(G1)
    with pytest.raises(ValueError, match="modulus must be prime"):
        multiply(x, x, mod=4)
    assert calls == []


def test_apply_basis_worked_expansion():
    b = Configuration.from_word("|12|34|")
    out = apply_basis(G1, b)
    assert {c.word() for c in out} == {"|123|4|", "|124|3|"}


def test_apply_basis_content_mismatch_is_empty():
    assert apply_basis(G1, Configuration.from_word("|123|4|")) == set()
    assert apply_basis(G1, Configuration.from_word("|1234||")) == set()


def test_apply_basis_diagonal_fixes():
    b = Configuration.from_word("|12|34|")
    assert apply_basis(diagonal_graph((2, 2)), b) == {b}


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2), Params(2, 4)], ids=str)
def test_apply_basis_matches_oracle_columns(p):
    # the preimage set of b is exactly the 1-entries of b's operator column
    configs = [to_configuration(index, p.n) for index in enumerate_multi_indices(p)]
    for g in enumerate_graphs(p):
        op = operator_matrix(g)
        for y, b in enumerate(configs):
            expected = {a for x, a in enumerate(configs) if op.matrix[x, y] == 1}
            images = apply_basis(g, b)
            assert images == expected
            # built without the checks, but the checking constructor accepts each one
            assert all(Configuration(a.boxes) == a for a in images)


def test_apply_linear():
    b = Configuration.from_word("|12|34|")
    x = 2 * AlgebraElement.basis(G1)
    v = 3 * VectorElement.basis(b)
    out = apply(x, v)
    assert out.coefficient(Configuration.from_word("|123|4|")) == 6
    assert out.coefficient(Configuration.from_word("|124|3|")) == 6
    assert apply(x, v, mod=5) == out.reduce(5)
    with pytest.raises(ValueError):
        apply(x, VectorElement.zero(2, 2))


@pytest.mark.parametrize("p", [Params(2, 4), Params(3, 3), Params(4, 2)])
def test_image_size_counts_apply_basis(p):
    for g in enumerate_graphs(p):
        assert algebra._image_size(g) == len(apply_basis(g, canonical_configuration(g.top_valencies())))


def test_apply_refuses_before_building_past_the_cap(monkeypatch):
    # G1 sends |12|34| to 2 configurations and [[1,1],[1,1]] to 4; neither meets |123|4|
    x = AlgebraElement.basis(G1) + AlgebraElement.basis(BipartiteMultigraph(((1, 1), (1, 1))))
    v = VectorElement.basis(Configuration.from_word("|12|34|")) + VectorElement.basis(
        Configuration.from_word("|123|4|")
    )
    monkeypatch.setattr(combinatorics, "DEFAULT_ENUMERATION_CAP", 6)
    assert len(apply(x, v).support()) == 6
    monkeypatch.setattr(combinatorics, "DEFAULT_ENUMERATION_CAP", 5)

    def refused(g, b):
        raise AssertionError("built configurations past the cap")

    monkeypatch.setattr(algebra, "apply_basis", refused)
    with pytest.raises(TooLargeError, match=r"apply builds at n=2, d=4 has 6 elements \(cap 5\)"):
        apply(x, v)


def test_apply_keeps_nothing_once_its_result_is_dropped():
    # 1,680 images; a memo of the column arrangements kept about 198 KiB of them after apply returned.  A full
    # collection empties the interpreter's free lists, which tracemalloc counts as held
    def action(row, word):
        g, b = BipartiteMultigraph((row,) * 3), Configuration.from_word(word)
        return AlgebraElement.basis(g), VectorElement.basis(b)

    assert len(apply(*action((1, 0, 0), "|123|||")).support()) == 6  # warm-up, with another first column
    x, v = action((3, 0, 0), "|123456789|||")
    tracemalloc.start()
    try:
        result = apply(x, v)
        assert len(result.support()) == 1680
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * 2**10


def test_identity_element_fixes_vectors():
    p = Params(2, 3)
    e = identity_element(p)
    for b in enumerate_configurations(p):
        assert apply(e, VectorElement.basis(b)) == VectorElement.basis(b)


def test_identity_element_is_a_unit():
    p = Params(2, 2)
    e = identity_element(p)
    for g in enumerate_graphs(p):
        x = AlgebraElement.basis(g)
        assert multiply(e, x) == x
        assert multiply(x, e) == x
    assert multiply(e, e) == e


def test_identity_element_refuses_before_building():
    # 1,200 diagonal graphs of 1,200 x 1,200 entries would take about 14 GB
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="1728000000 elements"):
            identity_element(Params(1200, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_multiply_operator_convention():
    # xi_g1 then xi_g2 applied right to left: (x*y) v == x (y v)
    p = Params(2, 3)
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(p, rng)
        y = random_element(p, rng)
        v = VectorElement.basis(rng.choice(enumerate_configurations(p)))
        assert apply(multiply(x, y), v) == apply(x, apply(y, v))


def test_multiply_bilinear():
    p = Params(2, 2)
    rng = random.Random(11)
    for _ in range(20):
        x, y, z = (random_element(p, rng) for _ in range(3))
        assert multiply(x + y, z) == multiply(x, z) + multiply(y, z)
        assert multiply(z, x + y) == multiply(z, x) + multiply(z, y)
        assert multiply(3 * x, y) == 3 * multiply(x, y)


def test_multiply_mod():
    p = Params(2, 2)
    rng = random.Random(7)
    for _ in range(10):
        x = random_element(p, rng)
        y = random_element(p, rng)
        assert multiply(x, y, mod=3) == multiply(x, y).reduce(3)
    with pytest.raises(ValueError):
        multiply(x, y, mod=6)


def test_multiply_shape_mismatch():
    with pytest.raises(ValueError):
        multiply(AlgebraElement.zero(2, 2), AlgebraElement.zero(2, 3))


def test_engine_dispatch(monkeypatch):
    g2 = BipartiteMultigraph(((2, 0), (1, 1)))
    # every engine gives the product as raw counts, {flattened composed matrix: coefficient}
    outputs = {engine: engine_function(engine)(G1, g2) for engine in ("counting", "euler", "oracle")}
    assert all(result == {(2, 1, 1, 0): 1, (3, 0, 0, 1): 3} for result in outputs.values())
    assert list(outputs) == list(ENGINE_NAMES)
    for unknown in ("fast", "mendez"):  # mendez is a reference in structconst, not an engine
        with pytest.raises(ValueError):
            engine_function(unknown)
    # a loaded engine module still has its function read on every call
    monkeypatch.setattr(structconst, "counting_fold", lambda g1, g2: "patched")
    assert engine_function("counting")(G1, g2) == "patched"
    # the memo serves the production engine only, as an element
    terms = {BipartiteMultigraph(((2, 1), (1, 0))): 1, BipartiteMultigraph(((3, 0), (0, 1))): 3}
    assert basis_product(G1, g2) == AlgebraElement(2, 4, terms)
    with pytest.raises(TypeError):
        basis_product(G1, g2, "counting")


def test_basis_product_cache_is_bounded():
    assert basis_product.cache_info().maxsize == 2**16


def test_dunder_mul_multiplies():
    g2 = BipartiteMultigraph(((2, 0), (1, 1)))
    x = AlgebraElement.basis(G1)
    y = AlgebraElement.basis(g2)
    assert x * y == multiply(x, y)


def test_operator_matrix_of_product():
    # multiplication matches composition of the dense operators
    p = Params(2, 2)
    graphs = enumerate_graphs(p)
    for g1, g2 in itertools.product(graphs, repeat=2):
        product = multiply(AlgebraElement.basis(g1), AlgebraElement.basis(g2))
        composed = operator_matrix(g1) @ operator_matrix(g2)
        expanded = sum(
            (coeff * operator_matrix(g).matrix for g, coeff in product.items()),
            start=0 * composed.matrix,
        )
        assert (expanded == composed.matrix).all()
