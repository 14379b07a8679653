"""Configurations, the index/configuration dictionary, column arrangements, the renaming action, and records."""

import itertools
import math
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest

from schurbox.combinatorics import (
    Configuration,
    ConfigurationError,
    Params,
    TooLargeError,
    arrangements,
    column_arrangements,
    compositions,
    enumerate_configurations,
    enumerate_multi_indices,
    index_position,
    to_configuration,
    to_multi_index,
)
from schurbox.graphs import BipartiteMultigraph
from schurbox.oracle import DenseOperator
from schurbox.structconst import WordMatrix
from schurbox.verify import CheckResult

from reference import act_on_index, all_permutations, transposition


# each record: how to build it, one that differs, its repr, and the field tuple it hashes as (None: unhashable)
RECORDS = {
    "Params": (lambda: Params(2, 3), Params(3, 2), "Params(n=2, d=3)", (2, 3)),
    "Configuration": (lambda: Configuration([[1, 2], [3]]), Configuration(((1,), (2, 3))),
                      "Configuration(boxes=((1, 2), (3,)))", (((1, 2), (3,)),)),
    "BipartiteMultigraph": (lambda: BipartiteMultigraph([[2, 1], [0, 1]]), BipartiteMultigraph(((2, 1), (1, 0))),
                            "BipartiteMultigraph(matrix=((2, 1), (0, 1)))", (((2, 1), (0, 1)),)),
    "WordMatrix": (lambda: WordMatrix(((((0, 0), (0, 1)),),)), WordMatrix(((),)),
                   "WordMatrix(entries=((((0, 0), (0, 1)),),))", (((((0, 0), (0, 1)),),),)),
    "CheckResult": (lambda: CheckResult("a", True, "x"), CheckResult("a", False, "x"),
                    "CheckResult(name='a', passed=True, detail='x', counterexample=None)", None),
    "DenseOperator": (lambda: DenseOperator(1, 1, np.array([[2]], dtype=object)),
                      DenseOperator(1, 1, np.array([[3]], dtype=object)),
                      "DenseOperator(n=1, d=1, matrix=array([[2]], dtype=object))", None),
}


@pytest.mark.parametrize("build, other, text, key", RECORDS.values(), ids=RECORDS)
def test_records_compare_print_hash_and_pickle_by_their_fields(build, other, text, key):
    record = build()
    assert record == build() and record != other and record != text
    assert repr(record) == text
    assert not hasattr(record, "__dict__") and weakref.ref(record)() is record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record) and copy == record and repr(copy) == text
    if key is None:  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(record)
        for field in type(record).__slots__:
            setattr(record, field, getattr(other, field))
        assert repr(record) == repr(other)
        return
    field = type(record).__slots__[0]
    assert hash(record) == hash(build()) == hash(key)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


def test_each_public_configuration_runs_the_validation_hook_once(monkeypatch):
    # bench/tracer.py counts combinatorics.configurations_built by wrapping this hook
    built = []
    post_init = Configuration.__post_init__
    monkeypatch.setattr(Configuration, "__post_init__", lambda config: (built.append(1), post_init(config)))
    config = Configuration(((1, 3), (2,)))
    for make in (lambda: Configuration.from_word("|13|2|"), lambda: to_configuration((1, 2, 1), 2),
                 lambda: pickle.loads(pickle.dumps(config))):
        assert make() == config
    assert len(built) == 4
    assert Configuration._trusted(((1, 3), (2,))) == config and len(enumerate_configurations(Params(2, 3))) == 8
    assert len(built) == 4


def test_params_validation():
    Params(1, 1)
    Params(3, 7)
    with pytest.raises(ValueError):
        Params(0, 2)
    with pytest.raises(ValueError):
        Params(2, 0)
    with pytest.raises(ValueError):
        Params(2, -1)
    with pytest.raises(ValueError):
        Params("2", 1)


def test_index_count():
    assert Params(2, 3).index_count == 8
    assert Params(3, 4).index_count == 81


# the renaming action lives in tests/reference.py; these pin that reference down


def test_transposition():
    t = transposition(4, 2, 4)
    assert t == (1, 4, 3, 2)
    assert act_on_index(t, t) == (1, 2, 3, 4)


def test_composition_matches_action():
    # acting on w2's images composes: (w1 * w2) . index == w1 . (w2 . index), exhaustively at d=3
    indices = enumerate_multi_indices(Params(2, 3))
    for w1, w2 in itertools.product(all_permutations(3), repeat=2):
        for index in indices:
            assert act_on_index(act_on_index(w1, w2), index) == act_on_index(w1, act_on_index(w2, index))


def test_action_is_a_right_inverse_scramble():
    # the action permutes positions: entry s of the result is entry w(s)
    assert act_on_index((3, 1, 2), (10, 20, 30)) == (30, 10, 20)


def test_act_on_index_degree_mismatch():
    with pytest.raises(ValueError):
        act_on_index((2, 1), (1, 1, 1))


def test_all_permutations_count():
    perms = list(all_permutations(4))
    assert len(perms) == len(set(perms)) == math.factorial(4)
    assert perms == sorted(perms)


def test_enumerate_multi_indices_lex():
    indices = enumerate_multi_indices(Params(2, 2))
    assert indices == [(1, 1), (1, 2), (2, 1), (2, 2)]
    indices = enumerate_multi_indices(Params(3, 2))
    assert indices == sorted(indices)
    assert len(indices) == 9


@pytest.mark.parametrize("p", [Params(1, 1), Params(2, 3), Params(3, 3), Params(2, 5)], ids=str)
def test_index_position_inverts_enumeration_order(p):
    indices = enumerate_multi_indices(p)
    assert [index_position(index, p.n) for index in indices] == list(range(len(indices)))


def test_enumeration_cap():
    with pytest.raises(TooLargeError):
        enumerate_multi_indices(Params(2, 20))
    with pytest.raises(TooLargeError):
        enumerate_configurations(Params(2, 30))


def test_configuration_validation_messages():
    with pytest.raises(ConfigurationError, match="more than once"):
        Configuration(((1, 2), (2,)))
    with pytest.raises(ConfigurationError, match="increasing order"):
        Configuration(((2, 1), ()))
    with pytest.raises(ConfigurationError, match="missing"):
        Configuration(((1, 3), ()))
    with pytest.raises(ConfigurationError, match="positive integers"):
        Configuration(((0, 1), ()))
    with pytest.raises(ConfigurationError, match="positive integers"):
        Configuration((("1",),))
    with pytest.raises(ConfigurationError):
        Configuration(())


def test_empty_boxes_are_fine():
    c = Configuration(((), (1, 2), ()))
    assert c.n == 3
    assert c.d == 2
    assert c.content() == (0, 2, 0)


def test_word_format():
    assert Configuration(((1, 2, 3), (4,))).word() == "|123|4|"
    assert Configuration(((), (1,))).word() == "||1|"
    assert str(Configuration(((1,), (), (2,)))) == "|1||2|"


def test_word_uses_commas_past_nine_balls():
    boxes = (tuple(range(1, 11)), ())
    c = Configuration(boxes)
    assert c.word() == "|1,2,3,4,5,6,7,8,9,10||"
    assert Configuration.from_word(c.word()) == c


def test_from_word_roundtrip_exhaustive():
    # past nine balls a box of one label prints bare, as in |1,2,3,4,5,6,7,8,9|10|
    singletons = Configuration(tuple((ball,) for ball in range(1, 11)))
    assert singletons.word() == "|1|2|3|4|5|6|7|8|9|10|"
    configs = [c for p in (Params(2, 3), Params(3, 2), Params(2, 10)) for c in enumerate_configurations(p)]
    for c in [*configs, singletons]:
        word = c.word()
        assert word.count("|") == c.n + 1
        assert Configuration.from_word(word) == c
        assert Configuration.from_word(word, n=c.n, d=c.d) == c


def test_from_word_diagnostics():
    with pytest.raises(ConfigurationError, match="begin and end"):
        Configuration.from_word("12|3|")
    with pytest.raises(ConfigurationError, match="begin and end"):
        Configuration.from_word("|12|3")
    with pytest.raises(ConfigurationError, match="separators"):
        Configuration.from_word("|12|3|", n=3)
    with pytest.raises(ConfigurationError, match="invalid ball label"):
        Configuration.from_word("|1x|2|")
    with pytest.raises(ConfigurationError, match="invalid ball label"):
        Configuration.from_word("|1,x|2|")
    with pytest.raises(ConfigurationError, match="invalid ball label"):
        Configuration.from_word("|1\u00b2|")  # isdigit() accepts a superscript two, int() does not
    with pytest.raises(ConfigurationError, match="expected 3 balls"):
        Configuration.from_word("|12|", d=3)
    with pytest.raises(ConfigurationError):
        Configuration.from_word("")


def test_index_configuration_roundtrip():
    for p in (Params(2, 3), Params(3, 2)):
        for index in enumerate_multi_indices(p):
            c = to_configuration(index, p.n)
            assert to_multi_index(c) == index
        for c in enumerate_configurations(p):
            assert to_configuration(to_multi_index(c), p.n) == c


def test_enumerated_configurations_equal_the_checked_ones():
    # enumerate_configurations skips the constructor's checks
    p = Params(3, 3)
    checked = [to_configuration(index, p.n) for index in enumerate_multi_indices(p)]
    configs = enumerate_configurations(p)
    assert configs == checked
    assert [c.boxes for c in configs] == [c.boxes for c in checked]
    assert all(type(box) is tuple for c in configs for box in c.boxes)


def test_to_configuration_rejects_bad_entries():
    with pytest.raises(ValueError):
        to_configuration((1, 3), 2)
    with pytest.raises(ValueError):
        to_configuration((0, 1), 2)


def renamed(w, config):
    """The configuration of the index w . i, by the action's own definition: ball w(s) is renamed s."""
    return to_configuration(act_on_index(w, to_multi_index(config)), config.n)


def test_configuration_action_example():
    # swapping balls 3 and 4 turns |123|4| into |124|3|
    assert renamed(transposition(4, 3, 4), Configuration.from_word("|123|4|")).word() == "|124|3|"


def test_configuration_action_intertwines():
    # place permutation on the index is renaming ball w(s) to s in the configuration
    p = Params(2, 3)
    for w in all_permutations(p.d):
        new_name = {image: s for s, image in enumerate(w, start=1)}
        for c in enumerate_configurations(p):
            boxes = tuple(tuple(sorted(new_name[ball] for ball in box)) for box in c.boxes)
            assert renamed(w, c) == Configuration(boxes)


def test_content_is_orbit_invariant():
    p = Params(3, 3)
    for c in enumerate_configurations(p):
        for w in all_permutations(p.d):
            assert renamed(w, c).content() == c.content()


def test_arrangements_in_lexicographic_order():
    for multiset in (Counter("aab"), Counter({0: 2, 2: 1, 3: 2}), Counter({5: 4}), Counter("abcd")):
        found = list(arrangements(multiset.elements()))
        assert found == sorted(set(itertools.permutations(multiset.elements())))
        size = sum(multiset.values())
        assert len(found) == math.factorial(size) // math.prod(map(math.factorial, multiset.values()))
    assert list(arrangements(Counter().elements())) == [()]


def test_column_arrangements_place_each_box_its_count():
    assert column_arrangements((2, 0, 1)) == ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert column_arrangements((0, 0)) == ((),)
    for column in ((1, 1, 1), (2, 2), (0, 3, 1)):
        found = column_arrangements(column)
        assert found == tuple(arrangements(Counter(dict(enumerate(column))).elements()))
        assert all(Counter(row) == Counter({i: k for i, k in enumerate(column) if k}) for row in found)


def test_compositions():
    rows = list(compositions(2, 2))
    assert rows == [(0, 2), (1, 1), (2, 0)]
    rows = list(compositions(4, 3))
    assert rows == sorted(rows)
    assert all(sum(row) == 4 for row in rows)
    assert len(rows) == math.comb(4 + 3 - 1, 3 - 1)
    assert list(compositions(3, 1)) == [(3,)]
    # far more parts than the interpreter's recursion limit
    assert sum(1 for _ in compositions(1, 2000)) == 2000
    with pytest.raises(ValueError):
        list(compositions(2, 0))
