"""The consistency suites behind the verify command."""

import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from schurbox import algebra, combinatorics, oracle, serialize, structconst, verify
from schurbox.algebra import AlgebraElement
from schurbox.combinatorics import (
    Params,
    TooLargeError,
    compositions,
    enumerate_configurations,
    enumerate_multi_indices,
    index_position,
    to_configuration,
    to_multi_index,
)
from schurbox.graphs import (
    CELL_CAP,
    BipartiteMultigraph,
    basis,
    canonical_configuration,
    canonical_pair,
    diagonal_graph,
    enumerate_graphs,
    graph_count,
    pair_graph,
    rank,
)
from schurbox.serialize import graph_from_record, graph_record
from schurbox.verify import (
    CHECK_NAMES,
    check_assoc,
    check_commutant,
    check_engines,
    check_identity,
    check_orbit_bijection,
    check_t_basis,
    run_checks,
)

from reference import DAMAGE, damaged


def test_full_suite_passes_at_desk_scale():
    results = run_checks(Params(2, 2))
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)
    assert all(r.counterexample is None for r in results)


def test_a_full_run_enumerates_the_basis_once(monkeypatch):
    # enumerate_graphs is the only caller of graphs.compositions, so this
    # counts every enumeration of the graph set, whatever name reached it
    calls = []

    def counted(total, parts):
        calls.append((total, parts))
        return compositions(total, parts)

    monkeypatch.setattr("schurbox.graphs.compositions", counted)
    basis.cache_clear()
    results = run_checks(Params(3, 3))
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)
    assert calls == [(3, 9)]


def test_subset_selection_keeps_canonical_order():
    results = run_checks(Params(2, 2), names=("identity", "commutant"))
    assert [r.name for r in results] == ["commutant", "identity"]


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(Params(2, 2), names=("commutant", "bogus"))


def test_corrupt_self_test_fails_with_counterexample():
    result = check_commutant(Params(2, 2), corrupt=True)
    assert not result.passed
    record = json.loads(result.counterexample)
    g = graph_from_record(record["corrupted"])
    assert (g.n, g.d) == (2, 2)
    assert len(record["cleared-entry"]) == 2


@pytest.mark.parametrize("p", [Params(2, 2), Params(3, 3), Params(2, 5), Params(4, 2)])
def test_the_corrupted_label_is_the_first_orbit_of_two_or_more_cells(p):
    # check_commutant corrupts label 1 without counting the grid; the count must agree
    sizes = np.bincount(oracle.pair_table(p.n, p.d).labels.ravel(), minlength=graph_count(p))
    assert np.flatnonzero(sizes >= 2)[0] == 1


def test_engines_check_resolves_each_engine_once(monkeypatch):
    # 200 sampled pairs at (2,5) and three engines: one lookup per engine, not one per fold
    calls = []

    def counted(name):
        calls.append(name)
        return algebra.engine_function(name)

    monkeypatch.setattr(verify, "engine_function", counted)
    assert check_engines(Params(2, 5)).passed
    assert calls == ["counting", "euler", "oracle"]


def test_engines_check_samples_large_shapes():
    result = check_engines(Params(3, 3), seed=1)
    assert result.passed
    assert "sampled" in result.detail


def test_engines_check_exhaustive_small_shapes():
    result = check_engines(Params(2, 2))
    assert result.passed
    assert result.detail == "100 pairs agree across counting/euler/oracle"


def test_engines_check_leaves_out_the_oracle_beyond_its_reach(monkeypatch):
    monkeypatch.setattr(verify, "in_reach", lambda p: False)
    result = check_engines(Params(2, 2))
    assert result.passed
    assert result.detail == "100 pairs agree across counting/euler"


def test_engines_counterexample_writes_every_engines_terms(monkeypatch):
    # the counterexample names the first pair that disagrees and each engine's terms in basis order;
    # the sabotaged fold doubles every product of two or more terms and lists them backwards
    fold = structconst.euler_fold

    def doubled(g1, g2):
        counts = fold(g1, g2)
        return {key: 2 * c for key, c in reversed(counts.items())} if len(counts) > 1 else counts

    monkeypatch.setattr(structconst, "euler_fold", doubled)
    result = check_engines(Params(2, 3))
    assert not result.passed
    assert result.detail == "engines disagree at [[0,1],[0,2]] * [[0,0],[1,2]]"
    terms = (
        '{"coeff":"%s","graph":{"d":3,"matrix":[[0,1],[1,1]],"n":2}},'
        '{"coeff":"%s","graph":{"d":3,"matrix":[[1,0],[0,2]],"n":2}}'
    )
    assert result.counterexample == (
        '{"counting":[' + terms % (1, 1) + '],"euler":[' + terms % (2, 2) + "],"
        '"g1":{"d":3,"matrix":[[0,1],[0,2]],"n":2},"g2":{"d":3,"matrix":[[0,0],[1,2]],"n":2},'
        '"oracle":[' + terms % (1, 1) + "]}"
    )


def test_assoc_check_samples_without_listing_every_triple():
    # 165^3 triples at (3,3); only the 200 sampled ones may be built
    tracemalloc.start()
    try:
        result = check_assoc(Params(3, 3), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert result.detail == "200 triples (sampled 200, seed 1) associate"
    assert peak < 32 * 2**20


def _miscount(monkeypatch, wrong, drop=False):
    """Make orbit_composition_counts one too high at each (g1, g2, g) in wrong, or drop that count."""
    right = oracle.orbit_composition_counts

    def off_by_one(h):
        result = right(h)
        for g1, g2, g in wrong:
            if h == g:
                pair = (rank(g1.sort_key), rank(g2.sort_key))
                if drop:
                    del result[pair]
                else:
                    result[pair] += 1
        return result

    monkeypatch.setattr(oracle, "orbit_composition_counts", off_by_one)


def _named(result):
    record = json.loads(result.counterexample)
    return tuple(graph_from_record(record[key]) for key in ("g1", "g2", "g"))


@pytest.mark.parametrize("case", ["nonzero-count", "zero-count", "incompatible-pair", "dropped-count"])
def test_t_basis_names_the_wrong_count(monkeypatch, case):
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    g = graphs[7]
    counts = oracle.orbit_composition_counts(g)  # keyed by basis index pairs
    if case in ("nonzero-count", "dropped-count"):
        # the oracle's largest count at g, one too high or missing: the product rows still hold it
        i, j = max(counts, key=lambda pair: (counts[pair], pair))
        g1, g2 = graphs[i], graphs[j]
    elif case == "zero-count":
        g1, g2 = next((a, b) for i, a in enumerate(graphs) for j, b in enumerate(graphs) if (i, j) not in counts)
    else:  # a pair whose valencies do not meet, so the fold never looks at it
        g1, g2 = next((a, b) for a in graphs[9:] for b in graphs if b.bottom_valencies() != a.top_valencies())
    _miscount(monkeypatch, [(g1, g2, g)], drop=case == "dropped-count")
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail == f"composition count mismatch at {g1} * {g2} -> {g}"
    assert _named(result) == (g1, g2, g)


def test_t_basis_reports_the_first_wrong_count_in_scan_order(monkeypatch):
    # scan order is g1, then g2, then g
    graphs = enumerate_graphs(Params(2, 3))
    wrong = [(graphs[i], graphs[j], graphs[k]) for i, j, k in ((4, 0, 0), (3, 9, 15), (3, 9, 12), (3, 10, 1))]
    _miscount(monkeypatch, wrong)
    assert _named(check_t_basis(Params(2, 3))) == wrong[2]


def _recording_folds(monkeypatch):
    """Record every (g1, g2) that structconst.euler_fold is called on, in call order."""
    calls = []
    fold = structconst.euler_fold

    def counted(g1, g2):
        calls.append((g1, g2))
        return fold(g1, g2)

    monkeypatch.setattr(structconst, "euler_fold", counted)
    return calls


@pytest.mark.parametrize("nonzero", [True, False], ids=["nonzero-coefficient", "zero-coefficient"])
def test_t_basis_names_a_wrong_euler_coefficient(monkeypatch, nonzero):
    # only the first pair of each symmetry orbit is folded, so perturb one of those
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    right = structconst.euler_fold
    representatives = _recording_folds(monkeypatch)
    list(structconst.product_rows(p.n, p.d))
    g1, g2 = next((a, b) for a, b in representatives if graphs.index(a) >= 5 and len(right(a, b)) >= 2)
    folded = right(g1, g2)
    if nonzero:
        g = next(h for h in reversed(graphs) if h.sort_key in folded)
    else:
        g = next(h for h in graphs if h.sort_key not in folded)

    def off_by_one(a, b):
        result = right(a, b)
        if (a, b) == (g1, g2):
            result[g.sort_key] = result.get(g.sort_key, 0) + 1
        return result

    monkeypatch.setattr(structconst, "euler_fold", off_by_one)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail == f"composition count mismatch at {g1} * {g2} -> {g}"
    assert _named(result) == (g1, g2, g)


@pytest.mark.parametrize("damage", ["transpose-fixes-every-graph", "swap-sends-two-graphs-crosswise"])
def test_t_basis_checks_the_relabelling(monkeypatch, damage):
    # t-basis reads the walk that table writes: a wrong symmetry generator
    # shows at a pair whose terms were relabelled, not folded
    p = Params(3, 3)
    right = structconst._symmetry_maps

    def damaged(position, n):
        first, *swaps, transpose = right(position, n)
        if damage == "transpose-fixes-every-graph":
            transpose = list(range(len(position)))
        else:
            first[0], first[1] = first[1], first[0]
        return [first, *swaps, transpose]

    monkeypatch.setattr(structconst, "_symmetry_maps", damaged)
    folded = _recording_folds(monkeypatch)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail.startswith("composition count mismatch at ")
    g1, g2, _ = _named(result)
    assert (g1, g2) not in folded


@pytest.mark.parametrize("p, folds", [(Params(3, 3), 276), (Params(3, 4), 1647)], ids=str)
def test_t_basis_folds_one_pair_per_symmetry_orbit(monkeypatch, p, folds):
    # the same folds as test_table_folds_one_pair_per_symmetry_orbit: one walk serves both
    folded = _recording_folds(monkeypatch)
    assert check_t_basis(p).passed
    assert len(folded) == len(set(folded)) == folds


def test_t_basis_names_a_relabelled_cell(monkeypatch):
    # one cell of the label grid moved to another orbit: both orbits' matrices
    # now differ from their configuration matrices, and the first is named
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    table = oracle.pair_table(p.n, p.d)
    was = graphs[table.labels[0, 2]]
    now = next(g for g in graphs if g != was)
    broken = oracle.PairTable(table.p)
    broken.labels = table.labels.copy()
    broken.labels[0, 2] = rank(now.sort_key)
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    g = min(was, now, key=graphs.index)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail == f"orbit and configuration matrices differ at {g}"
    assert graph_from_record(json.loads(result.counterexample)) == g


def test_t_basis_keeps_no_cube_of_coefficients():
    # 56^3 int64 expected counts at (2,5) alone would take 1.4 MB; at (3,4) the
    # check peaked at 6.8 MiB while it held the oracle's counts as dicts of dicts
    cases = [
        (Params(2, 5), "56 transported matrices, 175616 composition coefficients", 2**20),
        (Params(3, 4), "495 transported matrices, 121287375 composition coefficients", 4 * 2**20),
    ]
    for p, detail, bound in cases:
        oracle.pair_table.cache_clear()
        tracemalloc.start()
        try:
            result = check_t_basis(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert result.detail == detail
        assert peak < bound, (p, peak)


CUT_SHAPES = [Params(2, 3), Params(2, 4), Params(3, 2), Params(3, 3), Params(4, 2)]


def _canonical_rows(p):
    return [canonical_configuration(content) for content in compositions(p.d, p.n)]


@pytest.mark.parametrize("p", CUT_SHAPES, ids=str)
def test_canonical_rows_give_every_pair_graph(p):
    configs = enumerate_configurations(p)
    full = {pair_graph(a, b) for a in configs for b in configs}
    assert {pair_graph(a, b) for a in _canonical_rows(p) for b in configs} == full
    assert len(full) == len(enumerate_graphs(p))


@pytest.mark.parametrize("p", CUT_SHAPES, ids=str)
def test_canonical_rows_and_renaming_reach_every_cell(p):
    # a grid that commutes with every adjacent transposition is constant along
    # (r, c) -> (s[r], s[c]); closing the canonical rows under that reaches all
    table = oracle.pair_table(p.n, p.d)
    reached = np.zeros((table.size, table.size), dtype=bool)
    for a in _canonical_rows(p):
        reached[index_position(to_multi_index(a), p.n)] = True
    while True:
        grown = reached.copy()
        for sigma in oracle._transposition_indices(p.n, p.d):
            grown |= reached[np.ix_(sigma, sigma)]
        if (grown == reached).all():
            break
        reached = grown
    assert reached.all()


@pytest.mark.parametrize("p", CUT_SHAPES, ids=str)
def test_orbit_composition_counts_match_the_zip_reference(p):
    table = oracle.pair_table(p.n, p.d)
    indices = enumerate_multi_indices(p)
    for g in enumerate_graphs(p):
        x, y = (indices.index(to_multi_index(config)) for config in canonical_pair(g))
        reference = Counter(zip(table.labels[x].tolist(), table.labels[:, y].tolist()))
        assert oracle.orbit_composition_counts(g) == reference


def test_orbit_bijection_detail_counts_the_pairs_visited():
    result = check_orbit_bijection(Params(2, 5))
    assert result.passed
    assert result.detail == (
        "56 distinct pair graphs over 192 pairs (6 canonical rows), 56 enumerated, binomial 56"
    )


def _merging(lost, kept):
    """A pair_graph that gives ``kept`` wherever the true graph is ``lost``."""

    def mutant(a, b):
        g = pair_graph(a, b)
        return kept if g == lost else g

    return mutant


def _transposing(a, b):
    """A pair_graph with its two rows swapped: still a bijection on orbits."""
    return pair_graph(b, a)


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2)], ids=str)
def test_a_merged_pair_graph_fails_the_smaller_sweeps(monkeypatch, p):
    graphs = enumerate_graphs(p)
    lost, kept = graphs[7], graphs[8]
    mutant = _merging(lost, kept)
    configs = enumerate_configurations(p)
    # the full N^2 sweep caught it: the lost graph never occurs
    assert {mutant(a, b) for a in configs for b in configs} != set(graphs)
    monkeypatch.setattr(verify, "pair_graph", mutant)
    result = check_orbit_bijection(p)
    assert not result.passed
    assert json.loads(result.counterexample)["missing"] == [graph_record(lost)]
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail == f"orbit and configuration matrices differ at {lost}"


def test_a_pair_graph_outside_the_basis_is_named_unexpected(monkeypatch):
    p = Params(2, 3)
    lost = enumerate_graphs(p)[7]
    outsider = BipartiteMultigraph(((4, 0), (0, 0)))  # four balls: no graph of (2,3)
    monkeypatch.setattr(verify, "pair_graph", _merging(lost, outsider))
    result = check_orbit_bijection(p)
    assert not result.passed
    # the outsider takes the lost graph's place in the distinct count
    assert result.detail.startswith("20 distinct pair graphs over ")
    assert json.loads(result.counterexample) == {
        "missing": [graph_record(lost)],
        "unexpected": [graph_record(outsider)],
    }


def test_a_transposed_pair_graph_fails_the_smaller_grid_sweep(monkeypatch):
    p = Params(2, 3)
    table = oracle.pair_table(p.n, p.d)
    graphs = basis(p.n, p.d)
    configs = [to_configuration(index, p.n) for index in enumerate_multi_indices(p)]
    # the full sweep caught it on some cell
    assert any(
        _transposing(a, b) != graphs[label]
        for a, row in zip(configs, table.labels.tolist())
        for b, label in zip(configs, row)
    )
    monkeypatch.setattr(verify, "pair_graph", _transposing)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail.startswith("orbit and configuration matrices differ at ")
    # it keeps the set of graphs, so orbit-bijection passes at any sweep size
    assert check_orbit_bijection(p).passed


def test_t_basis_reads_every_row_of_a_grid_that_does_not_commute(monkeypatch):
    # two cells off the canonical rows swap labels: each is moved by a transposition, so its row is read
    p = Params(2, 3)
    table = oracle.pair_table(p.n, p.d)
    rows = {index_position(to_multi_index(a), p.n) for a in _canonical_rows(p)}
    r = next(r for r in range(table.size) if r not in rows)
    c1, c2 = next(
        (c1, c2)
        for c1 in range(table.size)
        for c2 in range(table.size)
        if table.labels[r, c1] != table.labels[r, c2]
    )
    broken = oracle.PairTable(table.p)
    broken.labels = table.labels.copy()
    broken.labels[r, c1], broken.labels[r, c2] = table.labels[r, c2], table.labels[r, c1]
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    graphs = enumerate_graphs(p)
    g = min(graphs[table.labels[r, c1]], graphs[table.labels[r, c2]], key=graphs.index)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail == f"orbit and configuration matrices differ at {g}"


def _grid_half_reading_every_row(p, labels):
    """The first half of t-basis as it read all N rows: the least graph of a cell whose label is not its own."""
    graphs, configs = enumerate_graphs(p), enumerate_configurations(p)
    differ = set()
    for a, row in zip(configs, labels.tolist()):
        for b, label in zip(configs, row):
            if pair_graph(a, b) != graphs[label]:
                differ.update((pair_graph(a, b), graphs[label]))
    return min(differ, key=graphs.index, default=None)


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2), Params(2, 4), Params(3, 3)], ids=str)
def test_t_basis_reports_what_a_read_of_every_row_reports(monkeypatch, p):
    table = oracle.pair_table(p.n, p.d)
    sound = check_t_basis(p)
    rng = random.Random(p.n * 10 + p.d)
    caught = 0
    for kind in DAMAGE * 3:
        broken = oracle.PairTable(table.p)
        broken.labels = damaged(table.labels, kind, rng)
        g = _grid_half_reading_every_row(p, broken.labels)
        expected = sound
        if g is not None:
            detail = f"orbit and configuration matrices differ at {g}"
            expected = verify.CheckResult("t-basis", False, detail, serialize.dumps(graph_record(g)))
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "pair_table", lambda n, d: broken)
            assert check_t_basis(p) == expected, kind
        caught += g is not None
    assert caught


def test_t_basis_reads_the_rows_of_moved_cells_not_every_row(monkeypatch):
    # two cells of row (2,1,...,1), off the canonical rows, swap labels: 11 rows of 256 are read, not 256
    p = Params(2, 8)
    table = oracle.pair_table(p.n, p.d)
    r = index_position((2,) + (1,) * 7, p.n)
    assert table.labels[r, 0] != table.labels[r, 1]
    broken = oracle.PairTable(table.p)
    broken.labels = table.labels.copy()
    broken.labels[r, 0], broken.labels[r, 1] = table.labels[r, 1], table.labels[r, 0]
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    calls = []

    def counted(a, b):
        calls.append(1)
        return pair_graph(a, b)

    monkeypatch.setattr(verify, "pair_graph", counted)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail.startswith("orbit and configuration matrices differ at ")
    assert len(calls) <= 4096


def _refused(*args, **kwargs):
    raise AssertionError("built an operator matrix")


def test_commutant_names_the_least_moved_label_of_a_grid_that_does_not_commute(monkeypatch):
    # two cells off the canonical rows swap labels: the smaller label's operator fails first
    p = Params(2, 3)
    table = oracle.pair_table(p.n, p.d)
    rows = {index_position(to_multi_index(a), p.n) for a in _canonical_rows(p)}
    r = next(r for r in range(table.size) if r not in rows)
    c1, c2 = next(
        (c1, c2)
        for c1 in range(table.size)
        for c2 in range(table.size)
        if table.labels[r, c1] != table.labels[r, c2]
    )
    broken = oracle.PairTable(table.p)
    broken.labels = table.labels.copy()
    broken.labels[r, c1], broken.labels[r, c2] = table.labels[r, c2], table.labels[r, c1]
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    monkeypatch.setattr(oracle, "operator_matrix", _refused)
    g = basis(p.n, p.d)[min(table.labels[r, c1], table.labels[r, c2])]
    result = check_commutant(p)
    assert not result.passed
    assert result.detail == f"operator of {g} does not commute with renaming"
    assert graph_from_record(json.loads(result.counterexample)) == g


def test_commutant_takes_the_least_moved_label_over_every_transposition(monkeypatch):
    # cell a is moved only by the second transposition and cell b only by the
    # first; both take the top label, so each transposition sees a different least label
    p = Params(2, 3)
    table = oracle.pair_table(p.n, p.d)
    a = (index_position((1, 1, 2), p.n), index_position((2, 2, 1), p.n))
    b = (index_position((1, 2, 2), p.n), index_position((2, 1, 1), p.n))
    broken = oracle.PairTable(table.p)
    broken.labels = table.labels.copy()
    broken.labels[a] = broken.labels[b] = graph_count(p) - 1
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    graphs = enumerate_graphs(p)
    first = next(g for g in graphs if not oracle.check_commutant(g))
    assert first == min(table.graph(*a), table.graph(*b), key=graphs.index)
    monkeypatch.setattr(oracle, "operator_matrix", _refused)
    assert check_commutant(p).detail == f"operator of {first} does not commute with renaming"


@pytest.mark.parametrize("p", [Params(2, 3), Params(3, 2), Params(2, 4), Params(3, 3)], ids=str)
def test_commutant_names_the_graph_the_basis_order_search_finds(monkeypatch, p):
    # the reference walks the basis, building each operator's matrix until one fails
    table = oracle.pair_table(p.n, p.d)
    graphs = enumerate_graphs(p)
    rng = random.Random(0)
    for _ in range(8):
        (r1, c1), (r2, c2) = (divmod(rng.randrange(table.size**2), table.size) for _ in range(2))
        broken = oracle.PairTable(table.p)
        broken.labels = table.labels.copy()
        broken.labels[r1, c1], broken.labels[r2, c2] = table.labels[r2, c2], table.labels[r1, c1]
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "pair_table", lambda n, d: broken)
            first = next((g for g in graphs if not oracle.check_commutant(g)), None)
            patched.setattr(oracle, "operator_matrix", _refused)
            result = check_commutant(p)
        assert result.passed is (first is None)
        if first is not None:
            assert result.detail == f"operator of {first} does not commute with renaming"


def test_commutant_blames_the_least_moved_label_over_every_block(monkeypatch):
    # in 3-row blocks the least moved label may sit in any block of any transposition, not only the first to move
    p = Params(2, 4)
    table = oracle.pair_table(p.n, p.d)
    graphs = enumerate_graphs(p)
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 3 * table.size * p.d)
    rng = random.Random(4)
    caught = 0
    for kind in DAMAGE * 4:
        broken = oracle.PairTable(table.p)
        broken.labels = damaged(table.labels, kind, rng)
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "pair_table", lambda n, d: broken)
            first = next((g for g in graphs if not oracle.check_commutant(g)), None)
            patched.setattr(oracle, "operator_matrix", _refused)
            result = check_commutant(p)
        assert result.passed is (first is None)
        if first is not None:
            assert result.detail == f"operator of {first} does not commute with renaming", kind
            caught += 1
    assert caught


def test_the_oracle_and_commutant_enumerate_no_graph(monkeypatch):
    # as in test_a_full_run_enumerates_the_basis_once, graphs.compositions
    # counts every enumeration of the graph set
    calls = []

    def counted(total, parts):
        calls.append((total, parts))
        return compositions(total, parts)

    monkeypatch.setattr("schurbox.graphs.compositions", counted)
    basis.cache_clear()
    oracle.pair_table.cache_clear()
    p = Params(3, 3)
    oracle.pair_table(p.n, p.d)
    g1 = BipartiteMultigraph(((1, 1, 0), (0, 0, 1), (0, 0, 0)))
    g2 = BipartiteMultigraph(((1, 0, 0), (0, 1, 0), (0, 1, 0)))
    assert oracle.multiply_basis_oracle(g1, g2) == structconst.multiply_basis_euler(g1, g2)
    assert oracle.decompose(oracle.operator_matrix(g1)) == AlgebraElement.basis(g1)
    assert check_commutant(p).passed
    assert not check_commutant(p, corrupt=True).passed
    assert calls == []
    assert basis.cache_info().currsize == 0


def _wrong_fold(monkeypatch, left, right, counts):
    """Make structconst.euler_fold give ``counts`` at (left, right) and be right elsewhere."""
    real = structconst.euler_fold

    def mutant(g1, g2):
        if (g1, g2) == (left, right):
            return counts
        return real(g1, g2)

    monkeypatch.setattr(structconst, "euler_fold", mutant)


def _identity_culprit(result):
    assert not result.passed
    return graph_from_record(json.loads(result.counterexample))


@pytest.mark.parametrize("side", ["left", "right"])
def test_identity_catches_a_wrong_diagonal_coefficient(monkeypatch, side):
    p = Params(2, 3)
    g = enumerate_graphs(p)[13]
    if side == "left":
        _wrong_fold(monkeypatch, diagonal_graph(g.bottom_valencies()), g, {g.sort_key: 2})
    else:
        _wrong_fold(monkeypatch, g, diagonal_graph(g.top_valencies()), {g.sort_key: 2})
    result = check_identity(p)
    assert result.detail == f"identity fails on the operator of {g}"
    assert _identity_culprit(result) == g


@pytest.mark.parametrize("side", ["left", "right"])
def test_identity_catches_a_nonzero_product_whose_valencies_miss(monkeypatch, side):
    # the first graph of a valency class stands for the class in the zero checks
    p = Params(3, 2)
    graphs = enumerate_graphs(p)
    valencies = (lambda g: g.bottom_valencies()) if side == "left" else (lambda g: g.top_valencies())
    classes = {}
    for g in graphs:
        classes.setdefault(valencies(g), g)
    g = list(classes.values())[3]
    other = next(content for content in classes if content != valencies(g))
    if side == "left":
        _wrong_fold(monkeypatch, diagonal_graph(other), g, {g.sort_key: 1})
    else:
        _wrong_fold(monkeypatch, g, diagonal_graph(other), {g.sort_key: 1})
    result = check_identity(p)
    assert result.detail == f"identity fails on the operator of {g}"
    assert _identity_culprit(result) == g


def test_identity_catches_a_diagonal_that_moves_another_content(monkeypatch):
    p = Params(2, 3)
    b = enumerate_configurations(p)[3]
    other = next(content for content in compositions(p.d, p.n) if content != b.content())
    real = verify.apply_basis

    def mutant(g, config):
        if (g, config) == (diagonal_graph(other), b):
            return {config}
        return real(g, config)

    monkeypatch.setattr(verify, "apply_basis", mutant)
    result = check_identity(p)
    assert not result.passed
    assert result.detail == f"identity moves the basis vector of {b}"


@pytest.mark.parametrize("damage", ["dropped", "off-diagonal", "doubled"])
def test_identity_fails_a_wrong_identity_element_without_raising(monkeypatch, damage):
    p = Params(2, 3)
    e = algebra.identity_element(p)
    diagonal = diagonal_graph((1, 2))
    # the same top valencies as the diagonal, and later in term order, so the term named
    off_diagonal = BipartiteMultigraph(((1, 1), (0, 1)))
    wrong, culprit = {
        "dropped": (e - AlgebraElement.basis(diagonal), None),
        "off-diagonal": (e + AlgebraElement.basis(off_diagonal), off_diagonal),
        "doubled": (e + AlgebraElement.basis(diagonal), diagonal),
    }[damage]
    monkeypatch.setattr(verify, "identity_element", lambda q: wrong)
    result = check_identity(p)
    if culprit is None:
        # the first graph with content (1, 2) on either side has no unit there
        culprit = next(g for g in enumerate_graphs(p) if (1, 2) in (g.bottom_valencies(), g.top_valencies()))
        assert result.detail == f"identity fails on the operator of {culprit}"
    else:
        term = f"{wrong.coefficient(culprit)}*xi{culprit}"
        assert result.detail == f"identity element is not one term of coefficient 1 per content: {term}"
    assert _identity_culprit(result) == culprit


def test_identity_builds_no_basis_product(monkeypatch):
    # identity compares the fold's raw counts and turns none of them into an element
    def refused(*args):
        raise AssertionError("identity built an element from a fold")

    monkeypatch.setattr(AlgebraElement, "_from_counts", classmethod(refused))
    assert check_identity(Params(3, 3)).passed


@pytest.mark.parametrize("p", [Params(2, 2), Params(2, 3)], ids=str)
def test_assoc_catches_a_seeded_wrong_fold(monkeypatch, p):
    # every product with the drawn graph on the left gains 1 on its first term;
    # such a fold can still associate (at (2,3) the default sample misses 3 of
    # the 20 left factors), so one seeded draw is pinned per shape
    g = random.Random(0).choice(basis(p.n, p.d))
    real = structconst.euler_fold

    def mutant(g1, g2):
        counts = real(g1, g2)
        if g1 == g and counts:
            counts = dict(counts)
            counts[next(iter(counts))] += 1
        return counts

    assert check_assoc(p).passed
    monkeypatch.setattr(structconst, "euler_fold", mutant)
    result = check_assoc(p)
    assert not result.passed
    assert result.detail.startswith("associativity fails at ")


def test_assoc_builds_no_element_and_no_basis_product(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("assoc built an element")

    monkeypatch.setattr(AlgebraElement, "__init__", refused)
    monkeypatch.setattr(AlgebraElement, "_from_terms", classmethod(refused))
    algebra.basis_product.cache_clear()
    assert check_assoc(Params(2, 3)).passed
    assert algebra.basis_product.cache_info().currsize == 0


def test_t_basis_refuses_more_than_a_million_compatible_pairs(monkeypatch):
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    pairs = sum(g1.top_valencies() == g2.bottom_valencies() for g1 in graphs for g2 in graphs)
    monkeypatch.setattr(combinatorics, "DEFAULT_ENUMERATION_CAP", pairs)
    assert check_t_basis(p).passed
    monkeypatch.setattr(combinatorics, "DEFAULT_ENUMERATION_CAP", pairs - 1)
    with pytest.raises(TooLargeError, match=f"t-basis at n=2, d=3 has {pairs} elements"):
        check_t_basis(p)


@pytest.mark.parametrize("p", [Params(2, 5), Params(3, 3), Params(3, 4), Params(4, 3), Params(2, 12)])
def test_compatible_pairs_formula_matches_the_valency_classes(p):
    classes = Counter(g.bottom_valencies() for g in basis(p.n, p.d))
    assert verify._compatible_pairs(p) == sum(size**2 for size in classes.values())


def test_t_basis_refusal_builds_no_basis(monkeypatch):
    # the 149,057,505 pairs at (5,5) are counted from the contents alone
    def refused(*args, **kwargs):
        raise AssertionError("enumerated the graph set")

    monkeypatch.setattr("schurbox.graphs.enumerate_graphs", refused)
    basis.cache_clear()
    with pytest.raises(TooLargeError) as refusal:
        run_checks(Params(5, 5), names=("t-basis",))
    assert str(refusal.value) == (
        "instance too large: the valency-compatible pairs of t-basis at n=5, d=5 "
        "has 149057505 elements (cap 1000000)"
    )
    assert basis.cache_info().currsize == 0


@pytest.fixture
def started(monkeypatch):
    """Every suite replaced by a stub that records its name when it starts."""
    names = []
    for name in CHECK_NAMES:
        monkeypatch.setattr(
            verify, "check_" + name.replace("-", "_"), lambda *args, name=name, **kwargs: names.append(name)
        )
    return names


def test_a_refused_suite_stops_the_run_before_the_first_suite(started):
    # (4,6) has 48,097,136 compatible pairs; the suites before t-basis would take minutes
    with pytest.raises(TooLargeError, match=r"t-basis at n=4, d=6 has 48097136 elements \(cap 1000000\)"):
        run_checks(Params(4, 6))
    assert started == []
    # only t-basis is refused there
    assert run_checks(Params(4, 6), names=("orbit-bijection", "identity")) == [None, None]
    assert started == ["orbit-bijection", "identity"]


# (shape, suites, refusal): one per cap that run_checks checks, in its order (graph caps, configuration set,
# oracle reach, t-basis pairs); where two caps would refuse, the first names itself
REFUSALS = [
    (Params(100, 1), ("identity",),
     "instance too large: the graph set's matrix cells at n=100, d=1 has 100000000 elements (cap 16777216)"),
    (Params(2, 20), ("commutant", "identity"),
     "instance too large: the configuration set at n=2, d=20 has 1048576 elements (cap 1000000)"),
    (Params(2, 13), ("commutant",),
     "instance too large for the dense oracle: 8192 basis vectors (cap 4096), 560 orbits (cap 131072)"),
    (Params(2, 20), ("engines", "t-basis"),
     "instance too large for the dense oracle: 1048576 basis vectors (cap 4096), 1771 orbits (cap 131072)"),
    (Params(4, 6), None,
     "instance too large: the valency-compatible pairs of t-basis at n=4, d=6 has 48097136 elements (cap 1000000)"),
]


@pytest.mark.parametrize(
    "p, names, message", REFUSALS, ids=["matrix-cells", "configurations", "reach", "reach-before-pairs", "pairs"]
)
def test_each_refusal_comes_before_any_suite_starts(started, p, names, message):
    with pytest.raises(TooLargeError) as refusal:
        run_checks(p, names)
    assert str(refusal.value) == message
    assert started == []


def test_corrupt_without_a_suite_that_takes_it_starts_no_suite(started):
    with pytest.raises(ValueError) as refusal:
        run_checks(Params(2, 2), names=("identity",), corrupt=True)
    assert str(refusal.value) == "corrupting an operator needs the commutant check, which is not selected"
    assert started == []


def test_the_sampling_suites_need_no_cap_beyond_the_graph_caps(started):
    # (2,20) is past the configuration cap and the oracle's reach
    assert run_checks(Params(2, 20), names=("engines", "assoc")) == [None, None]
    assert started == ["engines", "assoc"]


def test_each_suite_gets_the_options_it_takes(monkeypatch):
    options = {}
    for name in CHECK_NAMES:
        monkeypatch.setattr(
            verify, "check_" + name.replace("-", "_"), lambda p, name=name, **kwargs: options.setdefault(name, kwargs)
        )
    run_checks(Params(2, 2), seed=7, corrupt=True)
    assert options == {
        "orbit-bijection": {}, "commutant": {"corrupt": True}, "engines": {"seed": 7}, "assoc": {"seed": 7},
        "identity": {}, "t-basis": {},
    }


def test_the_graph_caps_bound_the_identity_below_its_own_cap():
    # every shape whose graphs fit both caps; n = 1 has one graph at any d
    for n in range(2, 65):
        d = 1
        while graph_count(Params(n, d)) <= 10**6 and graph_count(Params(n, d)) * n * n <= CELL_CAP:
            assert math.comb(n + d - 1, d) * n * n <= 2**18
            d += 1
