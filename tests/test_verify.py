"""The consistency suites behind the verify command."""

import copy
import json
import tracemalloc

import pytest

from schurbox import oracle, structconst, verify
from schurbox.combinatorics import Params, compositions
from schurbox.graphs import basis, enumerate_graphs
from schurbox.serialize import graph_from_record
from schurbox.verify import (
    CHECK_NAMES,
    check_assoc,
    check_commutant,
    check_engines,
    check_t_basis,
    run_checks,
)


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


def test_engines_check_samples_large_shapes():
    result = check_engines(Params(3, 3), seed=1)
    assert result.passed
    assert "sampled" in result.detail


def test_engines_check_exhaustive_small_shapes():
    result = check_engines(Params(2, 2))
    assert result.passed
    assert "100 pairs" in result.detail
    assert "oracle" in result.detail


def test_engines_check_leaves_out_the_oracle_beyond_its_reach(monkeypatch):
    monkeypatch.setattr(verify, "in_reach", lambda p: False)
    result = check_engines(Params(2, 2))
    assert result.passed
    assert "oracle" not in result.detail


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


def _miscount(monkeypatch, wrong):
    """Make orbit_composition_counts one too high at each (g1, g2, g) in wrong."""
    right = oracle.orbit_composition_counts

    def off_by_one(h):
        result = right(h)
        for g1, g2, g in wrong:
            if h == g:
                result[(g1, g2)] += 1
        return result

    monkeypatch.setattr(oracle, "orbit_composition_counts", off_by_one)


def _named(result):
    record = json.loads(result.counterexample)
    return tuple(graph_from_record(record[key]) for key in ("g1", "g2", "g"))


@pytest.mark.parametrize("case", ["nonzero-count", "zero-count", "incompatible-pair"])
def test_t_basis_names_the_wrong_count(monkeypatch, case):
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    g = graphs[7]
    counts = oracle.orbit_composition_counts(g)
    if case == "nonzero-count":
        g1, g2 = max(counts, key=lambda pair: (counts[pair], pair[0].sort_key, pair[1].sort_key))
    elif case == "zero-count":
        g1, g2 = next((a, b) for a in graphs for b in graphs if (a, b) not in counts)
    else:  # a pair whose valencies do not meet, so the fold never looks at it
        g1, g2 = next((a, b) for a in graphs[9:] for b in graphs if b.bottom_valencies() != a.top_valencies())
    _miscount(monkeypatch, [(g1, g2, g)])
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


@pytest.mark.parametrize("nonzero", [True, False], ids=["nonzero-coefficient", "zero-coefficient"])
def test_t_basis_names_a_wrong_euler_coefficient(monkeypatch, nonzero):
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    right = structconst.euler_fold
    g1, g2 = next((a, b) for a in graphs[5:] for b in graphs if len(right(a, b)) >= 2)
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


def test_t_basis_names_a_relabelled_cell(monkeypatch):
    # one cell of the label grid moved to another orbit: both orbits' matrices
    # now differ from their configuration matrices, and the first is named
    p = Params(2, 3)
    graphs = enumerate_graphs(p)
    table = oracle.pair_table(p.n, p.d)
    was = table.graphs[table.labels[0, 2]]
    now = next(g for g in graphs if g != was)
    broken = copy.copy(table)
    broken.labels = table.labels.copy()
    broken.labels[0, 2] = table.label_of[now]
    monkeypatch.setattr(oracle, "pair_table", lambda n, d: broken)
    g = min(was, now, key=graphs.index)
    result = check_t_basis(p)
    assert not result.passed
    assert result.detail == f"orbit and configuration matrices differ at {g}"
    assert graph_from_record(json.loads(result.counterexample)) == g


def test_t_basis_keeps_no_cube_of_coefficients():
    # 56^3 int64 expected counts at (2,5) alone would take 1.4 MB
    oracle.pair_table.cache_clear()
    tracemalloc.start()
    try:
        result = check_t_basis(Params(2, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert result.detail == "56 transported matrices, 175616 composition coefficients"
    assert peak < 2**20
