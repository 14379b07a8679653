"""The consistency suites behind the verify command."""

import json
import tracemalloc

import pytest

from schurbox.combinatorics import Params
from schurbox.serialize import graph_from_record
from schurbox.verify import (
    CHECK_NAMES,
    check_assoc,
    check_commutant,
    check_engines,
    run_checks,
)


def test_full_suite_passes_at_desk_scale():
    results = run_checks(Params(2, 2))
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)
    assert all(r.counterexample is None for r in results)


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
