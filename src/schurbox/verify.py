"""Cross-check suites: every consistency property the tool promises, at one shape.

Each suite returns a :class:`CheckResult`; a failure carries the first
counterexample fully serialized so it can be replayed by hand.
"""

import itertools
import random
from dataclasses import dataclass

from . import oracle, serialize
from .algebra import (
    ENGINE_NAMES,
    AlgebraElement,
    VectorElement,
    apply,
    engine_function,
    identity_element,
    multiply,
)
from .combinatorics import Params, enumerate_configurations
from .graphs import enumerate_graphs, graph_count, pair_graph
from .oracle import ORACLE_CAP

CHECK_NAMES = ("orbit-bijection", "commutant", "engines", "assoc", "identity", "t-basis")

ENGINE_PAIR_LIMIT = 2500
ENGINE_SAMPLE = 200
ASSOC_TRIPLE_LIMIT = 1000
ASSOC_SAMPLE = 200


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None


def engine_outputs(g1, g2, with_oracle: bool) -> dict[str, AlgebraElement]:
    """One basis product from every engine, keyed by engine name in roster order (counting first)."""
    return {
        name: engine_function(name)(g1, g2)
        for name in ENGINE_NAMES
        if with_oracle or name != "oracle"
    }


def check_orbit_bijection(p: Params) -> CheckResult:
    configs = enumerate_configurations(p)
    distinct = {pair_graph(a, b) for a in configs for b in configs}
    enumerated = enumerate_graphs(p)
    expected = graph_count(p)
    ok = len(distinct) == expected == len(enumerated) and distinct == set(enumerated)
    detail = (
        f"{len(distinct)} distinct pair graphs over {len(configs) ** 2} pairs, "
        f"{len(enumerated)} enumerated, binomial {expected}"
    )
    counterexample = None
    if not ok:
        missing = sorted(set(enumerated) - distinct, key=lambda g: g.sort_key)
        extra = sorted(distinct - set(enumerated), key=lambda g: g.sort_key)
        counterexample = serialize.dumps(
            {
                "missing": [serialize.graph_record(g) for g in missing[:3]],
                "unexpected": [serialize.graph_record(g) for g in extra[:3]],
            }
        )
    return CheckResult("orbit-bijection", ok, detail, counterexample)


def check_commutant(p: Params, corrupt: bool = False) -> CheckResult:
    graphs = enumerate_graphs(p)
    if corrupt:
        # deliberately break one operator on a non-singleton orbit to prove
        # that the harness notices
        table = oracle.pair_table(p.n, p.d)
        g = next(g for g in graphs if len(table.positions[g]) >= 2)
        broken = oracle.operator_matrix(g)
        r, c = table.positions[g][0]
        broken.matrix[r, c] = 0
        if not oracle.commutes_with_renaming(broken):
            counterexample = serialize.dumps(
                {"corrupted": serialize.graph_record(g), "cleared-entry": [r, c]}
            )
            return CheckResult(
                "commutant",
                False,
                f"self-test: corrupted operator for {g} no longer commutes",
                counterexample,
            )
        return CheckResult("commutant", False, "self-test failed to detect the corruption", None)
    for g in graphs:
        if not oracle.check_commutant(g):
            return CheckResult(
                "commutant",
                False,
                f"operator of {g} does not commute with renaming",
                serialize.dumps(serialize.graph_record(g)),
            )
    return CheckResult(
        "commutant", True, f"{len(graphs)} operators x {max(p.d - 1, 0)} generators", None
    )


def check_engines(p: Params, seed: int = 0) -> CheckResult:
    graphs = enumerate_graphs(p)
    with_oracle = p.index_count <= ORACLE_CAP
    sampled = ""
    if len(graphs) ** 2 > ENGINE_PAIR_LIMIT:
        rng = random.Random(seed)
        pairs = [
            (rng.choice(graphs), rng.choice(graphs)) for _ in range(ENGINE_SAMPLE)
        ]
        sampled = f" (sampled {ENGINE_SAMPLE}, seed {seed})"
    else:
        pairs = list(itertools.product(graphs, graphs))
    for g1, g2 in pairs:
        outputs = engine_outputs(g1, g2, with_oracle)
        reference = outputs["counting"]
        if any(result != reference for result in outputs.values()):
            counterexample = serialize.dumps(
                {
                    "g1": serialize.graph_record(g1),
                    "g2": serialize.graph_record(g2),
                    **{name: serialize.element_records(result) for name, result in outputs.items()},
                }
            )
            return CheckResult("engines", False, f"engines disagree at {g1} * {g2}", counterexample)
    engines = "counting/euler/mendez" + ("/oracle" if with_oracle else "")
    return CheckResult("engines", True, f"{len(pairs)} pairs{sampled} agree across {engines}", None)


def check_assoc(p: Params, seed: int = 0) -> CheckResult:
    graphs = enumerate_graphs(p)
    sampled = ""
    if len(graphs) ** 3 > ASSOC_TRIPLE_LIMIT:
        rng = random.Random(seed)
        triples = [
            (rng.choice(graphs), rng.choice(graphs), rng.choice(graphs))
            for _ in range(ASSOC_SAMPLE)
        ]
        sampled = f" (sampled {ASSOC_SAMPLE}, seed {seed})"
    else:
        triples = list(itertools.product(graphs, graphs, graphs))
    for g1, g2, g3 in triples:
        x, y, z = (AlgebraElement.basis(g) for g in (g1, g2, g3))
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            counterexample = serialize.dumps(
                {
                    "g1": serialize.graph_record(g1),
                    "g2": serialize.graph_record(g2),
                    "g3": serialize.graph_record(g3),
                }
            )
            return CheckResult("assoc", False, f"associativity fails at {g1}, {g2}, {g3}", counterexample)
    return CheckResult("assoc", True, f"{len(triples)} triples{sampled} associate", None)


def check_identity(p: Params) -> CheckResult:
    e = identity_element(p)
    for g in enumerate_graphs(p):
        x = AlgebraElement.basis(g)
        if multiply(e, x) != x or multiply(x, e) != x:
            return CheckResult(
                "identity",
                False,
                f"identity fails on the operator of {g}",
                serialize.dumps(serialize.graph_record(g)),
            )
    for b in enumerate_configurations(p):
        v = VectorElement.basis(b)
        if apply(e, v) != v:
            return CheckResult(
                "identity", False, f"identity moves the basis vector of {b}", serialize.dumps(b.word())
            )
    return CheckResult("identity", True, "two-sided unit on all operators and basis vectors", None)


def check_t_basis(p: Params) -> CheckResult:
    graphs = enumerate_graphs(p)
    for g in graphs:
        if oracle.orbit_operator_matrix(g) != oracle.operator_matrix(g):
            return CheckResult(
                "t-basis",
                False,
                f"orbit and configuration matrices differ at {g}",
                serialize.dumps(serialize.graph_record(g)),
            )
    mismatch = oracle.first_composition_mismatch(graphs)
    if mismatch is not None:
        g1, g2, g = mismatch
        counterexample = serialize.dumps(
            {
                "g1": serialize.graph_record(g1),
                "g2": serialize.graph_record(g2),
                "g": serialize.graph_record(g),
            }
        )
        return CheckResult(
            "t-basis", False, f"composition count mismatch at {g1} * {g2} -> {g}", counterexample
        )
    return CheckResult(
        "t-basis",
        True,
        f"{len(graphs)} transported matrices, {len(graphs) ** 3} composition coefficients",
        None,
    )


def run_checks(
    p: Params, names=None, seed: int = 0, corrupt: bool = False
) -> list[CheckResult]:
    """Run the named suites (all of them by default), in canonical order."""
    selected = CHECK_NAMES if names is None else tuple(names)
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {CHECK_NAMES}")
    results = []
    for name in CHECK_NAMES:
        if name not in selected:
            continue
        if name == "orbit-bijection":
            results.append(check_orbit_bijection(p))
        elif name == "commutant":
            results.append(check_commutant(p, corrupt=corrupt))
        elif name == "engines":
            results.append(check_engines(p, seed=seed))
        elif name == "assoc":
            results.append(check_assoc(p, seed=seed))
        elif name == "identity":
            results.append(check_identity(p))
        elif name == "t-basis":
            results.append(check_t_basis(p))
    return results
