"""Cross-check suites: every consistency property the tool promises, at one shape.

Each suite returns a :class:`CheckResult`; a failure carries the first
counterexample fully serialized so it can be replayed by hand.  All suites
read the graphs of :func:`graphs.basis`, enumerated once.  The suites that
read the dense oracle (``commutant``, ``t-basis``, and ``engines`` at a
shape in its reach) import it, and numpy with it, when they run.
"""

import itertools
import random
from dataclasses import dataclass

from . import serialize, structconst
from .algebra import (
    ENGINE_NAMES,
    AlgebraElement,
    VectorElement,
    apply,
    engine_function,
    identity_element,
    multiply,
)
from .combinatorics import Params, enumerate_configurations, to_configuration
from .graphs import basis, graph_count, in_reach, pair_graph

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
    enumerated = basis(p.n, p.d).graphs
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
    from . import oracle

    graphs = basis(p.n, p.d).graphs
    table = oracle.pair_table(p.n, p.d)
    if corrupt:
        # deliberately relabel the first cell of the first orbit with two or
        # more cells, clearing it from that operator, to prove that the
        # harness notices
        sizes = table.orbit_sizes()
        g = next((g for g in graphs if sizes[table.label_of[g]] >= 2), None)
        if g is None:
            raise ValueError(f"nothing to corrupt: no orbit at n={p.n}, d={p.d} has two or more cells")
        r, c = table.first_cell(table.label_of[g])
        broken = table.labels.copy()
        broken[r, c] = -1
        if not oracle.commutes_with_renaming(oracle.DenseOperator(p.n, p.d, broken)):
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
    # one check on the label grid covers every basis operator: they partition the square
    if not oracle.commutes_with_renaming(oracle.DenseOperator(p.n, p.d, table.labels)):
        g = next(g for g in graphs if not oracle.check_commutant(g))
        return CheckResult(
            "commutant",
            False,
            f"operator of {g} does not commute with renaming",
            serialize.dumps(serialize.graph_record(g)),
        )
    return CheckResult(
        "commutant", True, f"{len(graphs)} operators x {max(p.d - 1, 0)} generators", None
    )


def _sample(p: Params, k: int, limit: int, size: int, seed: int) -> tuple[list[tuple], str]:
    """Every k-tuple of basis graphs if at most ``limit``, else ``size`` seeded draws; and a note."""
    graphs = basis(p.n, p.d).graphs
    if len(graphs) ** k <= limit:
        return list(itertools.product(graphs, repeat=k)), ""
    rng = random.Random(seed)
    draws = [tuple(rng.choice(graphs) for _ in range(k)) for _ in range(size)]
    return draws, f" (sampled {size}, seed {seed})"


def check_engines(p: Params, seed: int = 0) -> CheckResult:
    with_oracle = in_reach(p)
    pairs, sampled = _sample(p, 2, ENGINE_PAIR_LIMIT, ENGINE_SAMPLE, seed)
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
    triples, sampled = _sample(p, 3, ASSOC_TRIPLE_LIMIT, ASSOC_SAMPLE, seed)
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
    for g in basis(p.n, p.d).graphs:
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
    """The label grid against pair graphs, then Green's counts against the ``euler`` fold.

    Every cell's label must name the graph :func:`pair_graph` gives for its
    configuration pair.  Then, for every (g1, g2), the middle-index counts
    at the canonical cells must equal the fold's coefficients: on a
    valency-compatible pair the fold gives every nonzero coefficient, and on
    any other pair no count may fall.  The first mismatch in g1, g2, g order
    is reported.
    """
    from . import oracle

    layer = basis(p.n, p.d)
    graphs = layer.graphs
    table = oracle.pair_table(p.n, p.d)
    configs = [to_configuration(index, p.n) for index in table.indices]
    differ = set()
    for a, row in zip(configs, table.labels.tolist()):
        for b, label in zip(configs, row):
            g, h = pair_graph(a, b), table.graphs[label]
            if g != h:
                differ.update((g, h))
    if differ:
        g = min(differ, key=lambda g: g.sort_key)
        return CheckResult(
            "t-basis",
            False,
            f"orbit and configuration matrices differ at {g}",
            serialize.dumps(serialize.graph_record(g)),
        )
    counted = [{} for _ in graphs]  # per g1 position: {g2 position: {g position: count}}
    for k, g in enumerate(graphs):
        for (g1, g2), count in oracle.orbit_composition_counts(g).items():
            counted[layer.index_of[g1.sort_key]].setdefault(layer.index_of[g2.sort_key], {})[k] = count
    for i, g1 in enumerate(graphs):
        for j in sorted(set(layer.by_bottom.get(g1.top_valencies(), ())).union(counted[i])):
            folded = structconst.euler_fold(g1, graphs[j])  # empty on an incompatible pair
            want = {layer.index_of[key]: value for key, value in folded.items()}
            got = counted[i].get(j, {})
            wrong = [k for k in want.keys() | got.keys() if want.get(k, 0) != got.get(k, 0)]
            if wrong:
                g2, g = graphs[j], graphs[min(wrong)]
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
    if not selected:
        raise ValueError(f"no checks named; choose from {CHECK_NAMES}")
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {CHECK_NAMES}")
    if corrupt and "commutant" not in selected:
        raise ValueError("corrupting an operator needs the commutant check, which is not selected")
    suites = {
        "orbit-bijection": lambda: check_orbit_bijection(p),
        "commutant": lambda: check_commutant(p, corrupt=corrupt),
        "engines": lambda: check_engines(p, seed=seed),
        "assoc": lambda: check_assoc(p, seed=seed),
        "identity": lambda: check_identity(p),
        "t-basis": lambda: check_t_basis(p),
    }
    return [suites[name]() for name in CHECK_NAMES if name in selected]
