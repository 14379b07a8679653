"""Cross-check suites: every consistency property the tool promises, at one shape.

:data:`SUITES` names each suite in canonical order, with the options of
:func:`run_checks` it takes and the caps it needs beyond the graph caps;
the suite itself is this module's ``check_<name>`` function.  Each returns a
:class:`CheckResult`; a failure carries the first counterexample fully
serialized so it can be replayed by hand.  :func:`run_checks` raises any
size refusal of a selected suite before the first suite starts.  Every
suite but a passing ``commutant`` reads the graphs of :func:`graphs.basis`,
enumerated once.  ``engines`` folds with the roster of :func:`engine_folds`,
which ``multiply --engine all`` shares, resolved once as the suite starts.
The suites that read the dense oracle (``commutant``, ``t-basis``, and
``engines`` at a shape in its reach) import it, and numpy with it, when
they run.  ``assoc`` and ``identity`` work on the graphs and
configurations themselves, through :func:`structconst.euler_fold` (and
:func:`apply_basis` for ``identity``'s basis vectors); ``assoc`` builds no
element, and ``identity`` none but the identity it checks.  What the suites
build from valid inputs (pair graphs, enumerated configurations, the
referees' products) skips the constructors' checks, so they pay for the
arithmetic they check rather than for re-validation.
"""

import itertools
import json
import math
import random
from collections.abc import Callable

from . import serialize, structconst
from .algebra import (
    ENGINE_NAMES,
    apply_basis,
    engine_function,
    identity_element,
)
from .combinatorics import (
    Params,
    _Record,
    _check_cap,
    canonical_index,
    compositions,
    enumerate_configurations,
    index_position,
)
from .graphs import (
    basis,
    canonical_configuration,
    check_graph_caps,
    check_reach,
    graph_count,
    in_reach,
    pair_graph,
    rank,
)

# suite -> (the options of run_checks it takes, the caps of _CAPS it needs beyond the graph caps), in
# canonical order; a new suite is one entry here and its check_<name> function
SUITES = {
    "orbit-bijection": ((), ("configurations",)),
    "commutant": (("corrupt",), ("reach",)),
    "engines": (("seed",), ()),
    "assoc": (("seed",), ()),
    "identity": ((), ("configurations",)),
    "t-basis": ((), ("reach", "pairs")),
}
CHECK_NAMES = tuple(SUITES)

ENGINE_PAIR_LIMIT = 2500
ENGINE_SAMPLE = 200
ASSOC_TRIPLE_LIMIT = 1000
ASSOC_SAMPLE = 200


class CheckResult(_Record):
    """One suite's verdict."""

    __slots__ = ("name", "passed", "detail", "counterexample")

    def __init__(self, name: str, passed: bool, detail: str, counterexample: str | None = None):
        self.name, self.passed, self.detail, self.counterexample = name, passed, detail, counterexample

    def _values(self) -> tuple:
        return (self.name, self.passed, self.detail, self.counterexample)


def engine_folds(p: Params) -> dict[str, Callable]:
    """Each engine's fold by name, in roster order (counting first), oracle only in reach; read once, here."""
    return {name: engine_function(name) for name in ENGINE_NAMES if name != "oracle" or in_reach(p)}


def _counterexample(extra: dict | None = None, **graphs) -> str:
    """The named graphs' records, with any ``extra`` entries, as one serialized counterexample."""
    return serialize.dumps({**{key: serialize.graph_record(g) for key, g in graphs.items()}, **(extra or {})})


def check_orbit_bijection(p: Params) -> CheckResult:
    """The pair graphs of the canonical rows against the enumerated basis and the binomial count.

    A renaming takes any pair (a, b) to one whose first configuration is the
    canonical one of a's content, and leaves its pair graph unchanged, so
    those rows already give every pair graph.  Each marks its basis position;
    only graphs outside the basis are kept.
    """
    configs = enumerate_configurations(p)
    rows = [canonical_configuration(content) for content in compositions(p.d, p.n)]
    enumerated = basis(p.n, p.d)
    position = {g: k for k, g in enumerate(enumerated)}
    seen, extra = bytearray(len(enumerated)), set()
    for g in (pair_graph(a, b) for a in rows for b in configs):
        k = position.get(g)
        if k is None:
            extra.add(g)
        else:
            seen[k] = 1
    distinct = seen.count(1) + len(extra)
    expected = graph_count(p)
    ok = not extra and distinct == expected == len(enumerated)
    detail = (
        f"{distinct} distinct pair graphs over {len(rows) * len(configs)} pairs "
        f"({len(rows)} canonical rows), "
        f"{len(enumerated)} enumerated, binomial {expected}"
    )
    counterexample = None
    if not ok:
        missing = sorted((g for g, hit in zip(enumerated, seen) if not hit), key=lambda g: g.sort_key)
        extra = sorted(extra, key=lambda g: g.sort_key)
        counterexample = serialize.dumps(
            {
                "missing": [serialize.graph_record(g) for g in missing[:3]],
                "unexpected": [serialize.graph_record(g) for g in extra[:3]],
            }
        )
    return CheckResult("orbit-bijection", ok, detail, counterexample)


def check_commutant(p: Params, corrupt: bool = False) -> CheckResult:
    from . import oracle

    table = oracle.pair_table(p.n, p.d)
    labels = table.labels
    if corrupt:
        # relabel the first cell of label 1 as 0, a one-cell orbit, to prove that the harness notices: graph 1,
        # (0, ..., 0, 1, d - 1), is the first orbit of d >= 2 cells when n, d >= 2, and all have one cell otherwise
        if p.n < 2 or p.d < 2:
            raise ValueError(f"nothing to corrupt: no orbit at n={p.n}, d={p.d} has two or more cells")
        r, c = table.first_cell(1)
        labels = labels.copy()
        labels[r, c] = 0
    moved = oracle.moved_cells(labels, p.n, p.d)
    if corrupt:
        if next(moved, None) is None:
            return CheckResult("commutant", False, "self-test failed to detect the corruption", None)
        g = table.graph(r, c)
        detail = f"self-test: corrupted operator for {g} no longer commutes"
        return CheckResult("commutant", False, detail, _counterexample({"cleared-entry": [r, c]}, corrupted=g))
    # one pass over the grid covers every basis operator, as they partition the square; the first to fail in
    # basis order holds the least label of a cell that a transposition moves to another label
    label = min((labels[rows, columns].min() for rows, columns in moved), default=None)
    if label is not None:
        g = basis(p.n, p.d)[label]
        detail = f"operator of {g} does not commute with renaming"
        return CheckResult("commutant", False, detail, serialize.dumps(serialize.graph_record(g)))
    return CheckResult("commutant", True, f"{graph_count(p)} operators x {max(p.d - 1, 0)} generators", None)


def _sample(p: Params, k: int, limit: int, size: int, seed: int) -> tuple[list[tuple], str]:
    """Every k-tuple of basis graphs if at most ``limit``, else ``size`` seeded draws; and a note."""
    graphs = basis(p.n, p.d)
    if len(graphs) ** k <= limit:
        return list(itertools.product(graphs, repeat=k)), ""
    rng = random.Random(seed)
    draws = [tuple(rng.choice(graphs) for _ in range(k)) for _ in range(size)]
    return draws, f" (sampled {size}, seed {seed})"


def check_engines(p: Params, seed: int = 0) -> CheckResult:
    """Every engine folds each sampled pair alike; they are read as the suite starts, so patch one before it."""
    folds = engine_folds(p)
    pairs, sampled = _sample(p, 2, ENGINE_PAIR_LIMIT, ENGINE_SAMPLE, seed)
    for g1, g2 in pairs:
        outputs = {name: fold(g1, g2) for name, fold in folds.items()}
        reference = outputs["counting"]
        if any(result != reference for result in outputs.values()):
            counts = {name: json.loads(serialize.counts_json(result, p.n, p.d)) for name, result in outputs.items()}
            detail = f"engines disagree at {g1} * {g2}"
            return CheckResult("engines", False, detail, _counterexample(counts, g1=g1, g2=g2))
    return CheckResult("engines", True, f"{len(pairs)} pairs{sampled} agree across {'/'.join(folds)}", None)


def check_assoc(p: Params, seed: int = 0) -> CheckResult:
    """(g1·g2)·g3 = g1·(g2·g3) on every sampled triple, folded with :func:`structconst.euler_fold`.

    Each side is summed as raw fold counts, each intermediate term folded as
    the basis graph that :func:`graphs.rank` finds for its key, so the suite
    builds no graph, no element and no basis product.
    """
    triples, sampled = _sample(p, 3, ASSOC_TRIPLE_LIMIT, ASSOC_SAMPLE, seed)
    fold, graphs = structconst.euler_fold, basis(p.n, p.d)
    for g1, g2, g3 in triples:
        left: dict[tuple[int, ...], int] = {}
        for key, c in fold(g1, g2).items():
            for term, c3 in fold(graphs[rank(key)], g3).items():
                left[term] = left.get(term, 0) + c * c3
        right: dict[tuple[int, ...], int] = {}
        for key, c in fold(g2, g3).items():
            for term, c1 in fold(g1, graphs[rank(key)]).items():
                right[term] = right.get(term, 0) + c1 * c
        if left != right:
            detail = f"associativity fails at {g1}, {g2}, {g3}"
            return CheckResult("assoc", False, detail, _counterexample(g1=g1, g2=g2, g3=g3))
    return CheckResult("assoc", True, f"{len(triples)} triples{sampled} associate", None)


def check_identity(p: Params) -> CheckResult:
    """The identity element fixes every basis operator from both sides, and every basis vector.

    The unit is one diagonal graph per content with coefficient 1 (Green,
    *Polynomial Representations of GL_n*, §2.3), so any other term of the
    identity element fails the suite.  A product h·g is zero unless the top
    valencies of h equal the bottom valencies of g, so each g is folded with
    :func:`structconst.euler_fold` against the diagonal of its bottom content
    on the left and of its top content on the right, and each fold must give
    g alone, once.  Every other diagonal must fold to nothing, which is
    checked once per valency class, on the first graph of the class in basis
    order; likewise each basis vector through :func:`apply_basis`, grouped by
    content.
    """
    diagonal = {}  # content -> the identity element's term with those top valencies
    for h, c in identity_element(p).items():
        if c != 1 or h.top_valencies() in diagonal:
            detail = f"identity element is not one term of coefficient 1 per content: {c}*xi{h}"
            return CheckResult("identity", False, detail, serialize.dumps(serialize.graph_record(h)))
        diagonal[h.top_valencies()] = h
    fold = structconst.euler_fold
    seen_bottom, seen_top = set(), set()
    for g in basis(p.n, p.d):
        bottom, top = g.bottom_valencies(), g.top_valencies()
        ok = bottom in diagonal and top in diagonal
        ok = ok and fold(diagonal[bottom], g) == {g.sort_key: 1} == fold(g, diagonal[top])
        if ok and bottom not in seen_bottom:
            seen_bottom.add(bottom)
            ok = not any(fold(h, g) for key, h in diagonal.items() if key != bottom)
        if ok and top not in seen_top:
            seen_top.add(top)
            ok = not any(fold(g, h) for key, h in diagonal.items() if key != top)
        if not ok:
            detail = f"identity fails on the operator of {g}"
            return CheckResult("identity", False, detail, serialize.dumps(serialize.graph_record(g)))
    seen = set()
    for b in enumerate_configurations(p):
        content = b.content()
        ok = content in diagonal and apply_basis(diagonal[content], b) == {b}
        if ok and content not in seen:
            seen.add(content)
            ok = not any(apply_basis(h, b) for key, h in diagonal.items() if key != content)
        if not ok:
            return CheckResult(
                "identity", False, f"identity moves the basis vector of {b}", serialize.dumps(b.word())
            )
    return CheckResult("identity", True, "two-sided unit on all operators and basis vectors", None)


def check_t_basis(p: Params) -> CheckResult:
    """The label grid against pair graphs, then Green's counts against ``table``'s products.

    Every cell's label must name the graph :func:`pair_graph` gives for its
    configuration pair.  That is read on the canonical rows and on the rows
    holding a cell :func:`oracle.moved_cells` yields, which find every
    (graph, label) pair that all N rows do.  Then, for every (g1, g2), the
    middle-index counts at the canonical cells must equal the coefficients in
    row g1 of :func:`structconst.product_rows`, {g2: (term indices,
    coefficients)}, one fold per orbit: on a valency-compatible pair they give
    every nonzero coefficient, and on any other pair no count may fall.  Each
    g1 holds the oracle's counts as two ``array("q")``: keys g2·G + g by basis
    index, below G² <= 2^34 for G graphs under ``ORBIT_CAP``, and counts.  A
    row matches when its sorted (key, coefficient) list is theirs; the least
    key where they differ, the first mismatch in g1, g2, g order, is named.
    """
    _check_t_basis_size(p)
    from array import array

    from . import oracle

    graphs = basis(p.n, p.d)
    table = oracle.pair_table(p.n, p.d)
    configs = enumerate_configurations(p)  # in multi-index order, the grid's
    # every orbit meets a canonical row, where one wrong label shows; each label of a split orbit sits on a moved cell
    rows = {index_position(canonical_index(content), p.n) for content in compositions(p.d, p.n)}
    for moved, _ in oracle.moved_cells(table.labels, p.n, p.d):
        rows.update(moved.tolist())
    differ = set()
    for r in rows:
        a = configs[r]
        for b, label in zip(configs, table.labels[r].tolist()):
            g, h = pair_graph(a, b), graphs[label]
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
    size = len(graphs)
    keys = [array("q") for _ in graphs]  # per g1 position: g2 position · size + g position
    counts = [array("q") for _ in graphs]  # the oracle's count at each of those keys
    for k, g in enumerate(graphs):
        for (i, j), count in oracle.orbit_composition_counts(g).items():
            keys[i].append(j * size + k)
            counts[i].append(count)
    for i, (g1, row) in enumerate(zip(graphs, structconst.product_rows(p.n, p.d))):
        want = sorted((j * size + k, c) for j, (terms, coeffs) in row.items() for k, c in zip(terms, coeffs))
        got = sorted(zip(keys[i], counts[i]))
        if want != got:
            j, k = divmod(min(set(want).symmetric_difference(got))[0], size)
            g2, g = graphs[j], graphs[k]
            detail = f"composition count mismatch at {g1} * {g2} -> {g}"
            return CheckResult("t-basis", False, detail, _counterexample(g1=g1, g2=g2, g=g))
    return CheckResult("t-basis", True, f"{size} transported matrices, {size ** 3} composition coefficients", None)


def _compatible_pairs(p: Params) -> int:
    """The valency-compatible pairs (g1, g2), top of g1 = bottom of g2, counted without the basis.

    That is Σ_v |bottom = v| · |top = v| over the contents v; transposing
    swaps the two sides, so each term is |bottom = v|².  The graphs with
    bottom valencies v are the matrices whose row i sums to v_i, Π_i C(v_i +
    n - 1, n - 1) of them.
    """
    return sum(
        math.prod(math.comb(v + p.n - 1, p.n - 1) for v in content) ** 2
        for content in compositions(p.d, p.n)
    )


def _check_t_basis_size(p: Params) -> None:
    """Refuse a ``t-basis`` that would walk more than 10^6 valency-compatible pairs."""
    check_graph_caps(p)  # bounds the contents summed over
    _check_cap(_compatible_pairs(p), None, f"the valency-compatible pairs of t-basis at n={p.n}, d={p.d}")


# the caps a suite may need beyond the graph caps, in the order they are checked.  Within the graph caps
# the identity element has at most 2^18 matrix entries, so its own cap of 10^6 never binds
_CAPS = {
    "configurations": lambda p: _check_cap(p.index_count, None, f"the configuration set at n={p.n}, d={p.d}"),
    "reach": check_reach,
    "pairs": _check_t_basis_size,
}


def run_checks(p: Params, names=None, seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    """Run the named suites (all of them by default) in canonical order, once every cap they need holds."""
    selected = CHECK_NAMES if names is None else tuple(names)
    if not selected:
        raise ValueError(f"no checks named; choose from {CHECK_NAMES}")
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {CHECK_NAMES}")
    if corrupt and not any("corrupt" in SUITES[name][0] for name in selected):
        raise ValueError("corrupting an operator needs the commutant check, which is not selected")
    check_graph_caps(p)
    needed = {cap for name in selected for cap in SUITES[name][1]}
    for cap, check in _CAPS.items():
        if cap in needed:
            check(p)
    options = {"seed": seed, "corrupt": corrupt}
    # each check_<name> is read from the module when it runs, so a patched one is the one called
    return [
        globals()["check_" + name.replace("-", "_")](p, **{key: options[key] for key in SUITES[name][0]})
        for name in CHECK_NAMES if name in selected
    ]
