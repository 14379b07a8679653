"""Acceptance gate: the contract checks the package promises, each timed.

Every test prints one ``ACCEPTANCE NN PASS`` line on success so the run log
doubles as a report.  The numbered criteria, tolerances, and time budgets
are fixed; nothing here is sampled except where a criterion says so.
"""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter

from schurbox.algebra import AlgebraElement, VectorElement, apply, identity_element, multiply
from schurbox.combinatorics import (
    Configuration,
    Params,
    enumerate_configurations,
    enumerate_multi_indices,
    to_configuration,
    to_multi_index,
)
from schurbox.graphs import (
    BipartiteMultigraph,
    canonical_pair,
    enumerate_graphs,
    graph_count,
    pair_graph,
)
from schurbox.oracle import (
    check_commutant,
    multiply_basis_oracle,
    operator_matrix,
    orbit_composition_count,
)
from schurbox.structconst import (
    enumerate_word_matrices,
    multiply_basis_counting,
    multiply_basis_euler,
    multiply_basis_mendez,
)

G1 = BipartiteMultigraph(((2, 1), (0, 1)))
G2 = BipartiteMultigraph(((2, 0), (1, 1)))
G3 = BipartiteMultigraph(((3, 0), (0, 1)))
G4 = BipartiteMultigraph(((2, 1), (1, 0)))

ENGINES = (
    ("counting", multiply_basis_counting),
    ("euler", multiply_basis_euler),
    ("mendez", multiply_basis_mendez),
    ("oracle", multiply_basis_oracle),
)


def report(number, budget, started, text):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s < {budget}s) {text}")


def test_01_worked_product_identity():
    started = time.monotonic()
    expected = AlgebraElement(2, 4, [(G3, 3), (G4, 1)])
    for name, engine in ENGINES:
        assert engine(G1, G2) == expected, name
    report(1, 1, started, "all four engines give 3*xi[[3,0],[0,1]] + xi[[2,1],[1,0]]")


def test_02_worked_action_identity():
    started = time.monotonic()
    x = AlgebraElement.basis(G1)
    out = apply(x, VectorElement.basis(Configuration.from_word("|12|34|")))
    expected = VectorElement(2, 4, [
        (Configuration.from_word("|123|4|"), 1),
        (Configuration.from_word("|124|3|"), 1),
    ])
    assert out == expected
    zero = apply(x, VectorElement.basis(Configuration.from_word("|123|4|")))
    assert zero.is_zero
    report(2, 1, started, "xi e_|12|34| = e_|123|4| + e_|124|3|, zero on content mismatch")


def test_03_word_matrix_count():
    started = time.monotonic()
    wms = list(enumerate_word_matrices(G1, G2))
    by_graph = Counter(wm.graph() for wm in wms)
    assert by_graph == Counter({G3: 3, G4: 1})
    to_g3 = [wm for wm in wms if wm.graph() == G3]
    # all three agree outside entry (1,1); inside it, only the (b,b) slot moves
    assert len({wm.entries[0][1:] for wm in to_g3}) == 1
    assert len({wm.entries[1] for wm in to_g3}) == 1
    positions = sorted(wm.entries[0][0].index(((1, 2), (2, 1))) for wm in to_g3)
    assert positions == [0, 1, 2]
    report(3, 1, started, "3 word matrices to [[3,0],[0,1]] differing in the (b,b) slot, 1 to [[2,1],[1,0]]")


def test_04_engine_equivalence_sweep():
    started = time.monotonic()
    totals = {}
    for n, d in ((2, 2), (2, 3), (3, 2)):
        graphs = enumerate_graphs(Params(n, d))
        pairs = list(itertools.product(graphs, repeat=2))
        for g1, g2 in pairs:
            reference = multiply_basis_oracle(g1, g2)
            assert multiply_basis_counting(g1, g2) == reference
            assert multiply_basis_euler(g1, g2) == reference
            assert multiply_basis_mendez(g1, g2) == reference
        totals[(n, d)] = len(pairs)
    assert totals == {(2, 2): 100, (2, 3): 400, (3, 2): 2025}
    report(4, 300, started, "counting = euler = mendez = oracle on 2525 ordered pairs")


def test_05_commutant_property():
    started = time.monotonic()
    checked = 0
    for n, d in ((2, 2), (2, 3), (2, 4), (3, 2)):
        for g in enumerate_graphs(Params(n, d)):
            assert check_commutant(g)
            checked += 1
    report(5, 60, started, f"{checked} basis matrices commute with all adjacent transpositions")


def test_06_dimension_counts():
    started = time.monotonic()
    expected = {(1, 5): 1, (2, 2): 10, (2, 3): 20, (2, 4): 35, (3, 2): 45, (3, 3): 165}
    for (n, d), count in expected.items():
        p = Params(n, d)
        assert len(enumerate_graphs(p)) == count
        assert graph_count(p) == count
    report(6, 10, started, "enumerated basis sizes match the binomial at six shapes")


def test_07_pair_graph_bijection():
    started = time.monotonic()
    for n, d in ((2, 2), (2, 3), (3, 2)):
        p = Params(n, d)
        configs = enumerate_configurations(p)
        values = {pair_graph(a, b) for a in configs for b in configs}
        assert len(values) == graph_count(p)
        assert values == set(enumerate_graphs(p))
    report(7, 60, started, "distinct pair-graph values = basis size at three shapes")


def test_08_orbit_sum_basis_consistency():
    started = time.monotonic()
    p = Params(2, 2)
    graphs = enumerate_graphs(p)
    indices = enumerate_multi_indices(p)
    configs = [to_configuration(index, p.n) for index in indices]
    for g in graphs:
        expected = [[int(pair_graph(a, b) == g) for b in configs] for a in configs]
        assert operator_matrix(g).matrix.tolist() == expected
    for g1, g2 in itertools.product(graphs, repeat=2):
        product = operator_matrix(g1) @ operator_matrix(g2)
        for g in graphs:
            a, c = canonical_pair(g)
            x = indices.index(to_multi_index(a))
            y = indices.index(to_multi_index(c))
            assert orbit_composition_count(g1, g2, g) == product.matrix[x, y]
    report(8, 60, started, "orbit-sum matrices and middle-index counts match matrix products")


def test_09_algebra_laws():
    started = time.monotonic()
    graphs22 = enumerate_graphs(Params(2, 2))
    for g1, g2, g3 in itertools.product(graphs22, repeat=3):
        x, y, z = (AlgebraElement.basis(g) for g in (g1, g2, g3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    graphs23 = enumerate_graphs(Params(2, 3))
    rng = random.Random(0)
    for _ in range(200):
        x, y, z = (AlgebraElement.basis(rng.choice(graphs23)) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    for p in (Params(2, 2), Params(2, 3)):
        e = identity_element(p)
        for g in enumerate_graphs(p):
            x = AlgebraElement.basis(g)
            assert multiply(e, x) == x
            assert multiply(x, e) == x
    report(9, 120, started, "1000 + 200 associativity triples and two-sided identity")


def test_10_table_determinism(tmp_path):
    started = time.monotonic()
    outputs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"table-{jobs}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "schurbox.cli", "table", "-n", "2", "-d", "3",
             "--out", str(path), "--jobs", jobs],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 400
    report(10, 60, started, "byte-identical 400-line table at jobs=1 and jobs=2")
