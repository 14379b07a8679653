"""Reference helpers that only the tests read: brute-force objects and sweeps the package itself never runs.

A permutation w of {1, ..., d} is its image tuple (w(1), ..., w(d)), and it
renames a multi-index by place permutation, entry s of the result being
entry w(s) of the index.  The package implements that action only on the
whole multi-index order (``oracle._transposition_indices``).  :func:`damaged`
breaks a label grid in the ways the grid-reading checks are tested against.

>>> act_on_index((2, 3, 1), (1, 1, 2))
(1, 2, 1)
>>> transposition(4, 3, 4)
(1, 2, 4, 3)
"""

import itertools
import random
from collections.abc import Iterator, Sequence
from operator import add, itemgetter, le

import numpy as np

from schurbox.algebra import AlgebraElement
from schurbox.combinatorics import column_arrangements
from schurbox.graphs import BipartiteMultigraph, _check_same_shape

Permutation = tuple[int, ...]


def all_permutations(d: int) -> Iterator[Permutation]:
    """All d! permutations of {1, ..., d}, as image tuples in lexicographic order."""
    return itertools.permutations(range(1, d + 1))


def transposition(d: int, s: int, t: int) -> Permutation:
    """The permutation of {1, ..., d} that swaps s and t."""
    images = list(range(1, d + 1))
    images[s - 1], images[t - 1] = t, s
    return tuple(images)


def act_on_index(w: Permutation, index: Sequence[int]) -> tuple[int, ...]:
    """Place permutation: entry s of the result is entry w(s) of ``index``.

    Acting on another permutation's images composes them:
    ``act_on_index(act_on_index(w1, w2), i) == act_on_index(w1, act_on_index(w2, i))``.
    """
    if len(w) != len(index):
        raise ValueError(f"degree mismatch: permutation of 1..{len(w)} cannot act on a length-{len(index)} index")
    return tuple(index[image - 1] for image in w)


DAMAGE = ("swapped-cells", "relabelled-cells", "relabelled-orbit", "copied-row", "transposed-cells")


def damaged(labels: np.ndarray, kind: str, rng: random.Random) -> np.ndarray:
    """A writable copy of a label grid with one seeded damage of ``kind``, one of :data:`DAMAGE`.

    Cells are drawn anywhere in the grid, and a relabelled orbit takes
    another label the grid holds, so some damage leaves the grid as it was.
    """
    broken, size = labels.copy(), len(labels)
    cells = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(2, 3))]
    if kind == "swapped-cells":
        a, b = cells[:2]
        broken[a], broken[b] = labels[b], labels[a]
    elif kind == "relabelled-cells":
        for cell in cells:
            broken[cell] = rng.randrange(int(labels.max()) + 1)
    elif kind == "relabelled-orbit":
        broken[labels == rng.randrange(int(labels.max()) + 1)] = rng.randrange(int(labels.max()) + 1)
    elif kind == "copied-row":
        broken[rng.randrange(size)] = labels[rng.randrange(size)]
    elif kind == "transposed-cells":
        for r, c in cells:
            broken[r, c] = labels[c, r]
    else:
        raise ValueError(f"unknown damage {kind!r}; choose from {DAMAGE}")
    return broken


def counting_sweep(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """Product of basis operators by sweeping every three-row diagram over one canonical top row.

    The test reference for ``structconst.canonical_diagrams``, which visits
    only the canonical diagrams that this sweep keeps.

    Rows are multi-indices, boxes numbered from 0 here.  The top row c is
    the sorted multi-index of g2's top valencies, since the canonical
    configuration numbers the balls box by box.  The middles b are the
    :func:`combinatorics.column_arrangements` of column j of g2 over the
    balls of c's box j, as :func:`algebra.apply_basis` walks them; the
    bottoms a are those of column v of g1 over the balls that b puts in box
    v.  All pairs (a, b) are visited, and the composed graph counts the
    cells (a_s, c_s).  A term counts only at its graph's canonical bottom
    row, where a's boxes never decrease within a box of c (the rule of
    :func:`canonical_pair`); the sweep always visits that row.  (The middle
    count is the same at every bottom row with the right graph, so reading
    one row is enough; that independence is exercised separately by the
    tests.)  Ball s is keyed c_s·n + a_s, so a row is canonical exactly when
    its keys never decrease, and its keys name its graph.
    """
    _check_same_shape(g1, g2)
    n, d = g1.n, g1.d
    if g2.bottom_valencies() != g1.top_valencies():
        return AlgebraElement.zero(n, d)
    # whatever b is, the balls it puts in box v are, in ball order, g2[v][0] balls
    # of c's box 0, then g2[v][1] of box 1, and so on: column v of g1 is keyed once
    keyed = []
    for row, column in zip(g2.matrix, zip(*g1.matrix)):
        offsets = [j * n for j, k in enumerate(row) for _ in range(k)]
        keyed.append([tuple(map(add, offsets, boxes)) for boxes in column_arrangements(column)])
    counts: dict[tuple[int, ...], int] = {}
    for middle in itertools.product(*map(column_arrangements, zip(*g2.matrix))):
        b = sum(middle, ())
        # a choice of bottoms lists the keys ball by ball through b's boxes in turn
        order = sorted(range(d), key=b.__getitem__)
        # back to ball order; itemgetter of one index returns the item, not a 1-tuple
        by_ball = itemgetter(*sorted(range(d), key=order.__getitem__)) if d > 1 else tuple
        for choice in itertools.product(*keyed):
            keys = by_ball(sum(choice, ()))
            if all(map(le, keys, keys[1:])):
                counts[keys] = counts.get(keys, 0) + 1
    # distinct keys name distinct valid graphs, so neither they nor the element are re-validated
    terms = {}
    for keys, count in counts.items():
        rows = [[0] * n for _ in range(n)]
        for key in keys:
            rows[key % n][key // n] += 1
        terms[BipartiteMultigraph._trusted(tuple(map(tuple, rows)), n, d)] = count
    return AlgebraElement._from_terms(n, d, terms)
