"""Reference helpers that only the tests read: brute-force objects the package itself never builds.

A permutation w of {1, ..., d} is its image tuple (w(1), ..., w(d)), and it
renames a multi-index by place permutation, entry s of the result being
entry w(s) of the index.  The package implements that action only on the
whole multi-index order (``oracle._transposition_indices``).

>>> act_on_index((2, 3, 1), (1, 1, 2))
(1, 2, 1)
>>> transposition(4, 3, 4)
(1, 2, 4, 3)
"""

import itertools
from collections.abc import Iterator, Sequence

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
