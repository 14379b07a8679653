"""Reference helpers that only the tests read: brute-force objects the package itself never builds."""

import itertools
from collections.abc import Iterator

from schurbox.combinatorics import Permutation


def all_permutations(d: int) -> Iterator[Permutation]:
    """All d! permutations of {1, ..., d}, ordered by image tuple."""
    for images in itertools.permutations(range(1, d + 1)):
        yield Permutation(images)
