"""Multi-indices, balls-in-boxes configurations, and the arrangements of a graph's columns.

A multi-index of degree d over n boxes is a tuple (i_1, ..., i_d) with every
entry between 1 and n.  Putting ball s into box i_s identifies multi-indices
with configurations of d labelled balls in n labelled boxes, and the two
views are used interchangeably throughout: :func:`to_configuration` and
:func:`to_multi_index` are mutually inverse.

A configuration is written as a word with n+1 ``|`` separators: the word
begins and ends with ``|``, the balls between consecutive separators are the
contents of one box, and within a box the ball labels increase.  With two
boxes and four balls, ``|123|4|`` puts balls 1, 2, 3 in box 1 and ball 4 in
box 2.  Ball labels above 9 do not fit the one-character-per-ball style, so
for ten or more balls the labels inside a box are comma-separated instead,
and a box holding one ball is just its label, as in ``|1,2,3,4,5,6,7,8,9|10|``.
The parser reads a word in comma style when it contains a comma or ten or
more digits, which no word of nine balls has, and one character per ball
otherwise.

The symmetric group of degree d acts on multi-indices by place permutation,

    w . (i_1, ..., i_d)  =  (i_w(1), ..., i_w(d)),

equivalently on configurations by renaming the balls; the identification
above intertwines the two actions.  ``oracle._transposition_indices``
implements the action for the package, one adjacent transposition at a time.

:func:`canonical_index` is the paper's canonical c: the multi-index of a
content with its balls numbered box by box, from the first box.  Each
renaming orbit of configurations, one per content, holds exactly one (Green,
*Polynomial Representations of GL_n*, §2.3), and every module takes c from it.

:func:`column_arrangements` lists the ways a basis operator sends the balls
of box j down column j of its graph; ``algebra.apply_basis`` and the
``structconst`` engines walk their product over the columns.

>>> to_configuration((1, 1, 1, 2), n=2).word()
'|123|4|'
"""

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

DEFAULT_ENUMERATION_CAP = 10**6

MultiIndex = tuple[int, ...]


class TooLargeError(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


class ConfigurationError(ValueError):
    """A configuration word or box family violates the format rules."""


def _check_cap(size: int, cap: int | None, what: str) -> None:
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if size > limit:
        raise TooLargeError(f"instance too large: {what} has {size} elements (cap {limit})")


@dataclass(frozen=True)
class Params:
    """Shape of an instance: ``n`` boxes and ``d`` balls, both at least 1."""

    n: int
    d: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"number of boxes must be a positive integer, got {self.n!r}")
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"number of balls must be a positive integer, got {self.d!r}")

    @property
    def index_count(self) -> int:
        """Number of multi-indices of this shape, n**d."""
        return self.n**self.d


def enumerate_multi_indices(p: Params) -> list[MultiIndex]:
    """All multi-indices of shape ``p`` in lexicographic order.

    This order is the canonical basis order for everything downstream.
    """
    _check_cap(p.index_count, None, f"the multi-index set at n={p.n}, d={p.d}")
    return list(itertools.product(range(1, p.n + 1), repeat=p.d))


def index_position(index: Sequence[int], n: int) -> int:
    """The position of ``index`` in :func:`enumerate_multi_indices` order: Σ (x_k - 1)·n^(d-k)."""
    return sum((box - 1) * n**k for k, box in enumerate(reversed(index)))


def canonical_index(content: Sequence[int]) -> MultiIndex:
    """The multi-index of ``content`` with balls numbered box by box: box j holds the next content[j-1]."""
    return tuple(box for box, k in enumerate(content, start=1) for _ in range(k))


@dataclass(frozen=True)
class Configuration:
    """Balls 1..d distributed over boxes 1..n; each box lists its balls increasingly."""

    boxes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        boxes = tuple(tuple(box) for box in self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ConfigurationError("a configuration needs at least one box")
        seen: set[int] = set()
        for box in boxes:
            for ball in box:
                if not isinstance(ball, int) or ball < 1:
                    raise ConfigurationError(f"ball labels must be positive integers, got {ball!r}")
                if ball in seen:
                    raise ConfigurationError(f"ball {ball} appears more than once")
                seen.add(ball)
            if any(box[k] >= box[k + 1] for k in range(len(box) - 1)):
                raise ConfigurationError(f"balls within a box must be listed in increasing order: {box!r}")
        missing = set(range(1, len(seen) + 1)) - seen
        if missing:
            raise ConfigurationError(f"ball {min(missing)} is missing (labels must be exactly 1..d)")

    @classmethod
    def _trusted(cls, boxes: tuple[tuple[int, ...], ...]) -> "Configuration":
        """A configuration taken as valid, without the checks of the public constructor.

        The caller guarantees that ``boxes`` is a nonempty tuple of tuples
        holding each of the balls 1..d once, increasing within each box, as
        the boxes of a valid multi-index are.
        """
        config = object.__new__(cls)
        object.__setattr__(config, "boxes", boxes)
        return config

    @property
    def n(self) -> int:
        return len(self.boxes)

    @property
    def d(self) -> int:
        return sum(len(box) for box in self.boxes)

    def content(self) -> tuple[int, ...]:
        """Number of balls in each box; invariant under ball renaming."""
        return tuple(len(box) for box in self.boxes)

    def word(self) -> str:
        if self.d <= 9:
            chunks = ["".join(str(ball) for ball in box) for box in self.boxes]
        else:
            chunks = [",".join(str(ball) for ball in box) for box in self.boxes]
        return "|" + "|".join(chunks) + "|"

    @classmethod
    def from_word(cls, word: str, n: int | None = None, d: int | None = None) -> "Configuration":
        """Parse a configuration word; see the module docstring for the format."""
        if len(word) < 2 or not word.startswith("|") or not word.endswith("|"):
            raise ConfigurationError(f"word must begin and end with '|': {word!r}")
        chunks = word[1:-1].split("|")
        if n is not None and len(chunks) != n:
            raise ConfigurationError(f"expected {n + 1} '|' separators, found {len(chunks) + 1}: {word!r}")
        # a char-style word has at most nine balls, so at most nine digits
        comma_style = "," in word or sum(ch.isdecimal() for ch in word) >= 10
        boxes = []
        for chunk in chunks:
            labels = (chunk.split(",") if chunk else []) if comma_style else list(chunk)
            if any(not label.isdecimal() or int(label) < 1 for label in labels):
                raise ConfigurationError(f"invalid ball label in box {chunk!r} of {word!r}")
            boxes.append(tuple(int(label) for label in labels))
        config = cls(tuple(boxes))
        if d is not None and config.d != d:
            raise ConfigurationError(f"expected {d} balls, found {config.d}: {word!r}")
        return config

    def __str__(self) -> str:
        return self.word()


def to_configuration(index: Sequence[int], n: int) -> Configuration:
    """The configuration with ball s in box ``index[s-1]``."""
    boxes: list[list[int]] = [[] for _ in range(n)]
    for ball, box in enumerate(index, start=1):
        if not isinstance(box, int) or not 1 <= box <= n:
            raise ValueError(f"index entry {box!r} outside 1..{n}")
        boxes[box - 1].append(ball)
    return Configuration(tuple(tuple(box) for box in boxes))


def to_multi_index(config: Configuration) -> MultiIndex:
    """Inverse of :func:`to_configuration`: entry s is the box holding ball s."""
    index = [0] * sum(map(len, config.boxes))
    for box_number, box in enumerate(config.boxes, start=1):
        for ball in box:
            index[ball - 1] = box_number
    return tuple(index)


def enumerate_configurations(p: Params) -> list[Configuration]:
    """All configurations of shape ``p``, ordered like their multi-indices.

    Every multi-index is valid, so its configuration skips the constructor's checks.
    """
    configs = []
    for index in enumerate_multi_indices(p):
        boxes: list[list[int]] = [[] for _ in range(p.n)]
        for ball, box in enumerate(index, start=1):
            boxes[box - 1].append(ball)
        configs.append(Configuration._trusted(tuple(map(tuple, boxes))))
    return configs


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``, lexicographically."""
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts!r}")
    # the parts' prefix sums, taken in lexicographic order as the parts are;
    # a part is the gap between two cuts
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def arrangements(items: Iterable) -> Iterator[tuple]:
    """Distinct orderings of the multiset of ``items``, lexicographically.

    Each is the next permutation of the one before, so no depth grows with
    the multiset's size.
    """
    items = sorted(items)
    while True:
        yield tuple(items)
        i = len(items) - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(items) - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = reversed(items[i + 1 :])


def column_arrangements(column: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of one column's boxes, box i taken column[i] times (boxes from 0)."""
    return tuple(arrangements([i for i, k in enumerate(column) for _ in range(k)]))
