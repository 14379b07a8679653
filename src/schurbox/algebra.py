"""Exact linear algebra over configurations and the graph-indexed operator basis.

``VectorElement`` is a finite integer combination of basis vectors e_b, one
per configuration b; ``AlgebraElement`` is a combination of basis operators
xi_g, one per bipartite multigraph g.  Both subclass ``_Combination``,
whose public constructor checks every term; the arithmetic here combines
terms that were already checked.  A basis operator acts by

    xi_g . e_b  =  sum of e_a over all a with pair_graph(a, b) == g,

that is, by sending the balls of b down the edges of g in every admissible
way; the result is zero unless the top valencies of g equal the content of
b.  These operators commute with ball renaming and span all endomorphisms
that do, so elements here are exactly the equivariant operators on the
configuration module.  :func:`multiply` sums the raw counts of basis
products from the production engine in ``structconst`` and keeps none.

Coefficients are plain unbounded integers.  Operations accept an optional
prime ``mod`` and then reduce into the field with that many elements, using
canonical residues 0..mod-1; nothing is ever rounded or truncated.

>>> g = BipartiteMultigraph(((2, 1), (0, 1)))
>>> b = Configuration.from_word("|12|34|")
>>> sorted(a.word() for a in apply_basis(g, b))
['|123|4|', '|124|3|']
"""

import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache

from .combinatorics import Configuration, Params, _check_cap, column_arrangements, compositions, to_multi_index
from .graphs import BipartiteMultigraph, diagonal_graph

# the engine roster; engine_function gives each one's basis product
ENGINE_NAMES = ("counting", "euler", "oracle")

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact far beyond any modulus this tool will see."""
    if p < 2:
        return False
    if p in _MILLER_RABIN_BASES:
        return True
    if any(p % q == 0 for q in _MILLER_RABIN_BASES):
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_modulus(mod: int | None) -> None:
    if mod is not None and (not isinstance(mod, int) or not is_prime(mod)):
        raise ValueError(f"modulus must be prime, got {mod!r}")


def _summed(pairs: Iterable) -> dict:
    """Coefficients summed per key, zeros dropped."""
    acc: dict = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return {key: coeff for key, coeff in acc.items() if coeff}


class _Combination:
    """Sparse integer combination of basis elements of one shape (n, d).

    A subclass names its key type, the order of its terms (``_order`` of a
    key) and how a basis element prints (``_symbol``, then ``_label`` of it).

    >>> b = Configuration.from_word("|12|3|")
    >>> print(2 * VectorElement.basis(b))
    2*e|12|3|
    >>> g = BipartiteMultigraph(((1, 0), (1, 1)))
    >>> print(AlgebraElement.basis(g) - 3 * AlgebraElement.basis(diagonal_graph((1, 2))))
    -3*xi[[1,0],[0,2]] + xi[[1,0],[1,1]]
    """

    __slots__ = ("n", "d", "_terms")

    def __init__(self, n: int, d: int, terms: Mapping | Iterable = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for key, coeff in items:
            if not isinstance(key, self._key_type):
                raise TypeError(f"expected {self._key_type.__name__} keys, got {key!r}")
            if (key.n, key.d) != (n, d):
                raise ValueError(f"shape {(key.n, key.d)} of {key} does not match ({n},{d})")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
        self.n, self.d = n, d
        self._terms = _summed(items)

    @classmethod
    def _from_terms(cls, n: int, d: int, terms: dict):
        """An element that takes ownership of ``terms`` without the checks of the constructor.

        The caller guarantees that ``terms`` maps distinct keys of shape
        (n, d) to nonzero ints, as an engine's output does.
        """
        x = object.__new__(cls)
        x.n, x.d, x._terms = n, d, terms
        return x

    @classmethod
    def zero(cls, n: int, d: int):
        return cls(n, d)

    @classmethod
    def basis(cls, key):
        if not isinstance(key, cls._key_type):
            raise TypeError(f"expected {cls._key_type.__name__} keys, got {key!r}")
        return cls._from_terms(key.n, key.d, {key: 1})

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def items(self) -> list[tuple]:
        """Terms sorted by the subclass's order on keys."""
        return sorted(self._terms.items(), key=lambda kv: self._order(kv[0]))

    def support(self) -> list:
        return [key for key, _ in self.items()]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def reduce(self, mod: int | None):
        """Coefficients reduced to canonical residues 0..mod-1, zeros pruned."""
        check_modulus(mod)
        if mod is None:
            return self
        return self._from_terms(self.n, self.d, _summed((k, v % mod) for k, v in self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(f"shape mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})")
        terms = itertools.chain(self._terms.items(), other._terms.items())
        return self._from_terms(self.n, self.d, _summed(terms))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return self._from_terms(self.n, self.d, _summed((k, scalar * v) for k, v in self._terms.items()))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.n, self.d) == (other.n, other.d)
            and self._terms == other._terms
        )

    __hash__ = None

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        parts = (
            {1: "", -1: "-"}.get(coeff, f"{coeff}*") + self._symbol + self._label(key)
            for key, coeff in self.items()
        )
        return " + ".join(parts) or "0"

    __repr__ = __str__


class VectorElement(_Combination):
    """Sparse integer combination of configuration basis vectors, listed in multi-index order."""

    __slots__ = ()
    _key_type, _symbol = Configuration, "e"
    _order = staticmethod(to_multi_index)
    _label = staticmethod(Configuration.word)


class AlgebraElement(_Combination):
    """Sparse integer combination of the graph-indexed basis operators.

    Terms are listed by the graph's matrix.  All of an element's graphs are
    n×n, so comparing the row tuples orders them as their flattened
    ``sort_key`` does.
    """

    __slots__ = ()
    _key_type, _symbol = BipartiteMultigraph, "xi"
    _order = staticmethod(lambda g: g.matrix)
    _label = staticmethod(BipartiteMultigraph.__str__)

    @classmethod
    def _from_counts(cls, n: int, d: int, counts: Mapping[tuple[int, ...], int]) -> "AlgebraElement":
        """An engine's raw counts, {flattened composed matrix: coefficient}, as an element built unchecked."""
        rows = [slice(s * n, (s + 1) * n) for s in range(n)]
        graph = BipartiteMultigraph._trusted
        return cls._from_terms(n, d, {graph(tuple(key[r] for r in rows), n, d): c for key, c in counts.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, int):
            return other * self
        return NotImplemented


def apply_basis(g: BipartiteMultigraph, b: Configuration) -> set[Configuration]:
    """All configurations reached by sending each ball of b down an edge of g.

    Each of the d edges carries exactly one ball: in each choice of
    :func:`combinatorics.column_arrangements`, place k of b's box j goes to
    bottom box ``choice[j][k]``.  Equivalently this is the set of all a with
    pair_graph(a, b) == g; empty when the top valencies of g differ from the
    content of b.  Balls are placed in increasing order, so every box comes
    out increasing and the images skip re-validation.
    """
    if (g.n, g.d) != (b.n, b.d):
        raise ValueError(f"shape mismatch: graph ({g.n},{g.d}) vs configuration ({b.n},{b.d})")
    if g.top_valencies() != b.content():
        return set()
    # (ball, top box, place in it), in ball order
    places = sorted((ball, j, k) for j, box in enumerate(b.boxes) for k, ball in enumerate(box))
    out = set()
    for choice in itertools.product(*map(column_arrangements, zip(*g.matrix))):
        boxes: list[list[int]] = [[] for _ in range(g.n)]
        for ball, j, k in places:
            boxes[choice[j][k]].append(ball)
        out.add(Configuration._trusted(tuple(map(tuple, boxes))))
    return out


def _image_size(g: BipartiteMultigraph) -> int:
    """How many configurations :func:`apply_basis` yields for g on a matching b: Π_j multinomial(column j)."""
    return math.prod(
        math.factorial(sum(column)) // math.prod(map(math.factorial, column)) for column in zip(*g.matrix)
    )


def apply(x: AlgebraElement, v: VectorElement, mod: int | None = None) -> VectorElement:
    """Linear extension of the basis action; exact, then reduced if ``mod`` is given.

    Refuses, before building any, when the basis actions would build more
    than 10^6 configurations in all.
    """
    if (x.n, x.d) != (v.n, v.d):
        raise ValueError(f"shape mismatch: ({x.n},{x.d}) vs ({v.n},{v.d})")
    check_modulus(mod)
    contents = Counter(b.content() for b in v._terms)
    built = sum(_image_size(g) * contents[g.top_valencies()] for g in x._terms)
    _check_cap(built, None, f"the configurations that apply builds at n={x.n}, d={x.d}")
    terms = _summed(
        (a, cg * cb)
        for g, cg in x._terms.items()
        for b, cb in v._terms.items()
        for a in apply_basis(g, b)
    )
    return VectorElement._from_terms(x.n, x.d, terms).reduce(mod)


def identity_element(p: Params) -> AlgebraElement:
    """Unit of the algebra: the sum of all diagonal basis operators.

    A diagonal graph fixes every configuration whose content matches its
    diagonal and kills all others, so one diagonal graph per content sums to
    the identity operator.
    """
    _check_cap(math.comb(p.n + p.d - 1, p.d) * p.n * p.n, None, f"the identity's matrices at n={p.n}, d={p.d}")
    return AlgebraElement(p.n, p.d, [(diagonal_graph(c), 1) for c in compositions(p.d, p.n)])


def engine_function(name: str) -> Callable[[BipartiteMultigraph, BipartiteMultigraph], dict[tuple[int, ...], int]]:
    """The named engine's basis product as raw counts, {flattened composed matrix: coefficient}.

    That is ``<name>_fold`` of the engine's module, imported here: both
    engine modules build on this one, and ``oracle`` loads numpy, which the
    other engines never need.  The function is read from its module on
    every call, so a patched module attribute takes effect from the next
    call; ``verify.engine_folds`` calls this once per suite or command.
    """
    if name == "oracle":
        from . import oracle as module
    elif name in ENGINE_NAMES:
        from . import structconst as module
    else:
        raise ValueError(f"unknown engine {name!r}; choose one of {ENGINE_NAMES}")
    return getattr(module, f"{name}_fold")


@lru_cache(maxsize=0)
def basis_product(g1: BipartiteMultigraph, g2: BipartiteMultigraph) -> AlgebraElement:
    """What :func:`structconst.multiply_basis_euler` gives; no module here calls it, and its cache holds nothing."""
    return AlgebraElement._from_counts(g1.n, g1.d, engine_function("euler")(g1, g2))


def multiply(x: AlgebraElement, y: AlgebraElement, mod: int | None = None) -> AlgebraElement:
    """Product in the algebra: the production engine's raw counts summed bilinearly; nothing is kept."""
    if (x.n, x.d) != (y.n, y.d):
        raise ValueError(f"shape mismatch: ({x.n},{x.d}) vs ({y.n},{y.d})")
    check_modulus(mod)
    fold = engine_function("euler")
    counts = _summed(
        (key, c1 * c2 * c)
        for g1, c1 in x._terms.items()
        for g2, c2 in y._terms.items()
        for key, c in fold(g1, g2).items()
    )
    return AlgebraElement._from_counts(x.n, x.d, counts).reduce(mod)
