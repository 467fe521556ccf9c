"""Quasi-cycle decomposition, conjugacy under the symmetric group, and class functions.

Every element factors uniquely (up to order) into pairwise disjoint parts of
three kinds:

* a *quasi-cycle* chains a point with no preimage forward until the first
  point with no image: the orbit a -> r(a) -> ... -> r^m(a) acts like a cycle
  whose final point is killed, ``(a r(a) ... r^m(a)) e{r^m(a)}``;
* a *plain cycle* of the bijective part;
* a *trivial quasi-cycle* ``e{a}`` for each point with neither image nor
  preimage.

Parts are emitted quasi-cycles first (by smallest orbit point), then plain
cycles (by smallest point, written from their smallest point), then trivial
parts ascending, which makes the decomposition a canonical form.

Elements are conjugate under finitary permutations exactly when their parts
agree in kind and size; :func:`conjugacy_invariant` counts those sizes into
the plain tuple ``(q_partition, c_partition, trivial_count)``, the one class
key, under which a :class:`ClassFunction` keeps its values.

>>> decompose(parse_element("[2,3,_,4,_]")).literal()
'(1 2 3)e{3} e{5}'
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from .elements import PartialBijection, from_orbits
from .elements import parse_element  # for the doctests
from .errors import MAX_DIGITS, Record, ResourceGuardError

QUASI = "quasi"
CYCLE = "cycle"
TRIVIAL = "trivial"


class QuasiCycle(Record):
    """One factor of the decomposition: ``kind`` is quasi / cycle / trivial."""

    __slots__ = _fields = ("kind", "orbit")

    def __init__(self, kind: str, orbit: tuple[int, ...]):
        if kind not in (QUASI, CYCLE, TRIVIAL):
            raise ValueError(f"unknown part kind {kind!r}")
        if len(set(orbit)) != len(orbit):
            raise ValueError("orbit points must be distinct")
        if kind == TRIVIAL and len(orbit) != 1:
            raise ValueError("a trivial quasi-cycle has a single point")
        if kind != TRIVIAL and len(orbit) < 2:
            raise ValueError(f"a {kind} part needs an orbit of length >= 2")
        self._set(kind, orbit)

    @property
    def length(self) -> int:
        return len(self.orbit)

    def support(self) -> frozenset[int]:
        return frozenset(self.orbit)

    def literal(self) -> str:
        if self.kind == TRIVIAL:
            return f"e{{{self.orbit[0]}}}"
        body = "(" + " ".join(str(p) for p in self.orbit) + ")"
        if self.kind == CYCLE:
            return body
        return f"{body}e{{{self.orbit[-1]}}}"


class QuasiCycleDecomposition(Record):
    """The parts in canonical order."""

    __slots__ = _fields = ("parts",)

    def element(self) -> PartialBijection:
        """The product of the parts: quasi and trivial parts are chains."""
        return from_orbits(
            chains=[p.orbit for p in self.parts if p.kind != CYCLE],
            cycles=[p.orbit for p in self.parts if p.kind == CYCLE],
        )

    def literal(self) -> str:
        return " ".join(p.literal() for p in self.parts) if self.parts else "e"

    def __iter__(self) -> Iterator[QuasiCycle]:
        return iter(self.parts)


def images_invariant(images: tuple[int | None, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The conjugacy class of the element with these images, as the key
    ``(q_partition, c_partition, trivial_count)``: the orbit sizes of the
    quasi-cycles and of the plain cycles, each nonincreasing, and the number
    of trivial parts.

    Counts orbit lengths on a scratch copy of the image tuple, clearing each
    point as its orbit is walked: quasi-cycles start at the points outside
    the range, and the plain cycles are what is left.  No part is built.
    """
    imgs = list(images)
    hit = set(images)
    quasi: list[int] = []
    trivial = 0
    a = 0
    for y in images:
        a += 1
        if a in hit:
            continue
        if y is None:
            trivial += 1
            continue
        imgs[a - 1] = None
        length = 1
        while y is not None:
            length += 1
            imgs[y - 1], y = None, imgs[y - 1]
        quasi.append(length)
    cycles: list[int] = []
    a = 0
    for y in imgs:
        a += 1
        if y is None or y == a:
            continue
        imgs[a - 1] = None
        length = 1
        while y != a:
            length += 1
            imgs[y - 1], y = None, imgs[y - 1]
        cycles.append(length)
    quasi.sort(reverse=True)
    cycles.sort(reverse=True)
    return tuple(quasi), tuple(cycles), trivial


# Entries each memo of a ClassFunction holds before it starts over, and the
# size of decompose's LRU cache.  Each image-tuple entry keeps its tuple alive.
MAX_MEMO_ELEMENTS = 65536

# The most bits of an exact power, power sum or class value: 64 times the
# MAX_DIGITS digits that print, so a value of seven points (the sweeps'
# largest) of a parameter of MAX_DIGITS digits passes.  Past it the time
# grows as the bits to the power 1.6 or more: on a 2-core host with Python
# 3.11, a^1024 at a = 1e-4300 took 2.4 s, and the power sum of 50 such
# parameters at n = 9 took 52 s.
MAX_VALUE_BITS = 64 * MAX_DIGITS


def _bits(x) -> int:
    """The bit length of the longer of a rational's numerator and denominator."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _check_bits(bits: int, what: str) -> None:
    if bits > MAX_VALUE_BITS:
        raise ResourceGuardError(f"{what} reaches {bits} bits, over the guard "
                                 f"MAX_VALUE_BITS = 64 MAX_DIGITS = {MAX_VALUE_BITS}")


def _power_sum(terms: Iterable, n: int, what: str) -> Fraction:
    """sum w a^n over the pairs (a, w) of ``terms``.

    A power a^n has at least n (``_bits(a)`` - 1) bits, so 0, 1 and -1 grow
    by nothing.  ResourceGuardError is raised before a power past
    ``MAX_VALUE_BITS`` is taken, and as soon as a partial sum passes it.
    """
    total = Fraction(0)
    for a, w in terms:
        _check_bits(n * (_bits(a) - 1), f"a power a^{n}")
        total += w * a**n
        _check_bits(_bits(total), what)
    return total


class ClassFunction:
    """The class function that multiplies ``cycle(n)`` over the plain cycles
    of n points and ``quasi(n)`` over the quasi-cycles, a trivial part
    counting as ``quasi(1)``; memoised twice.

    ``f(r)`` reads an element, ``f.of_images(images)`` an image tuple.
    ``by_images`` maps each image tuple met so far (an element's, or one
    padded to n by a sweep) to its value; on a miss, the orbit-length key
    that :func:`images_invariant` counts from the images is looked up in
    ``by_class``, and a new class multiplies its factors once.  Each dict is
    emptied when it reaches ``MAX_MEMO_ELEMENTS`` entries; until then a class
    has one value object.
    ``cycle`` and ``quasi`` are memoised by length under the same bound, so a
    new class multiplies factors already computed for other classes.  A
    nonzero product whose factors' bits sum past ``MAX_VALUE_BITS`` raises
    ResourceGuardError before it is multiplied.

    >>> f = ClassFunction(cycle=lambda n: 10 * n, quasi=lambda n: n + 1)
    >>> f(parse_element("(1 2 3)e{3}(4 5)e{6}")), len(f.by_class)
    (160, 1)
    """

    __slots__ = ("cycle", "quasi", "by_class", "by_images")

    def __init__(self, cycle: Callable[[int], Any], quasi: Callable[[int], Any]):
        memo = functools.lru_cache(maxsize=MAX_MEMO_ELEMENTS)
        self.cycle, self.quasi = memo(cycle), memo(quasi)
        self.by_class: dict[tuple, Any] = {}
        self.by_images: dict[tuple[int | None, ...], Any] = {}

    def __call__(self, r: PartialBijection) -> Any:
        return self.of_images(r.images)

    def of_images(self, images: tuple[int | None, ...]) -> Any:
        """The value of the element with these images, trimmed or padded with
        fixed points, which change neither invariant nor value (two memo entries)."""
        value = self.by_images.get(images)
        if value is not None:
            return value
        key = images_invariant(images)
        value = self.by_class.get(key)
        if value is None:
            if len(self.by_class) >= MAX_MEMO_ELEMENTS:
                self.by_class.clear()
            q_partition, c_partition, trivial = key
            base = self.quasi(1)
            factors = [self.cycle(n) for n in c_partition] + [self.quasi(n) for n in q_partition]
            if (base or not trivial) and all(factors):
                _check_bits(trivial * _bits(base) + sum(map(_bits, factors)), "a class value's product")
            value = base ** trivial
            for factor in factors:
                value *= factor
            self.by_class[key] = value
        if len(self.by_images) >= MAX_MEMO_ELEMENTS:
            self.by_images.clear()
        self.by_images[images] = value
        return value


def power_sums(alpha: Sequence, beta: Sequence = (), marked: Sequence = ()) -> ClassFunction:
    """The class function of Thoma's power sums: a plain cycle of n points
    gives p_n(alpha|beta) = sum a^n + (-1)^(n-1) sum b^n, a quasi-cycle of n
    points sum w a^n over the ``marked`` pairs (a, w), each read by
    :func:`_power_sum` under ``MAX_VALUE_BITS``."""
    def cycle(n: int) -> Fraction:
        sign = (-1) ** (n - 1)
        return _power_sum([(a, 1) for a in alpha] + [(b, sign) for b in beta], n,
                          f"the power sum for a cycle of {n} points")

    return ClassFunction(
        cycle, lambda n: _power_sum(marked, n, f"the power sum for a quasi-cycle of {n} points"))


@functools.lru_cache(maxsize=MAX_MEMO_ELEMENTS)
def decompose(r: PartialBijection) -> QuasiCycleDecomposition:
    """Factor r into disjoint quasi-cycles, plain cycles, and trivial parts.

    >>> decompose(parse_element("(1 2)e{3}")).literal()
    '(1 2) e{3}'
    """
    images = r.images

    def orbit(a: int) -> tuple[int, ...]:
        """a, r(a), r(r(a)), ... until the walk leaves the domain or returns to a."""
        points, y = [a], images[a - 1]
        while y is not None and y != a:
            points.append(y)
            y = images[y - 1]
        return tuple(points)

    # Chains start outside the range; a chain of one point is a trivial part.
    chains = [orbit(a) for a in r.range_gaps()]
    seen = {p for chain in chains for p in chain}
    cycles = []
    for a, y in enumerate(images, start=1):
        if y is not None and y != a and a not in seen:  # a is the cycle's smallest point
            cycles.append(orbit(a))
            seen.update(cycles[-1])
    quasi = sorted((c for c in chains if len(c) > 1), key=min)
    parts = [QuasiCycle(QUASI, c) for c in quasi] + [QuasiCycle(CYCLE, c) for c in cycles]
    parts += [QuasiCycle(TRIVIAL, c) for c in chains if len(c) == 1]
    return QuasiCycleDecomposition(tuple(parts))


def conjugacy_invariant(r: PartialBijection) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The complete invariant of conjugation by finitary permutations: the key
    ``(q_partition, c_partition, trivial_count)`` of :func:`images_invariant`,
    counted from r's image tuple without building the decomposition.

    >>> a, b = parse_element("(1 2)e{3}"), parse_element("(2 3)e{1}")
    >>> conjugacy_invariant(a), conjugacy_invariant(a) == conjugacy_invariant(b)
    (((), (2,), 1), True)
    """
    return images_invariant(r.images)


def find_conjugator(
    r1: PartialBijection, r2: PartialBijection
) -> PartialBijection | None:
    """A finitary permutation s with r1 = s r2 s*, if the invariants agree.

    Each element's parts are sorted by kind, size (largest first) and
    smallest point, so equal invariants align the lists part for part, and
    paired orbits are relabelled pointwise; leftover points pair up ascending.
    Any valid conjugator is acceptable, so only existence is canonical.
    """
    if conjugacy_invariant(r1) != conjugacy_invariant(r2):
        return None
    n = max(r1.bound, r2.bound)
    images: list[int | None] = [None] * n

    def sort_key(part: QuasiCycle) -> tuple[int, int, int]:
        return ((QUASI, CYCLE, TRIVIAL).index(part.kind), -part.length, min(part.orbit))

    targets, sources = (sorted(decompose(r).parts, key=sort_key) for r in (r1, r2))
    for src, dst in zip(sources, targets):
        for p, q in zip(src.orbit, dst.orbit):
            images[p - 1] = q

    used_targets = set(images)
    free_targets = iter(q for q in range(1, n + 1) if q not in used_targets)
    for p in range(1, n + 1):
        if images[p - 1] is None:
            images[p - 1] = next(free_targets)
    return PartialBijection(images)
