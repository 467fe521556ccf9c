"""Finitary partial bijections of {1, 2, 3, ...}.

An element is an injective map between two subsets of the positive integers
that fixes every point outside a finite set.  It is stored as the tuple of
images of 1..bound, with ``None`` marking points outside the domain; every
point beyond ``bound`` is an implicit fixed point, and ``bound`` is minimal
(no trailing fixed point), so equality is structural and values are hashable.
Every element, products and stars included, comes from the one constructor
``PartialBijection(images)``, which checks the image list before it trims it.

The product follows the 0-1 matrix realization: the matrix of ``r`` has entry
(l, k) equal to 1 exactly when r(k) = l, and the product is the matrix
product, so ``r1 * r2`` acts by x -> r1(r2(x)) -- the right factor is applied
first.  Worked example (watch the order):

>>> eps1, swap = parse_element("e{1}"), parse_element("(1 2)")
>>> (eps1 * swap).literal()     # apply (1 2) first: 1 -> 2 survives
'[2,_]'
>>> (swap * eps1).literal()     # apply e{1} first: 1 is killed
'[_,1]'

Literals come in two forms.  The image list writes the images of 1..bound
with ``_`` for undefined points, e.g. ``[2,3,_,4,_]``.  The product form
juxtaposes cycles ``(p1 p2 ... pm)``, idempotents ``e{p}`` / ``e{p1,p2}``
and the identity ``e``, with the left factor applied last:

>>> parse_element("(1 2 3)e{3}e{5}") == parse_element("[2,3,_,4,_]")
True
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import MAX_POINT, ParseError, Record, ResourceGuardError

# Exhaustive enumeration of R_n is guarded: |R_7| = 130922 is the largest
# size the test drivers are allowed to stream.
MAX_ENUMERATION_GROUND_SET = 7


def _check_images(images: tuple[int | None, ...]) -> None:
    """Raise ValueError unless ``images`` is an injective partial map of 1..len."""
    seen: set[int] = set()
    bound = len(images)
    for y in images:
        if y is None:
            continue
        if type(y) is not int:  # isinstance would admit True as 1
            raise ValueError(f"point {y!r} is a {type(y).__name__}, not an int")
        if not 1 <= y <= bound:
            raise ValueError(f"point {y} out of range for bound {bound}")
        if y in seen:
            raise ValueError(f"two points map to {y}")
        seen.add(y)


class PartialBijection(Record):
    """A finitary partial bijection in canonical (trimmed) form.

    ``images[x-1]`` is the image of x for x <= bound, ``None`` when x is not
    in the domain.  All points above ``bound`` are fixed.  The constructor is
    the one way to build an element: it takes any image sequence, checks it
    with :func:`_check_images` and then trims trailing fixed points, so
    ``PartialBijection([2, 1, 3])`` is ``[2,1]`` and ``[True]`` is an error.
    """

    __slots__ = _fields = ("images",)

    def __init__(self, images: Sequence[int | None]):
        images = tuple(images)
        _check_images(images)
        bound = len(images)
        while bound and images[bound - 1] == bound:
            bound -= 1
        self._set(images[:bound])

    @property
    def bound(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int | None:
        if x <= 0:
            raise ValueError(f"point {x} out of range")
        if x > len(self.images):
            return x
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return not self.images

    def domain_gaps(self) -> tuple[int, ...]:
        """Points of 1..bound outside the domain, ascending."""
        return tuple(x for x, y in enumerate(self.images, start=1) if y is None)

    def range_gaps(self) -> tuple[int, ...]:
        """Points of 1..bound outside the range, ascending."""
        hit = {y for y in self.images if y is not None}
        return tuple(x for x in range(1, len(self.images) + 1) if x not in hit)

    def one_line(self, n: int) -> list[int]:
        """The one-line form of a permutation of 1..n that extends r.

        The domain gaps are sent, ascending, to the range gaps, ascending.

        >>> parse_element("[2,_,1]").one_line(4)
        [2, 3, 1, 4]
        """
        if len(self.images) > n:
            raise ValueError(f"support of {self.literal()} exceeds the ground set 1..{n}")
        free = iter(self.range_gaps())
        return [next(free) if y is None else y for y in self.images] + list(
            range(len(self.images) + 1, n + 1)
        )

    def support(self) -> frozenset[int]:
        """Moved points plus domain gaps; the complement of the fixed set."""
        return frozenset(
            x
            for x, y in enumerate(self.images, start=1)
            if y is None or y != x
        )

    def star(self) -> "PartialBijection":
        """The involution: matrix transposition, i.e. the inverse partial map."""
        return PartialBijection(invert_images(self.images))

    def __mul__(self, other: "PartialBijection") -> "PartialBijection":
        if not isinstance(other, PartialBijection):
            return NotImplemented
        return compose(self, other)

    def literal(self) -> str:
        """Canonical rendering; the identity renders as ``e``."""
        if not self.images:
            return "e"
        return "[" + ",".join("_" if y is None else str(y) for y in self.images) + "]"

    def __repr__(self) -> str:
        return f"PartialBijection({self.literal()!r})"


def compose(r1: PartialBijection, r2: PartialBijection) -> PartialBijection:
    """The semigroup product r1 * r2, acting by x -> r1(r2(x))."""
    outer, inner = r1.images, r2.images
    # Pad both image tuples with their implicit fixed points to a common bound.
    n1, n2 = len(outer), len(inner)
    if n1 < n2:
        outer += tuple(range(n1 + 1, n2 + 1))
    elif n2 < n1:
        inner += tuple(range(n2 + 1, n1 + 1))
    return PartialBijection([None if y is None else outer[y - 1] for y in inner])


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``seq -> tuple(seq[i] for i in indices)``, one C call per use.

    ``operator.itemgetter`` with several indices; it would return a bare item
    for one index and refuse none, so those two cases are wrapped.  The sweeps
    multiply image tuples of one length with it: ``gather([y - 1 for y in s])(r)``
    is the product r s for a permutation s, and ``gather(rz)((None,) + s)`` is
    s r, where ``rz`` is r's images with 0 for each point outside its domain.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def invert_images(images: Sequence[int | None]) -> tuple[int | None, ...]:
    """The inverse partial map of an image tuple, at the same length.

    >>> invert_images((2, None, 1))
    (3, 1, None)
    """
    inverse: list[int | None] = [None] * len(images)
    x = 0
    for y in images:
        x += 1
        if y is not None:
            inverse[y - 1] = x
    return tuple(inverse)


def identity() -> PartialBijection:
    return PartialBijection(())


def _check_points(lowest: int, highest: int) -> None:
    """Refuse an orbit, kill set or word that names a point below 1 or above MAX_POINT.

    Called before the image list, which holds one entry per point up to the
    largest, is built.
    """
    if lowest < 1:
        raise ValueError(f"point {lowest} out of range")
    if highest > MAX_POINT:
        raise ResourceGuardError(f"point {highest} exceeds the guard MAX_POINT = {MAX_POINT}")


def from_orbits(chains: Iterable[Sequence[int]] = (),
                cycles: Iterable[Sequence[int]] = ()) -> PartialBijection:
    """The element that sends each point of an orbit to the next one.

    The last point of a chain leaves the domain; the last point of a cycle
    maps back to the first.  Points on no orbit are fixed.

    >>> from_orbits(chains=[(1, 2, 3), (5,)], cycles=[(4, 6)]).literal()
    '[2,3,_,6,_,4]'
    """
    points: list[int] = []
    targets: list[int | None] = []
    for orbits, closed in ((chains, False), (cycles, True)):
        for o in filter(None, orbits):  # an empty orbit names no point
            points.extend(o)
            targets.extend(o[1:])
            targets.append(o[0] if closed else None)
    if not points:
        return identity()
    _check_points(min(points), max(points))
    if len(set(points)) != len(points):
        raise ValueError("orbits must be disjoint")
    images: list[int | None] = list(range(1, max(points) + 1))
    for x, y in zip(points, targets):
        images[x - 1] = y
    return PartialBijection(images)


def idempotent(points: Iterable[int]) -> PartialBijection:
    """epsilon_A: the partial identity whose domain omits ``points``.

    >>> idempotent([4, 2, 4]).literal()
    '[1,_,3,_]'
    """
    kills = sorted(set(points))
    if not kills:
        return identity()
    _check_points(kills[0], kills[-1])
    images: list[int | None] = list(range(1, kills[-1] + 1))
    for p in kills:
        images[p - 1] = None
    return PartialBijection(images)


def cycle(points: Sequence[int]) -> PartialBijection:
    """The cycle p1 -> p2 -> ... -> pm -> p1."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("cycle points must be distinct")
    return from_orbits(cycles=[pts])


def transposition(a: int, b: int) -> PartialBijection:
    return cycle((a, b))


def symmetric_group(n: int) -> Iterator[PartialBijection]:
    """All permutations of {1..n}, in lexicographic one-line order."""
    for perm in itertools.permutations(range(1, n + 1)):
        yield PartialBijection(perm)


# --- literals ---------------------------------------------------------------


def parse_element(text: str) -> PartialBijection:
    """Parse an element literal (image list or product form).

    ``parse_element(text).literal()`` is a fixed point of literal-after-parse.

    >>> parse_element("[2,3,_,4,_]").images
    (2, 3, None, 4, None)
    >>> parse_element("e").is_identity()
    True
    """
    s = text.strip()
    if not s:
        raise ParseError("empty element literal")
    try:
        if s.startswith("["):
            return _parse_image_list(s)
        return _parse_product(s)
    except ParseError:
        raise
    except ValueError as exc:  # injectivity / range violations
        raise ParseError(f"{text!r}: {exc}") from exc


def literal_bound(text: str) -> int:
    """An upper bound on ``parse_element(text).bound``, read from the text alone.

    An image list's bound is at most its entry count, and a product fixes
    every point above the largest one it names.  A digit run longer than
    MAX_POINT's counts as MAX_POINT + 1, so no huge token is converted.

    >>> literal_bound("[2,3,_,4,_]"), literal_bound("(1 12)e{7}"), literal_bound("e")
    (5, 12, 0)
    """
    s = text.strip()
    if s.startswith("["):
        return s.count(",") + 1 if s[1:-1].strip() else 0
    return max((MAX_POINT + 1 if len(t.lstrip("0")) > len(str(MAX_POINT)) else int(t)
                for t in re.findall(r"\d+", s)), default=0)


def _parse_image_list(s: str) -> PartialBijection:
    if not s.endswith("]"):
        raise ParseError(f"unterminated image list: {s!r}")
    body = s[1:-1].strip()
    if not body:
        return identity()
    images: list[int | None] = []
    for tok in body.split(","):
        tok = tok.strip()
        if tok == "_":
            images.append(None)
        elif tok.isdigit() and int(tok) >= 1:
            images.append(int(tok))
        else:
            raise ParseError(f"bad image entry {tok!r} in {s!r}")
    return PartialBijection(images)


def _parse_product(s: str) -> PartialBijection:
    factors: list[PartialBijection] = []
    pos = 0
    while pos < len(s):
        ch = s[pos]
        if ch.isspace():
            pos += 1
        elif ch == "(":
            end = s.find(")", pos)
            if end < 0:
                raise ParseError(f"unterminated cycle in {s!r}")
            body = s[pos + 1 : end].replace(",", " ").split()
            if not body or not all(t.isdigit() and int(t) >= 1 for t in body):
                raise ParseError(f"bad cycle {s[pos:end + 1]!r}")
            factors.append(cycle(tuple(int(t) for t in body)))
            pos = end + 1
        elif ch == "e":
            if pos + 1 < len(s) and s[pos + 1] == "{":
                end = s.find("}", pos)
                if end < 0:
                    raise ParseError(f"unterminated idempotent in {s!r}")
                body = s[pos + 2 : end].replace(",", " ").split()
                if not body or not all(t.isdigit() and int(t) >= 1 for t in body):
                    raise ParseError(f"bad idempotent {s[pos:end + 1]!r}")
                factors.append(idempotent(int(t) for t in body))
                pos = end + 1
            else:
                factors.append(identity())
                pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {s!r}")
    # s is stripped and nonempty, so the first pass appended a factor or raised.
    out = factors[0]
    for f in factors[1:]:
        out = compose(out, f)
    return out


# --- enumeration ------------------------------------------------------------


def rn_size(n: int) -> int:
    """|R_n| = sum over k of C(n,k)^2 k!."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def padded_rn(n: int) -> Iterator[tuple[int | None, ...]]:
    """Every element of R_n exactly once, as its image tuple padded to length n.

    ``None`` marks the points outside the domain, and fixed points stay in
    place, so every tuple has length n.  Streams injective maps from each
    domain subset (by size, then lexicographically) onto each image subset,
    images in lexicographic permutation order.

    >>> list(padded_rn(2))
    [(None, None), (1, None), (2, None), (None, 1), (None, 2), (1, 2), (2, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ENUMERATION_GROUND_SET:
        raise ResourceGuardError(
            f"R_{n} has {rn_size(n)} elements; n = {n} exceeds the guard "
            f"MAX_ENUMERATION_GROUND_SET = {MAX_ENUMERATION_GROUND_SET}"
        )
    points = range(1, n + 1)
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            # Point x reads its image from the assignment, or the None after it.
            slots = [k] * n
            for i, x in enumerate(dom):
                slots[x - 1] = i
            pad = gather(slots)
            for img in itertools.combinations(points, k):
                yield from map(pad, map(tuple.__add__, itertools.permutations(img),
                                        itertools.repeat((None,))))


def enumerate_rn(n: int) -> Iterator[PartialBijection]:
    """Every element of R_n exactly once, in :func:`padded_rn`'s order."""
    return map(PartialBijection, padded_rn(n))
