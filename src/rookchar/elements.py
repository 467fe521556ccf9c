"""Finitary partial bijections of {1, 2, 3, ...}.

An element is an injective map between two subsets of the positive integers
that fixes every point outside a finite set.  It is stored as the tuple of
images of 1..bound, with ``None`` marking points outside the domain; every
point beyond ``bound`` is an implicit fixed point, and ``bound`` is minimal
(no trailing fixed point), so equality is structural and values are hashable.

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
from typing import Iterable, Iterator, Sequence

from .errors import MAX_POINT, ParseError, Record, ResourceGuardError

# Exhaustive enumeration of R_n is guarded: |R_7| = 130922 is the largest
# size the test drivers are allowed to stream.
MAX_ENUMERATION_GROUND_SET = 7


class PartialBijection(Record):
    """A finitary partial bijection in canonical (trimmed) form.

    ``images[x-1]`` is the image of x for x <= bound, ``None`` when x is not
    in the domain.  All points above ``bound`` are fixed.  Use
    :meth:`from_images` to build values; the raw constructor insists on
    canonical input.
    """

    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple[int | None, ...]):
        seen: set[int] = set()
        bound = len(images)
        for x, y in enumerate(images, start=1):
            if y is None:
                continue
            if not isinstance(y, int) or not 1 <= y <= bound:
                raise ValueError(f"point {y} out of range for bound {bound}")
            if y in seen:
                raise ValueError(f"two points map to {y}")
            seen.add(y)
        if bound and images[-1] == bound:
            raise ValueError("not canonical: trailing fixed point")
        object.__setattr__(self, "images", images)

    # Written out because elements are dict and set keys: FormalSum's terms,
    # gram_matrix's distinctness check, conjugacy_orbit.  The hash is the one
    # a frozen dataclass gives, so conjugacy_orbit's set order stays as it was.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    @staticmethod
    def from_images(images: Sequence[int | None]) -> "PartialBijection":
        """Build an element from an image list, trimming trailing fixed points."""
        imgs = list(images)
        while imgs and imgs[-1] == len(imgs):
            imgs.pop()
        return PartialBijection(tuple(imgs))

    @classmethod
    def _canonical(cls, images: Sequence[int | None]) -> "PartialBijection":
        """Trim trailing fixed points and wrap ``images`` without validation.

        Only for image lists that are injective partial maps of 1..len by
        construction (products and inverses of valid elements, the listing of
        R_n); outside input goes through :meth:`from_images`.
        """
        bound = len(images)
        if bound and images[-1] == bound:
            while bound and images[bound - 1] == bound:
                bound -= 1
            images = images[:bound]
        element = object.__new__(cls)
        object.__setattr__(element, "images", tuple(images))
        return element

    @staticmethod
    def identity() -> "PartialBijection":
        return PartialBijection(())

    @property
    def bound(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int | None:
        if x <= 0:
            raise ValueError(f"point {x} out of range")
        if x > len(self.images):
            return x
        return self.images[x - 1]

    def is_permutation(self) -> bool:
        """True when the element is a (finitary) bijection of the whole set."""
        return None not in self.images

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
        inv: list[int | None] = [None] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            if y is not None:
                inv[y - 1] = x
        return PartialBijection._canonical(inv)

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
    return PartialBijection._canonical([None if y is None else outer[y - 1] for y in inner])


def identity() -> PartialBijection:
    return PartialBijection.identity()


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
        return PartialBijection.identity()
    if min(points) < 1:
        raise ValueError(f"point {min(points)} out of range")
    if max(points) > MAX_POINT:
        raise ResourceGuardError(f"point {max(points)} exceeds the guard MAX_POINT = {MAX_POINT}")
    if len(set(points)) != len(points):
        raise ValueError("orbits must be disjoint")
    images: list[int | None] = list(range(1, max(points) + 1))
    for x, y in zip(points, targets):
        images[x - 1] = y
    return PartialBijection.from_images(images)


def idempotent(points: Iterable[int]) -> PartialBijection:
    """epsilon_A: the partial identity whose domain omits ``points``."""
    return from_orbits(chains=[(p,) for p in sorted(set(points))])


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
        yield PartialBijection.from_images(perm)


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


def _parse_image_list(s: str) -> PartialBijection:
    if not s.endswith("]"):
        raise ParseError(f"unterminated image list: {s!r}")
    body = s[1:-1].strip()
    if not body:
        return PartialBijection.identity()
    images: list[int | None] = []
    for tok in body.split(","):
        tok = tok.strip()
        if tok == "_":
            images.append(None)
        elif tok.isdigit() and int(tok) >= 1:
            images.append(int(tok))
        else:
            raise ParseError(f"bad image entry {tok!r} in {s!r}")
    return PartialBijection.from_images(images)


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
                factors.append(PartialBijection.identity())
                pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {s!r}")
    if not factors:
        raise ParseError(f"no factors in {s!r}")
    out = factors[0]
    for f in factors[1:]:
        out = compose(out, f)
    return out


# --- enumeration ------------------------------------------------------------


def rn_size(n: int) -> int:
    """|R_n| = sum over k of C(n,k)^2 k!."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def enumerate_rn(n: int) -> Iterator[PartialBijection]:
    """Every element of R_n exactly once, in a deterministic order.

    Streams injective maps from each domain subset (by size, then
    lexicographically) onto each image subset, images in lexicographic
    permutation order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ENUMERATION_GROUND_SET:
        raise ResourceGuardError(
            f"R_{n} has {rn_size(n)} elements; the enumeration guard is "
            f"n <= {MAX_ENUMERATION_GROUND_SET}"
        )
    points = range(1, n + 1)
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            for img in itertools.combinations(points, k):
                for assignment in itertools.permutations(img):
                    images: list[int | None] = [None] * n
                    for x, y in zip(dom, assignment):
                        images[x - 1] = y
                    yield PartialBijection._canonical(images)
