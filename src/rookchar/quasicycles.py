"""Quasi-cycle decomposition and conjugacy under the symmetric group.

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

>>> decompose(parse_element("[2,3,_,4,_]")).literal()
'(1 2 3)e{3} e{5}'
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator

from .elements import (
    PartialBijection,
    compose,
    cycle as make_cycle,
    idempotent,
    parse_element,
    symmetric_group,
)

QUASI = "quasi"
CYCLE = "cycle"
TRIVIAL = "trivial"


@dataclass(frozen=True)
class QuasiCycle:
    """One factor of the decomposition: ``kind`` is quasi / cycle / trivial."""

    kind: str
    orbit: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (QUASI, CYCLE, TRIVIAL):
            raise ValueError(f"unknown part kind {self.kind!r}")
        if len(set(self.orbit)) != len(self.orbit):
            raise ValueError("orbit points must be distinct")
        if self.kind == TRIVIAL and len(self.orbit) != 1:
            raise ValueError("a trivial quasi-cycle has a single point")
        if self.kind != TRIVIAL and len(self.orbit) < 2:
            raise ValueError(f"a {self.kind} part needs an orbit of length >= 2")

    @property
    def length(self) -> int:
        return len(self.orbit)

    def support(self) -> frozenset[int]:
        return frozenset(self.orbit)

    def element(self) -> PartialBijection:
        if self.kind == TRIVIAL:
            return idempotent(self.orbit)
        if self.kind == CYCLE:
            return make_cycle(self.orbit)
        return compose(make_cycle(self.orbit), idempotent((self.orbit[-1],)))

    def literal(self) -> str:
        if self.kind == TRIVIAL:
            return f"e{{{self.orbit[0]}}}"
        body = "(" + " ".join(str(p) for p in self.orbit) + ")"
        if self.kind == CYCLE:
            return body
        return f"{body}e{{{self.orbit[-1]}}}"


@dataclass(frozen=True)
class QuasiCycleDecomposition:
    """The parts in canonical order, with the element's conjugacy invariant."""

    parts: tuple[QuasiCycle, ...]
    invariant: ConjugacyInvariant

    def element(self) -> PartialBijection:
        """The product of the parts (any order; supports are disjoint)."""
        out = PartialBijection.identity()
        for part in self.parts:
            out = compose(out, part.element())
        return out

    def literal(self) -> str:
        return " ".join(p.literal() for p in self.parts) if self.parts else "e"

    def __iter__(self) -> Iterator[QuasiCycle]:
        return iter(self.parts)


@dataclass(frozen=True)
class ConjugacyInvariant:
    """Orbit sizes of the quasi-cycles and plain cycles, plus the trivial count."""

    q_partition: tuple[int, ...]
    c_partition: tuple[int, ...]
    trivial_count: int
    # Hashed once: state values are looked up by invariant on every evaluation.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = (self.q_partition, self.c_partition, self.trivial_count)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def literal(self) -> str:
        q = ",".join(map(str, self.q_partition))
        c = ",".join(map(str, self.c_partition))
        return f"(({q}),({c}),{self.trivial_count})"


# Equal invariants share one object, so decompose's cache does not hold a copy
# per element: R_6's 13,327 elements fall into 65 classes.
_interned_invariant = functools.lru_cache(maxsize=4096)(ConjugacyInvariant)


@functools.lru_cache(maxsize=65536)
def decompose(r: PartialBijection) -> QuasiCycleDecomposition:
    """Factor r into disjoint quasi-cycles, plain cycles, and trivial parts.

    The result also carries r's :class:`ConjugacyInvariant`, computed here once
    per cache miss and shared with every element of the same class.

    >>> decompose(parse_element("(1 2)e{3}")).invariant.literal()
    '((),(2),1)'
    """
    bound = r.bound
    in_domain = [y is not None for y in r.images]
    in_range = [False] * bound
    for y in r.images:
        if y is not None:
            in_range[y - 1] = True

    taken = [False] * bound
    quasi: list[QuasiCycle] = []
    for a in range(1, bound + 1):
        if in_domain[a - 1] and not in_range[a - 1]:
            orbit = [a]
            x = a
            while in_domain[x - 1]:
                x = r.images[x - 1]  # type: ignore[assignment]
                orbit.append(x)
            for p in orbit:
                taken[p - 1] = True
            quasi.append(QuasiCycle(QUASI, tuple(orbit)))

    cycles: list[QuasiCycle] = []
    for a in range(1, bound + 1):
        if taken[a - 1] or not in_domain[a - 1]:
            continue
        orbit = [a]
        taken[a - 1] = True
        x = r.images[a - 1]
        while x != a:
            orbit.append(x)  # type: ignore[arg-type]
            taken[x - 1] = True
            x = r.images[x - 1]  # type: ignore[index]
        if len(orbit) >= 2:
            cycles.append(QuasiCycle(CYCLE, tuple(orbit)))

    trivial = [
        QuasiCycle(TRIVIAL, (a,))
        for a in range(1, bound + 1)
        if not in_domain[a - 1] and not in_range[a - 1]
    ]

    quasi.sort(key=lambda p: min(p.orbit))
    cycles.sort(key=lambda p: min(p.orbit))
    invariant = _interned_invariant(
        tuple(sorted((len(p.orbit) for p in quasi), reverse=True)),
        tuple(sorted((len(p.orbit) for p in cycles), reverse=True)),
        len(trivial),
    )
    return QuasiCycleDecomposition(tuple(quasi) + tuple(cycles) + tuple(trivial), invariant)


def conjugacy_invariant(r: PartialBijection) -> ConjugacyInvariant:
    """The complete invariant of conjugation by finitary permutations.

    Read off :func:`decompose`'s cached result, so it costs one cache lookup.

    >>> a, b = parse_element("(1 2)e{3}"), parse_element("(2 3)e{1}")
    >>> conjugacy_invariant(a) is conjugacy_invariant(b)
    True
    """
    return decompose(r).invariant


def find_conjugator(
    r1: PartialBijection, r2: PartialBijection
) -> PartialBijection | None:
    """A finitary permutation s with r1 = s r2 s*, if the invariants agree.

    Parts of equal kind and size are matched greedily (largest first) and
    their orbits are relabelled pointwise; leftover points pair up ascending.
    Any valid conjugator is acceptable, so only existence is canonical.
    """
    if conjugacy_invariant(r1) != conjugacy_invariant(r2):
        return None
    n = max(r1.bound, r2.bound)
    images: list[int | None] = [None] * n
    used_targets: set[int] = set()

    def sort_key(part: QuasiCycle) -> tuple[int, int]:
        return (-part.length, min(part.orbit))

    for kind in (QUASI, CYCLE, TRIVIAL):
        sources = sorted((p for p in decompose(r2).parts if p.kind == kind), key=sort_key)
        targets = sorted((p for p in decompose(r1).parts if p.kind == kind), key=sort_key)
        for src, dst in zip(sources, targets):
            for p, q in zip(src.orbit, dst.orbit):
                images[p - 1] = q
                used_targets.add(q)

    free_targets = iter(q for q in range(1, n + 1) if q not in used_targets)
    for p in range(1, n + 1):
        if images[p - 1] is None:
            images[p - 1] = next(free_targets)
    return PartialBijection.from_images(images)


def conjugacy_orbit(r: PartialBijection, n: int) -> frozenset[PartialBijection]:
    """The orbit {s r s^-1 : s a permutation of 1..n}; the brute-force oracle."""
    orbit = set()
    for s in symmetric_group(n):
        orbit.add(compose(compose(s, r), s.star()))
    return frozenset(orbit)


def _doctest_entry():  # keeps the module docstring example importable
    return decompose(parse_element("[2,3,_,4,_]"))
