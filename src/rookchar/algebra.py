"""The semigroup algebra over exact rationals.

A :class:`FormalSum` is a finite rational linear combination of elements;
products extend the semigroup product bilinearly.  No floats enter here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational

from .elements import PartialBijection, compose, enumerate_rn, symmetric_group
from .errors import CheckReport, tally


class FormalSum:
    """An immutable rational linear combination of partial bijections.

    Terms whose coefficients cancel are dropped:

    >>> from rookchar.elements import idempotent
    >>> one, eps = FormalSum.one(), FormalSum.of(idempotent([1]))
    >>> (one + eps) * (one - eps)
    FormalSum(-1*[_] + 1*e)
    >>> eps - eps
    FormalSum(0)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data: dict[PartialBijection, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for elem, coeff in items:
            c = Fraction(coeff)
            if c:
                c += data.get(elem, Fraction(0))
                if c:
                    data[elem] = c
                else:
                    del data[elem]
        self._terms = data

    @staticmethod
    def of(element: PartialBijection, coeff=1) -> "FormalSum":
        return FormalSum(((element, coeff),))

    @staticmethod
    def one() -> "FormalSum":
        return FormalSum.of(PartialBijection.identity())

    def coefficient(self, element: PartialBijection) -> Fraction:
        return self._terms.get(element, Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(itertools.chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "FormalSum":
        return FormalSum((e, -c) for e, c in self._terms.items())

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FormalSum):
            data: dict[PartialBijection, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    prod = compose(e1, e2)
                    s = data.get(prod, Fraction(0)) + c1 * c2
                    if s:
                        data[prod] = s
                    else:
                        data.pop(prod, None)
            out = FormalSum()
            out._terms = data
            return out
        if isinstance(other, Rational):
            return self._scaled(Fraction(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self._scaled(Fraction(other))
        return NotImplemented

    def _scaled(self, c: Fraction) -> "FormalSum":
        return FormalSum((e, c * v) for e, v in self._terms.items())

    def star(self) -> "FormalSum":
        return FormalSum((e.star(), c) for e, c in self._terms.items())

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        bits = " + ".join(
            f"{c}*{e.literal()}"
            for e, c in sorted(self._terms.items(), key=lambda t: t[0].literal())
        )
        return f"FormalSum({bits})"


def symmetrizer(n: int) -> FormalSum:
    """The normalized symmetrizer (1/n!) * sum of all permutations of 1..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeff = Fraction(1, math.factorial(n))
    return FormalSum((s, coeff) for s in symmetric_group(n))


def check_gelfand_pair(n: int) -> CheckReport:
    """Verify that symmetrized products p*a*p commute pairwise over R_n.

    Every product is a :class:`FormalSum` product, so all arithmetic is
    exact.  Equal sandwiches commute iff their representatives do, so only
    the distinct ones are compared, each through the first element that
    gave it.
    """
    if n > 3:
        raise ValueError("the exact commutativity sweep is limited to n <= 3")
    basis = list(enumerate_rn(n))
    p = symmetrizer(n)
    sandwiches: dict[frozenset, tuple[PartialBijection, FormalSum]] = {}
    for e in basis:
        u = p * FormalSum.of(e) * p
        sandwiches.setdefault(frozenset(u._terms.items()), (e, u))

    return tally("gelfand", n, (
        f"p {ea.literal()} p vs p {eb.literal()} p" if ua * ub != ub * ua else None
        for (ea, ua), (eb, ub) in itertools.combinations(sandwiches.values(), 2)
    ), basis=len(basis), distinct_products=len(sandwiches))
