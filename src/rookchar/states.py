"""Central states: one parameterized family, evaluated multiplicatively.

A state is determined by two nonincreasing positive rational sequences
``alpha``, ``beta`` with total mass at most 1, plus an optional *mark*
``(i, t)`` selecting one alpha entry and a weight t in [0, 1].  Its value on
an element is the product over the quasi-cycle decomposition:

* a plain cycle of length n contributes
  ``sum(alpha_j^n) + (-1)^(n-1) sum(beta_j^n)``;
* a quasi-cycle with an orbit of n points (a trivial one counts as n = 1)
  contributes ``t * alpha_i^n`` when the mark is present and 0 otherwise.

With the mark absent this covers the zero-extension states (including the
sign state alpha=(), beta=(1,)); with alpha=(1,) and t=1 it degenerates to
the constant 1.

Values are memoised per conjugacy class.  The states are S_infinity-invariant,
f(s r s^-1) = f(r) for every finitary permutation s, so a value depends only on
the element's :class:`~rookchar.quasicycles.ConjugacyInvariant` (the orbit
sizes of its quasi-cycles and plain cycles and its trivial count).  Each
parameter set keeps one table (:class:`ValueTable`) from invariant to value
and a bounded memo from image tuple to value.  An element met before costs
one dictionary lookup; a new one costs an orbit-length count of its image
tuple (:func:`~rookchar.quasicycles.images_invariant`) plus a class lookup,
and no decomposition is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import linalg  # through the module, so linalg runs only when a Gram is built
from .elements import PartialBijection, compose, enumerate_rn, symmetric_group
from .errors import (
    I_STAR_J,
    STAR_JI,
    CheckReport,
    ParseError,
    Record,
    ResourceGuardError,
    json_int,
    tally,
)
from .quasicycles import ConjugacyInvariant, images_invariant

# The dense Gram route builds and certifies an m x m matrix of Fractions, so
# m is guarded: R_4's 209 elements pass, R_5's 1546 would run for hours.
MAX_GRAM_ELEMENTS = 1024

# Entries a ValueTable's element memo holds before it starts over; the same
# bound as decompose's cache.  Each entry keeps its image tuple alive.
MAX_MEMO_ELEMENTS = 65536

TYPE_I_INF = "TypeIinf"
TYPE_II_INF = "TypeIIinf"
TYPE_II_1 = "TypeII1"
TYPE_II_1_OR_SCALAR = "TypeII1orScalar"
UNCLASSIFIED = "Unclassified"


class ThomaParams(Record):
    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: tuple[Fraction, ...], beta: tuple[Fraction, ...]):
        for name, seq in (("alpha", alpha), ("beta", beta)):
            for x in seq:
                if x <= 0:
                    raise ValueError(f"{name} entries must be positive, got {x}")
            if any(a < b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be nonincreasing: {seq}")
        if sum(alpha) + sum(beta) > 1:
            raise ValueError("alpha and beta mass exceeds 1")
        self._set(alpha, beta)

    @staticmethod
    def of(alpha: Iterable = (), beta: Iterable = ()) -> "ThomaParams":
        return ThomaParams(
            tuple(Fraction(a) for a in alpha), tuple(Fraction(b) for b in beta)
        )


def thoma_character(p: ThomaParams, n: int) -> Fraction:
    """Value of the character on a plain cycle of length n >= 2."""
    if n < 2:
        raise ValueError("cycle length must be >= 2")
    return _cycle_value(p.alpha, p.beta, n)


def _cycle_value(alpha: tuple[Fraction, ...], beta: tuple[Fraction, ...], n: int) -> Fraction:
    return (
        sum((a**n for a in alpha), Fraction(0))
        + (-1) ** (n - 1) * sum((b**n for b in beta), Fraction(0))
    )


class ValueTable:
    """The family's value function for one parameter set, memoised twice.

    ``by_images`` maps the image tuple of each element met so far to its
    value; it is emptied when it reaches ``MAX_MEMO_ELEMENTS`` entries.  On a
    miss, the element's invariant is counted from its images and looked up
    in ``by_class``, which maps each conjugacy invariant met so far to its
    value.  A new class's value is the invariant's ``product`` of the cycle
    factors and ``t * base**n`` for a quasi-cycle of n points.  The mark
    ``(i, t)`` must name an alpha entry, and ``base`` is that entry
    ``alpha_i``; with no mark, t and base are 0.
    """

    __slots__ = ("alpha", "beta", "t", "base", "by_class", "by_images")

    def __init__(self, alpha: tuple[Fraction, ...], beta: tuple[Fraction, ...],
                 mark: tuple[int, Fraction] | None):
        t, base = Fraction(0), Fraction(0)
        if mark is not None:
            i, t = mark
            if not 1 <= i <= len(alpha):
                raise ValueError(f"marked index {i} out of range")
            base = alpha[i - 1]
        self.alpha, self.beta, self.t, self.base = alpha, beta, t, base
        self.by_class: dict[ConjugacyInvariant, Fraction] = {}
        self.by_images: dict[tuple[int | None, ...], Fraction] = {}

    def value(self, r: PartialBijection) -> Fraction:
        images = r.images
        value = self.by_images.get(images)
        if value is not None:
            return value
        invariant = images_invariant(images)
        value = self.by_class.get(invariant)
        if value is None:
            value = self.by_class[invariant] = self._class_value(invariant)
        if len(self.by_images) >= MAX_MEMO_ELEMENTS:
            self.by_images.clear()
        self.by_images[images] = value
        return value

    # A table is also a plain value function; evaluate and the sweeps call
    # the method, which skips the slower call through __call__.
    __call__ = value

    def _class_value(self, invariant: ConjugacyInvariant) -> Fraction:
        return invariant.product(
            lambda n: _cycle_value(self.alpha, self.beta, n), lambda n: self.t * self.base**n
        )


class State(Record):
    """A validated state specification; also usable directly as the state.

    ``table`` holds this state's values, memoised by element and by
    conjugacy class; it is not a field, so it takes no part in equality,
    hashing or the repr.
    """

    _fields = ("thoma", "mark")
    __slots__ = _fields + ("table",)

    def __init__(self, thoma: ThomaParams, mark: tuple[int, Fraction] | None = None):
        table = ValueTable(thoma.alpha, thoma.beta, mark)
        if not 0 <= table.t <= 1:
            raise ValueError(f"weight t={table.t} outside [0, 1]")
        self._set(thoma, mark)
        object.__setattr__(self, "table", table)

    @property
    def quasi_base(self) -> Fraction:
        """alpha_i of the marked entry, or 0 with no mark."""
        return self.table.base

    @property
    def weight(self) -> Fraction:
        return self.table.t

    def value(self, r: PartialBijection) -> Fraction:
        return evaluate(self, r)

    def to_json(self) -> dict:
        mark = None
        if self.mark is not None:
            mark = {"i": self.mark[0], "t": str(self.mark[1])}
        return {
            "alpha": [str(a) for a in self.thoma.alpha],
            "beta": [str(b) for b in self.thoma.beta],
            "mark": mark,
        }

    @staticmethod
    def from_json(data: dict) -> "State":
        alpha, beta, mark = _json_params(data)
        return State(ThomaParams(alpha, beta), mark)


def _json_params(
    data,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[int, Fraction] | None]:
    """alpha, beta and the mark (i, t) of state JSON; ParseError on a malformed value."""
    try:
        mark = data.get("mark")
        return (
            tuple(Fraction(a) for a in data.get("alpha", ())),
            tuple(Fraction(b) for b in data.get("beta", ())),
            None if mark is None else (json_int(mark["i"], "mark 'i'"), Fraction(mark["t"])),
        )
    except KeyError as exc:  # only the mark's fields are looked up by key
        raise ParseError(f"malformed state JSON: mark needs {exc}") from exc
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed state JSON: {exc}") from exc


def make_state(alpha: Iterable = (), beta: Iterable = (), mark=None) -> State:
    """Validate and build a state; raises ValueError on bad parameters."""
    if mark is not None:
        i, t = mark
        mark = (json_int(i, "mark index"), Fraction(t))
    return State(ThomaParams.of(alpha, beta), mark)


def evaluate(state: State, r: PartialBijection) -> Fraction:
    """The state value, multiplicative over the decomposition; f(e) = 1.

    >>> from rookchar.elements import parse_element
    >>> state = make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, "1/2"))
    >>> evaluate(state, parse_element("[2,3,_,4,_]"))
    Fraction(1, 64)

    Conjugate elements share one entry of the state's table:

    >>> evaluate(state, parse_element("(1 2)e{3}")), evaluate(state, parse_element("(2 3)e{1}"))
    (Fraction(1, 12), Fraction(1, 12))
    >>> len(state.table.by_class)
    2
    """
    return state.table.value(r)


def unchecked_value_fn(data: dict) -> ValueTable:
    """The family's value formula on JSON parameters, with no validation.

    A testing aid: parameters outside the state conditions (say mass > 1)
    define no state, but their Gram matrices still get certified, and the
    certifier answers with a genuine NotPSD witness.  A mark must still name
    an alpha entry, since the formula reads it.
    """
    return ValueTable(*_json_params(data))


class FactorTypeVerdict(Record):
    __slots__ = _fields = ("kind", "note")

    def __init__(self, kind: str, note: str):
        self._set(kind, note)


def classify_factor_type(state: State) -> FactorTypeVerdict:
    """Factor type of the generated representation, per parameter case."""
    if state.mark is None or not state.thoma.alpha:
        return FactorTypeVerdict(
            TYPE_II_1_OR_SCALAR, "epsilon generators are represented by 0"
        )
    a_i, t = state.quasi_base, state.weight
    if a_i == 1:
        if 0 < t < 1:
            return FactorTypeVerdict(TYPE_I_INF, "spherical family; fixed cyclic vector")
        return FactorTypeVerdict(
            UNCLASSIFIED, "boundary parameters (alpha_i = 1 with t in {0, 1})"
        )
    if 0 < t < 1:
        return FactorTypeVerdict(TYPE_II_INF, "semifinite, non-finite trace")
    return FactorTypeVerdict(TYPE_II_1, "finite trace (t in {0, 1})")


# --- Gram matrices ------------------------------------------------------------


class GramReport(Record):
    __slots__ = _fields = ("elements", "ordering", "matrix", "certificate")

    def __init__(self, elements: tuple[PartialBijection, ...], ordering: str,
                 matrix: linalg.RationalMatrix, certificate: linalg.PsdCertificate):
        self._set(elements, ordering, matrix, certificate)

    def to_json(self) -> dict:
        return {
            "elements": [e.literal() for e in self.elements],
            "ordering": self.ordering,
            "matrix": self.matrix.to_json_rows(),
            "certificate": self.certificate.to_json(),
        }


def check_gram_size(m: int) -> None:
    """Raise ResourceGuardError when m elements exceed ``MAX_GRAM_ELEMENTS``.

    Callers that can count the elements before listing them (``gram --n``)
    check first, so an oversized request builds nothing.
    """
    if m > MAX_GRAM_ELEMENTS:
        raise ResourceGuardError(
            f"a Gram matrix of {m} elements exceeds the dense route's guard "
            f"MAX_GRAM_ELEMENTS = {MAX_GRAM_ELEMENTS}"
        )


def gram_matrix(
    state,
    elements: Sequence[PartialBijection],
    ordering: str = STAR_JI,
) -> GramReport:
    """The Gram matrix of the chosen ordering with its exact PSD certificate.

    ``state`` is a ``State`` or any value function, as for the sweeps.  More
    than ``MAX_GRAM_ELEMENTS`` elements raise ResourceGuardError before any
    entry is built.
    """
    f = _value_fn(state)
    elems = tuple(elements)
    check_gram_size(len(elems))
    if len(set(elems)) != len(elems):
        raise ValueError("Gram elements must be distinct")
    if ordering not in (STAR_JI, I_STAR_J):
        raise ValueError(f"unknown ordering {ordering!r}")
    stars = [rj.star() for rj in elems]
    if ordering == STAR_JI:
        rows = [[f(compose(sj, ri)) for sj in stars] for ri in elems]
    else:
        rows = [[f(compose(ri, sj)) for sj in stars] for ri in elems]
    matrix = linalg.RationalMatrix.from_rows(rows)
    return GramReport(elems, ordering, matrix, linalg.psd_certificate(matrix))


# --- property sweeps ----------------------------------------------------------


def _value_fn(state) -> Callable[[PartialBijection], Fraction]:
    return state.value if hasattr(state, "value") else state


def check_centrality(state, n: int) -> CheckReport:
    """f(r s) = f(s r) for every r in R_n and permutation s of 1..n."""
    f = _value_fn(state)
    perms = list(symmetric_group(n))
    return tally("centrality", n, (
        f"r={r.literal()} s={s.literal()}" if f(compose(r, s)) != f(compose(s, r)) else None
        for r in enumerate_rn(n)
        for s in perms
    ))


def check_multiplicativity(state, n: int) -> CheckReport:
    """f(r1 r2) = f(r1) f(r2) whenever the supports are disjoint."""
    f = _value_fn(state)
    elems = [(e, e.support(), f(e)) for e in enumerate_rn(n)]
    return tally("multiplicativity", n, (
        f"r1={r1.literal()} r2={r2.literal()}" if f(compose(r1, r2)) != v1 * v2 else None
        for i, (r1, s1, v1) in enumerate(elems)
        for r2, s2, v2 in elems[i:]
        if not s1 & s2
    ))


def check_star_symmetry(state, n: int) -> CheckReport:
    """f(r*) = f(r); values are real rationals, so conjugation is trivial."""
    f = _value_fn(state)
    failures = (r.literal() if f(r.star()) != f(r) else None for r in enumerate_rn(n))
    return tally("star-symmetry", n, failures)


def check_conjugation_invariance(state, n: int) -> CheckReport:
    """f(s r s^-1) = f(r) for every r in R_n and permutation s of 1..n."""
    f = _value_fn(state)
    perms = [(s, s.star()) for s in symmetric_group(n)]
    return tally("conjugation-invariance", n, (
        f"r={r.literal()} s={s.literal()}" if f(compose(compose(s, r), s_inv)) != base else None
        for r in enumerate_rn(n)
        for base in (f(r),)
        for s, s_inv in perms
    ))
