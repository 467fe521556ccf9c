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
parameter set keeps one table from invariant to value (:class:`ValueTable`),
and an element costs a cached decomposition plus one dictionary lookup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .elements import PartialBijection, compose, enumerate_rn, symmetric_group
from .errors import CheckReport, ParseError, json_int
from .linalg import PsdCertificate, RationalMatrix, psd_certificate
from .quasicycles import ConjugacyInvariant, decompose

# Gram orderings: entry (i, j) is f(r_j* r_i) for STAR_JI (the default) and
# f(r_i r_j*) for I_STAR_J.
STAR_JI = "starJI"
I_STAR_J = "iStarJ"

TYPE_I_INF = "TypeIinf"
TYPE_II_INF = "TypeIIinf"
TYPE_II_1 = "TypeII1"
TYPE_II_1_OR_SCALAR = "TypeII1orScalar"
UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class ThomaParams:
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self):
        for name, seq in (("alpha", self.alpha), ("beta", self.beta)):
            for x in seq:
                if x <= 0:
                    raise ValueError(f"{name} entries must be positive, got {x}")
            if any(a < b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be nonincreasing: {seq}")
        if sum(self.alpha) + sum(self.beta) > 1:
            raise ValueError("alpha and beta mass exceeds 1")

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
    """The family's value function for one parameter set, memoised by class.

    ``by_class`` maps each conjugacy invariant met so far to its value.  On a
    miss the value is the product of the cycle factors, ``t * base**n`` for
    each quasi-cycle of n points and ``(t * base)**trivial_count``.
    """

    __slots__ = ("alpha", "beta", "t", "base", "by_class")

    def __init__(self, alpha: tuple[Fraction, ...], beta: tuple[Fraction, ...],
                 t: Fraction, base: Fraction):
        self.alpha, self.beta, self.t, self.base = alpha, beta, t, base
        self.by_class: dict[ConjugacyInvariant, Fraction] = {}

    def value(self, r: PartialBijection) -> Fraction:
        invariant = decompose(r).invariant
        try:
            return self.by_class[invariant]
        except KeyError:
            value = self.by_class[invariant] = self._class_value(invariant)
            return value

    # A table is also a plain value function; evaluate and the sweeps call
    # the method, which skips the slower call through __call__.
    __call__ = value

    def _class_value(self, invariant: ConjugacyInvariant) -> Fraction:
        value = Fraction(1)
        for n in invariant.c_partition:
            value *= _cycle_value(self.alpha, self.beta, n)
        if invariant.q_partition or invariant.trivial_count:
            if not self.t:
                return Fraction(0)
            for n in invariant.q_partition:
                value *= self.t * self.base**n
            value *= (self.t * self.base) ** invariant.trivial_count
        return value


@dataclass(frozen=True)
class State:
    """A validated state specification; also usable directly as the state."""

    thoma: ThomaParams
    mark: tuple[int, Fraction] | None = None

    def __post_init__(self):
        if self.mark is not None:
            i, t = self.mark
            if not 1 <= i <= len(self.thoma.alpha):
                raise ValueError(f"marked index {i} out of range")
            if not 0 <= t <= 1:
                raise ValueError(f"weight t={t} outside [0, 1]")

    @property
    def quasi_base(self) -> Fraction:
        """alpha_i of the marked entry, or 0 with no mark."""
        if self.mark is None:
            return Fraction(0)
        return self.thoma.alpha[self.mark[0] - 1]

    @property
    def weight(self) -> Fraction:
        return Fraction(0) if self.mark is None else self.mark[1]

    @functools.cached_property
    def table(self) -> ValueTable:
        """This state's values, memoised by conjugacy class."""
        return ValueTable(self.thoma.alpha, self.thoma.beta, self.weight, self.quasi_base)

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
        mark = (int(i), Fraction(t))
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
    alpha, beta, mark = _json_params(data)
    t, base = Fraction(0), Fraction(0)
    if mark is not None:
        i, t = mark
        if not 1 <= i <= len(alpha):
            raise ValueError(f"marked index {i} out of range")
        base = alpha[i - 1]
    return ValueTable(alpha, beta, t, base)


@dataclass(frozen=True)
class FactorTypeVerdict:
    kind: str
    note: str


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


@dataclass(frozen=True)
class GramReport:
    elements: tuple[PartialBijection, ...]
    ordering: str
    matrix: RationalMatrix
    certificate: PsdCertificate

    def to_json(self) -> dict:
        return {
            "elements": [e.literal() for e in self.elements],
            "ordering": self.ordering,
            "matrix": self.matrix.to_json_rows(),
            "certificate": self.certificate.to_json(),
        }


def gram_matrix(
    state,
    elements: Sequence[PartialBijection],
    ordering: str = STAR_JI,
) -> GramReport:
    """The Gram matrix of the chosen ordering with its exact PSD certificate.

    ``state`` is a ``State`` or any value function, as for the sweeps.
    """
    f = _value_fn(state)
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise ValueError("Gram elements must be distinct")
    if ordering not in (STAR_JI, I_STAR_J):
        raise ValueError(f"unknown ordering {ordering!r}")
    rows = []
    for ri in elems:
        row = []
        for rj in elems:
            if ordering == STAR_JI:
                row.append(f(compose(rj.star(), ri)))
            else:
                row.append(f(compose(ri, rj.star())))
        rows.append(row)
    matrix = RationalMatrix.from_rows(rows)
    return GramReport(elems, ordering, matrix, psd_certificate(matrix))


# --- property sweeps ----------------------------------------------------------


def _value_fn(state) -> Callable[[PartialBijection], Fraction]:
    return state.value if hasattr(state, "value") else state


def check_centrality(state, n: int, max_violations: int = 20) -> CheckReport:
    """f(r s) = f(s r) for every r in R_n and permutation s of 1..n."""
    f = _value_fn(state)
    checked = 0
    violations: list[str] = []
    perms = list(symmetric_group(n))
    for r in enumerate_rn(n):
        for s in perms:
            checked += 1
            if f(compose(r, s)) != f(compose(s, r)) and len(violations) < max_violations:
                violations.append(f"r={r.literal()} s={s.literal()}")
    return CheckReport("centrality", n, checked, tuple(violations))


def check_multiplicativity(state, n: int, max_violations: int = 20) -> CheckReport:
    """f(r1 r2) = f(r1) f(r2) whenever the supports are disjoint."""
    f = _value_fn(state)
    elems = list(enumerate_rn(n))
    supports = [e.support() for e in elems]
    values = [f(e) for e in elems]
    checked = 0
    violations: list[str] = []
    for i, r1 in enumerate(elems):
        for j in range(i, len(elems)):
            if supports[i] & supports[j]:
                continue
            checked += 1
            if f(compose(r1, elems[j])) != values[i] * values[j]:
                if len(violations) < max_violations:
                    violations.append(f"r1={r1.literal()} r2={elems[j].literal()}")
    return CheckReport("multiplicativity", n, checked, tuple(violations))


def check_star_symmetry(state, n: int, max_violations: int = 20) -> CheckReport:
    """f(r*) = f(r); values are real rationals, so conjugation is trivial."""
    f = _value_fn(state)
    checked = 0
    violations: list[str] = []
    for r in enumerate_rn(n):
        checked += 1
        if f(r.star()) != f(r) and len(violations) < max_violations:
            violations.append(r.literal())
    return CheckReport("star-symmetry", n, checked, tuple(violations))


def check_conjugation_invariance(state, n: int, max_violations: int = 20) -> CheckReport:
    """f(s r s^-1) = f(r) for every r in R_n and permutation s of 1..n."""
    f = _value_fn(state)
    checked = 0
    violations: list[str] = []
    perms = [(s, s.star()) for s in symmetric_group(n)]
    for r in enumerate_rn(n):
        base = f(r)
        for s, s_inv in perms:
            checked += 1
            if f(compose(compose(s, r), s_inv)) != base and len(violations) < max_violations:
                violations.append(f"r={r.literal()} s={s.literal()}")
    return CheckReport("conjugation-invariance", n, checked, tuple(violations))
