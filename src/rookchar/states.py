"""Central states: one parameterized family, evaluated multiplicatively.

A state is determined by two nonincreasing positive rational sequences
``alpha``, ``beta`` with total mass at most 1, plus an optional *mark*
``(i, t)`` selecting one alpha entry and a weight t in [0, 1].  Its value on
an element is the product over the quasi-cycle decomposition:

* a plain cycle of length n contributes Thoma's power sum
  ``p_n(alpha|beta) = sum(alpha_j^n) + (-1)^(n-1) sum(beta_j^n)``;
* a quasi-cycle with an orbit of n points (a trivial one counts as n = 1)
  contributes ``t * alpha_i^n`` when the mark is present and 0 otherwise.

With the mark absent this covers the zero-extension states (including the
sign state alpha=(), beta=(1,)); with alpha=(1,) and t=1 it degenerates to
the constant 1.

Values are memoised per conjugacy class: the states are S_infinity-invariant,
f(s r s^-1) = f(r) for every finitary permutation s, so a value depends only on
the element's class key :func:`~rookchar.quasicycles.conjugacy_invariant`.
Each parameter set keeps one :func:`~rookchar.quasicycles.power_sums` table, a
:class:`~rookchar.quasicycles.ClassFunction` with bounded memos from image
tuple and from class key to value, as the tensor model's closed form does;
``state.table(r)`` is the value on r.  An element met before costs one
dictionary lookup; a new one an orbit-length count of its image tuple plus a
class lookup, and no decomposition is built.

The four state sweeps (centrality, conjugation invariance, multiplicativity,
star symmetry) run on image tuples padded to length n
(:func:`~rookchar.elements.padded_rn`), and so does :func:`gram_matrix`, on
its elements padded to their largest bound.  Products are gathers over those
tuples (:func:`~rookchar.elements.gather`), stars are
:func:`~rookchar.elements.invert_images`, and a table's values are read with
``of_images``; any other value function is a callable handed the element
with those images.  An element is built only to name a violation.
A class function takes the same value on r and r*, so its Gram matrix is
evaluated on one triangle and mirrored.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import linalg  # through the module, so linalg runs only when a Gram is built
from .elements import MAX_ENUMERATION_GROUND_SET, PartialBijection, gather, invert_images, padded_rn
from .errors import (
    I_STAR_J,
    STAR_JI,
    CheckReport,
    ParseError,
    Record,
    ResourceGuardError,
    json_array,
    json_fraction,
    json_int,
    json_object,
    tally,
)
from .quasicycles import ClassFunction, power_sums

# The dense Gram route builds and certifies an m x m matrix of Fractions, so
# m is guarded: R_4's 209 elements pass, R_5's 1546 would run for hours.
MAX_GRAM_ELEMENTS = 1024
# Its m^2 products are image tuples padded to the largest bound w, so m^2 w
# is guarded too; any 1024 elements of R_7 pass.
MAX_GRAM_IMAGES = MAX_GRAM_ELEMENTS**2 * MAX_ENUMERATION_GROUND_SET

# The largest n the pair sweeps (centrality, conjugation invariance,
# multiplicativity) check.  They compare |R_n| * n! or ~|R_n|^2 / 2 pairs:
# 9.6 M centrality cases at n = 6, 660 M at n = 7.
MAX_PAIR_SWEEP_N = 6

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
            tuple(json_fraction(a, "alpha entry") for a in alpha),
            tuple(json_fraction(b, "beta entry") for b in beta),
        )


def thoma_character(p: ThomaParams, n: int) -> Fraction:
    """The character's value on a plain cycle of length n >= 2: the power sum p_n(alpha|beta)."""
    if n < 2:
        raise ValueError("cycle length must be >= 2")
    return power_sums(p.alpha, p.beta).cycle(n)


def _value_table(alpha: tuple[Fraction, ...], beta: tuple[Fraction, ...],
                 mark: tuple[int, Fraction] | None) -> ClassFunction:
    """The family's value function for one parameter set: the power sums of
    (alpha, beta) with the one marked pair (alpha_i, t) of the mark ``(i, t)``,
    which must name an alpha entry, or none with no mark."""
    marked = ()
    if mark is not None:
        i, t = mark
        if not 1 <= i <= len(alpha):
            raise ValueError(f"marked index {i} out of range")
        marked = ((alpha[i - 1], t),)
    return power_sums(alpha, beta, marked)


class State(Record):
    """A validated state specification.

    ``table`` holds this state's values, memoised by element and by
    conjugacy class: ``table(r)`` is the value on r.  It is not a field, so
    it takes no part in equality, hashing or the repr.
    """

    _fields = ("thoma", "mark")
    __slots__ = _fields + ("table",)

    def __init__(self, thoma: ThomaParams, mark: tuple[int, Fraction] | None = None):
        table = _value_table(thoma.alpha, thoma.beta, mark)  # checks the mark's index
        if mark is not None and not 0 <= mark[1] <= 1:
            raise ValueError(f"weight t={mark[1]} outside [0, 1]")
        self._set(thoma, mark, table)

    @property
    def quasi_base(self) -> Fraction:
        """alpha_i of the marked entry, or 0 with no mark."""
        return Fraction(0) if self.mark is None else self.thoma.alpha[self.mark[0] - 1]

    @property
    def weight(self) -> Fraction:
        """t of the mark, or 0 with no mark."""
        return Fraction(0) if self.mark is None else self.mark[1]

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
        data = json_object(data, "the top level", ("alpha", "beta", "mark"))
        alpha, beta = (json_array(data.get(key, []), key) for key in ("alpha", "beta"))
        mark = data.get("mark")
        if mark is not None:
            mark = json_object(mark, "mark", ("i", "t"))
            mark = (json_int(mark["i"], "mark 'i'"), json_fraction(mark["t"], "mark 't'"))
        return (
            tuple(json_fraction(a, "alpha entry") for a in alpha),
            tuple(json_fraction(b, "beta entry") for b in beta),
            mark,
        )
    except KeyError as exc:  # only the mark's fields are looked up by key
        raise ParseError(f"malformed state JSON: mark needs {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"malformed state JSON: {exc}") from exc


def make_state(alpha: Iterable = (), beta: Iterable = (), mark=None) -> State:
    """Validate and build a state; raises ValueError on bad parameters."""
    if mark is not None:
        i, t = mark
        mark = (json_int(i, "mark index"), json_fraction(t, "mark weight"))
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
    return state.table(r)


def unchecked_value_fn(data: dict) -> ClassFunction:
    """The family's value formula on JSON parameters, with no validation.

    A testing aid: parameters outside the state conditions (say mass > 1)
    define no state, but their Gram matrices still get certified, and the
    certifier answers with a genuine NotPSD witness.  A mark must still name
    an alpha entry, since the formula reads it.
    """
    return _value_table(*_json_params(data))


class FactorTypeVerdict(Record):
    __slots__ = _fields = ("kind", "note")


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

    def to_json(self) -> dict:
        return {
            "elements": [e.literal() for e in self.elements],
            "ordering": self.ordering,
            "matrix": self.matrix.to_json_rows(),
            "certificate": self.certificate.to_json(),
        }


def check_gram_size(m: int, w: int) -> None:
    """Refuse m elements over ``MAX_GRAM_ELEMENTS``, or m elements padded to w
    points with m^2 w over ``MAX_GRAM_IMAGES``.

    Callers that can bound both before listing or parsing the elements
    (``gram --n``, ``gram --elems``) check first, so an oversized request
    builds nothing.
    """
    if m > MAX_GRAM_ELEMENTS:
        raise ResourceGuardError(
            f"a Gram matrix of {m} elements exceeds the dense route's guard "
            f"MAX_GRAM_ELEMENTS = {MAX_GRAM_ELEMENTS}"
        )
    if m * m * w > MAX_GRAM_IMAGES:
        raise ResourceGuardError(f"{m} elements padded to {w} points exceed the "
                                 f"Gram guard m^2 w <= MAX_GRAM_IMAGES = {MAX_GRAM_IMAGES}")


def gram_matrix(
    state,
    elements: Sequence[PartialBijection],
    ordering: str = STAR_JI,
) -> GramReport:
    """The Gram matrix of the chosen ordering with its exact PSD certificate.

    ``state`` is a ``State`` or any value function, as for the sweeps.  More
    than ``MAX_GRAM_ELEMENTS`` elements, or m elements of largest bound w with
    m^2 w > ``MAX_GRAM_IMAGES``, raise ResourceGuardError before any padding.

    Products are gathers over the image tuples padded to the largest bound.
    When the values come from a class function (a ``State``'s table, an
    ``unchecked_value_fn`` table or a model's), entry (j, i) is the value of
    the star of entry (i, j)'s product, which has the same conjugacy
    invariant, so each unordered pair is evaluated once and the matrix is
    mirrored.  Any other
    value function is evaluated on both triangles, and the certificate's
    symmetry check sees its own values.
    """
    elems = tuple(elements)
    w = max((len(r.images) for r in elems), default=0)
    check_gram_size(len(elems), w)
    if len(set(elems)) != len(elems):
        raise ValueError("Gram elements must be distinct")
    if ordering not in (STAR_JI, I_STAR_J):
        raise ValueError(f"unknown ordering {ordering!r}")
    f = _images_fn(state)
    padded = [r.images + tuple(range(len(r.images) + 1, w + 1)) for r in elems]
    stars = [invert_images(p) for p in padded]
    # cells[u][v] = f(t_v s_u) with s_u acting first: under starJI s = r and
    # t = r*, so cells is the matrix f(r_j* r_i); under iStarJ s = r* and
    # t = r, so it is the matrix's transpose f(r_j r_i*).
    firsts, thens = (padded, stars) if ordering == STAR_JI else (stars, padded)
    acts = [gather(_zero_padded(s)) for s in firsts]  # (None,) + t -> t s
    exts = [(None,) + t for t in thens]
    if _class_table(state) is None:
        cells = [[f(act(t)) for t in exts] for act in acts]
        rows = cells if ordering == STAR_JI else [list(col) for col in zip(*cells)]
    else:
        rows = [[f(act(t)) for t in exts[: u + 1]] for u, act in enumerate(acts)]
        for u, row in enumerate(rows):
            row.extend([rows[v][u] for v in range(u + 1, len(rows))])
    matrix = linalg.RationalMatrix.from_rows(rows)
    return GramReport(elems, ordering, matrix, linalg.psd_certificate(matrix))


# --- property sweeps ----------------------------------------------------------
#
# The sweeps run on padded image tuples (see the module docstring).  Values
# are compared by identity first and by ``==`` only when the objects differ:
# a table returns the one Fraction it holds per class.


def _class_table(state) -> ClassFunction | None:
    """The table a State or a ClassFunction reads, else None."""
    table = state.table if isinstance(state, State) else state
    return table if isinstance(table, ClassFunction) else None


def _images_fn(state) -> Callable[[tuple[int | None, ...]], Fraction]:
    """``images -> value``: a State or a table reads the table, any other
    value function is a callable handed the element."""
    table = _class_table(state)
    if table is not None:
        return table.of_images
    return lambda images: state(PartialBijection(images))


def _literal(images: tuple[int | None, ...]) -> str:
    return PartialBijection(images).literal()


def _zero_padded(images: tuple[int | None, ...]) -> tuple[int, ...]:
    """The images with 0 for each point outside the domain: gather indices
    into ``(None,) + s``, whose entry 0 is None."""
    return tuple([0 if y is None else y for y in images])


def _check_pair_sweep(suite: str, n: int) -> None:
    """Raise ResourceGuardError before a pair sweep over R_n with n > ``MAX_PAIR_SWEEP_N``."""
    if n > MAX_PAIR_SWEEP_N:
        raise ResourceGuardError(
            f"the {suite} sweep at n = {n} exceeds the guard MAX_PAIR_SWEEP_N = {MAX_PAIR_SWEEP_N}"
        )


def check_centrality(state, n: int) -> CheckReport:
    """f(r s) = f(s r) for every r in R_n and permutation s of 1..n."""
    _check_pair_sweep("centrality", n)
    f = _images_fn(state)
    # Permutations of 1..n as image tuples, in symmetric_group's order.
    perms = [(s, gather([y - 1 for y in s]), (None,) + s)
             for s in itertools.permutations(range(1, n + 1))]

    def failures():
        for r in padded_rn(n):
            left = gather(_zero_padded(r))  # (None,) + s -> s r
            for s, right, s_ext in perms:  # right: r -> r s
                a, b = f(right(r)), f(left(s_ext))
                yield None if a is b or a == b else f"r={_literal(r)} s={_literal(s)}"

    return tally("centrality", n, failures())


def check_multiplicativity(state, n: int) -> CheckReport:
    """f(r1 r2) = f(r1) f(r2) whenever the supports are disjoint.

    The product of two values is a new Fraction, so it compares by ``==``.
    """
    _check_pair_sweep("multiplicativity", n)
    f = _images_fn(state)
    elems = [
        (r, (None,) + r, gather(_zero_padded(r)),
         sum(1 << x for x, y in enumerate(r, start=1) if y != x), f(r))
        for r in padded_rn(n)
    ]

    def failures():
        for i, (r1, r1_ext, _, support1, v1) in enumerate(elems):
            for r2, _, times_r2, support2, v2 in elems[i:]:  # times_r2: (None,) + r1 -> r1 r2
                if not support1 & support2:
                    yield (None if f(times_r2(r1_ext)) == v1 * v2
                           else f"r1={_literal(r1)} r2={_literal(r2)}")

    return tally("multiplicativity", n, failures())


def check_star_symmetry(state, n: int) -> CheckReport:
    """f(r*) = f(r); values are real rationals, so conjugation is trivial."""
    f = _images_fn(state)

    def failures():
        for r in padded_rn(n):
            a, b = f(invert_images(r)), f(r)
            yield None if a is b or a == b else _literal(r)

    return tally("star-symmetry", n, failures())


def check_conjugation_invariance(state, n: int) -> CheckReport:
    """f(s r s^-1) = f(r) for every r in R_n and permutation s of 1..n."""
    _check_pair_sweep("conjugation-invariance", n)
    f = _images_fn(state)
    perms = [(s, (None,) + s, gather([y - 1 for y in invert_images(s)]))
             for s in itertools.permutations(range(1, n + 1))]

    def failures():
        for r in padded_rn(n):
            base = f(r)
            left = gather(_zero_padded(r))  # (None,) + s -> s r
            for s, s_ext, right_inv in perms:  # right_inv: x -> x s^-1
                a = f(right_inv(left(s_ext)))
                yield None if a is base or a == base else f"r={_literal(r)} s={_literal(s)}"

    return tally("conjugation-invariance", n, failures())
