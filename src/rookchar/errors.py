"""Shared by every layer: exceptions, JSON number reading, the record base, the sweep report and its tally, guard limits."""

from fractions import Fraction
from numbers import Real

# Gram orderings: entry (i, j) is f(r_j* r_i) for STAR_JI (the default) and
# f(r_i r_j*) for I_STAR_J.  Kept here so the CLI parser can list them without
# loading ``states``.
STAR_JI = "starJI"
I_STAR_J = "iStarJ"

# The most violations a sweep records.
MAX_VIOLATIONS = 20

# The largest point a cycle or idempotent may name, and the largest ground set
# of a spherical model.  An element stores an image for every point up to its
# largest, so without it a short literal such as "(1 4000000)" would build a
# list of millions.
MAX_POINT = 2**16


class ParseError(ValueError):
    """Raised when an element literal or a JSON config cannot be parsed."""


def json_int(value, what: str) -> int:
    """An integer from outside the program: an int, an integral float or a decimal string.

    Every integer that reaches the library from JSON input or from a caller's
    arguments (a mark index, regular coordinates, a slot count) is read here.
    ``int()`` alone would truncate ``1.9`` to 1 and read ``True`` as 1; a bool,
    a float with a fractional part or any other value raises ParseError.

    >>> json_int(3, "N"), json_int(3.0, "N"), json_int("3", "N")
    (3, 3, 3)
    >>> json_int(1.9, "N")
    Traceback (most recent call last):
    ...
    rookchar.errors.ParseError: N must be an integer, got 1.9
    >>> json_int(True, "N")
    Traceback (most recent call last):
    ...
    rookchar.errors.ParseError: N must be an integer, got True
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def json_fraction(value, what: str) -> Fraction:
    """A rational from outside the program: an int, a float or a string such as ``"1/3"``.

    Every rational that reaches the library from JSON input or from a caller's
    arguments (alpha, beta, a mark weight, a_diag, squared v) is read here.
    Anything ``Fraction()`` cannot read raises ParseError naming ``what``: a
    value that is not a real number or a string (``None``, a list, an
    object), a real of a type ``Fraction()`` does not take (numpy's
    ``float32``), a string such as ``"x"`` or ``"1/0"``, and a JSON ``NaN`` or
    ``Infinity``.  So does a bool, which ``Fraction()`` would read as 1 or 0.

    >>> json_fraction("1/3", "t"), json_fraction(2, "t"), json_fraction(0.5, "t")
    (Fraction(1, 3), Fraction(2, 1), Fraction(1, 2))
    >>> json_fraction(True, "t")
    Traceback (most recent call last):
    ...
    rookchar.errors.ParseError: t must be a rational number, got True
    >>> json_fraction(None, "t")
    Traceback (most recent call last):
    ...
    rookchar.errors.ParseError: t must be a rational number, got None
    """
    if not isinstance(value, bool) and isinstance(value, (Real, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError, TypeError):
            pass
    raise ParseError(f"{what} must be a rational number, got {value!r}")


def json_array(value, what: str) -> list:
    """A list field of JSON input, which must be a JSON array.

    Iterating a string would read its characters as entries, and iterating an
    object its keys; anything but a list raises ParseError.

    >>> json_array(["1/2", 0], "alpha")
    ['1/2', 0]
    >>> json_array("10", "a_diag")
    Traceback (most recent call last):
    ...
    rookchar.errors.ParseError: a_diag must be a JSON array, got '10'
    """
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON array, got {value!r}")
    return value


def json_object(value, what: str, keys: tuple[str, ...]) -> dict:
    """A JSON object from JSON input whose keys are among ``keys``.

    Anything but a dict raises ParseError naming ``what``; so does a key
    outside ``keys``, which would otherwise be ignored (a misspelled
    ``"alpah"`` read as no alpha at all).

    >>> json_object({"i": 1, "weight": "1/3"}, "mark", ("i", "t"))
    Traceback (most recent call last):
    ...
    rookchar.errors.ParseError: mark has unknown key 'weight'; allowed keys are i, t
    """
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ParseError(
            f"{what} has unknown key{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))}; "
            f"allowed keys are {', '.join(keys)}"
        )
    return value


class ResourceGuardError(RuntimeError):
    """Raised when a request would exceed a combinatorial or memory guard."""


class Record:
    """An immutable value with named fields, like a frozen dataclass.

    A subclass names its fields in ``_fields`` and keeps them in
    ``__slots__`` (no instance ``__dict__``), followed by any derived slot
    such as a state's ``table``.  The default constructor takes one value
    per field, in order; a subclass that checks its values defines its own
    ``__init__`` and ends it with :meth:`_set`, which writes every slot, the
    derived ones included, once.  Equality, the hash and the repr are those
    of the field values, as a frozen dataclass's are, and pickling and
    copying call the constructor again.  This avoids importing
    :mod:`dataclasses`, whose import and per-class code generation cost more
    than the exact commands' own work at small sizes.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self._fields)} values "
                            f"({', '.join(self._fields)}), got {len(values)}")
        self._set(*values)

    def _set(self, *values) -> None:
        """Write the slots in ``__slots__`` order: the fields, then any derived slot."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class CheckReport(Record):
    """Outcome of one pass/fail sweep: how many cases were checked, which failed.

    ``basis`` and ``distinct_products`` are set by the Gelfand sweep only: the
    size of R_n and the number of distinct sandwiches p a p it compared.
    """

    __slots__ = _fields = ("suite", "n", "checked", "violations", "basis", "distinct_products")

    def __init__(self, suite: str, n: int, checked: int, violations: tuple[str, ...],
                 basis: int | None = None, distinct_products: int | None = None):
        self._set(suite, n, checked, violations, basis, distinct_products)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        payload = {
            "suite": self.suite,
            "n": self.n,
            "checked": self.checked,
            "ok": self.ok,
            "violations": list(self.violations),
        }
        if self.basis is not None:
            payload.update(basis=self.basis, distinct_products=self.distinct_products)
        return payload


def tally(suite: str, n: int, failures, **extra) -> CheckReport:
    """Count a sweep's cases and keep its first ``MAX_VIOLATIONS`` violation texts, in order.

    ``failures`` yields one item per case: ``None`` if it passed, the violation
    text if it failed.  ``extra`` goes to :class:`CheckReport` unchanged.

    >>> report = tally("demo", 3, (None if i % 6 == 0 else f"case {i}" for i in range(30)))
    >>> report.checked, len(report.violations), report.violations[0], report.ok
    (30, 20, 'case 1', False)
    """
    checked = 0
    violations: list[str] = []
    for failure in failures:
        checked += 1
        if failure is not None and len(violations) < MAX_VIOLATIONS:
            violations.append(failure)
    return CheckReport(suite, n, checked, tuple(violations), **extra)
