"""Finite-dimensional product-state oracles.

The data is a self-adjoint operator A stored in its eigenbasis (``a_diag``),
a marked unit vector v (stored through its squared entries so closed forms
stay rational), a set of *regular* coordinates that absorb the leftover mass
1 - sum|a| slot by slot, and a truncation depth N.  A :class:`ModelParams`
checks the admissibility conditions (a)-(f) when it is built, so every
instance is valid and nothing downstream checks them again.

Two independent evaluation routes are provided:

* :func:`phi_closed_form` reads the parameters' table: Thoma's power sums
  (:func:`~rookchar.quasicycles.power_sums`) of the signed eigenvalues, with
  the positive ones weighted by v_a^2 for quasi-cycles -- exact rationals;
* :func:`phi_model` takes a :class:`TensorEmbedding`, which holds its
  parameters, and applies the generator images on the N-fold tensor
  power along a generator word (a slot swap with a sign twist over the
  negative spectral block for each adjacent transposition, the rank-1
  projection onto v in slot 1 for e{1}) and traces against the product
  state.  Only the basis columns where the product state is nonzero are
  walked, and each stays a scalar times a product tensor under every
  letter, so the walk keeps N factor labels per column and forms no
  ``d^N``-long vector.

At finite truncation a genuinely infinite regular block is unavailable, so
slot k recycles regular coordinate k mod #regular.  With one regular
coordinate per slot (the layout :func:`model_from_state` declares) no two
slots share one, and the two routes agree on every element.  With fewer,
plain cycles whose slots collide on one regular coordinate pick up a
spurious (1 - sum|a|)^len term; with sum|a| = 1 (empty regular set) there is
nothing to recycle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import states  # for an annotation only: its body does not run
from .elements import PartialBijection, transposition
from .quasicycles import power_sums
from .words import EPS1, element_to_word
from .errors import (
    ParseError, Record, ResourceGuardError, json_array, json_fraction, json_int, json_object)


class ModelParams(Record):
    """Admissible model parameters: every instance satisfies conditions (a)-(f).

    The constructor checks the shapes, then the admissibility conditions (a)
    Tr|A| <= 1, (b) |v| = 1, (c) and (d) regular coordinates exactly when
    Tr|A| < 1, (e) v = 0 on the negative block, (f) v = 0 on the regular
    coordinates, (range) eigenvalues in [-1, 1] and (regular-kernel) A = 0 on
    the regular coordinates, and names every condition that fails:

    >>> ModelParams.of(["2/3", "-1/3", "0"], ["1/2", "0", "1/2"]).spectral_mass
    Fraction(1, 1)
    >>> ModelParams.of(["3/4", "-2/5"], ["1", "0"], slots=2)
    Traceback (most recent call last):
    ...
    ValueError: invalid model parameters: (a) trace norm of A is 23/20; (d) leftover spectral mass needs at least one regular coordinate
    """

    _fields = ("a_diag", "v_sq", "regular", "slots")
    # table: phi_closed_form's ClassFunction; not a field, so not compared or hashed.
    __slots__ = _fields + ("table",)

    def __init__(self, a_diag: tuple[Fraction, ...], v_sq: tuple[Fraction, ...],
                 regular: tuple[int, ...], slots: int):
        if len(v_sq) != len(a_diag):
            raise ValueError("v and a_diag must have the same dimension")
        if slots < 1:
            raise ValueError("need at least one tensor slot")
        d = len(a_diag)
        if len(set(regular)) != len(regular) or any(not 1 <= j <= d for j in regular):
            raise ValueError("regular coordinates must be distinct indices in 1..d")
        if any(q < 0 for q in v_sq):
            raise ValueError("squared vector entries must be nonnegative")
        mass, norm = sum((abs(a) for a in a_diag), Fraction(0)), sum(v_sq)
        # Formatted only on failure: a valid mass may be too long to print.
        conditions = (
            ("a", mass <= 1, "trace norm of A is {mass}"),
            ("b", norm == 1, "v has squared norm {norm}"),
            (
                "c",
                mass < 1 or not regular,
                "full spectral mass leaves no room for regular coordinates",
            ),
            (
                "d",
                mass == 1 or bool(regular),
                "leftover spectral mass needs at least one regular coordinate",
            ),
            (
                "e",
                all(q == 0 for a, q in zip(a_diag, v_sq) if a < 0),
                "v must vanish on the negative spectral block",
            ),
            (
                "f",
                all(v_sq[j - 1] == 0 for j in regular),
                "v must vanish on the regular coordinates",
            ),
            (
                "range",
                all(-1 <= a <= 1 for a in a_diag),
                "eigenvalues must lie in [-1, 1]",
            ),
            (
                "regular-kernel",
                all(a_diag[j - 1] == 0 for j in regular),
                "regular coordinates must carry eigenvalue 0",
            ),
        )
        failures = [f"({code}) " + detail.format(mass=mass, norm=norm)
                    for code, ok, detail in conditions if not ok]
        if failures:
            raise ValueError("invalid model parameters: " + "; ".join(failures))
        table = power_sums([a for a in a_diag if a > 0], [-a for a in a_diag if a < 0],
                           [(a, q) for a, q in zip(a_diag, v_sq) if a > 0 and q])
        self._set(a_diag, v_sq, regular, slots, table)

    @staticmethod
    def of(a_diag: Iterable, v_sq: Iterable, regular: Iterable[int] = (), slots: int = 4) -> "ModelParams":
        return ModelParams(
            tuple(json_fraction(a, "a_diag entry") for a in a_diag),
            tuple(json_fraction(q, "v_sq entry") for q in v_sq),
            tuple(sorted(json_int(j, "regular coordinate") for j in regular)),
            json_int(slots, "slots"),
        )

    @property
    def d(self) -> int:
        return len(self.a_diag)

    @property
    def spectral_mass(self) -> Fraction:
        return sum((abs(a) for a in self.a_diag), Fraction(0))

    def to_json(self) -> dict:
        return {
            "a_diag": [str(a) for a in self.a_diag],
            "v": [_format_sqrt(q) for q in self.v_sq],
            "regular": list(self.regular),
            "N": self.slots,
        }

    @staticmethod
    def from_json(data: dict) -> "ModelParams":
        try:
            data = json_object(data, "the top level", ("a_diag", "v", "regular", "N"))
            a_diag, v = (json_array(data[key], key) for key in ("a_diag", "v"))
            regular = json_array(data.get("regular", []), "regular")
            slots = json_int(data["N"], "'N'")
            return ModelParams.of(a_diag, map(_parse_sqrt, v), regular, slots)
        except KeyError as exc:
            raise ParseError(f"malformed model parameters: missing {exc}") from exc
        except ParseError as exc:
            raise ParseError(f"malformed model parameters: {exc}") from exc


def _format_sqrt(q: Fraction) -> str:
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return str(Fraction(rn, rd))
    return f"sqrt({q})"


def _parse_sqrt(token) -> Fraction:
    """v_j^2 from a ``v`` entry: a number or rational string squared, or q from ``"sqrt(q)"``."""
    if not isinstance(token, str):
        return json_fraction(token, "v entry") ** 2
    token = token.strip()
    root = token.startswith("sqrt(") and token.endswith(")")
    try:
        q = json_fraction(token[5:-1] if root else token, "v entry")
    except ParseError as exc:
        raise ParseError(f"bad vector entry {token!r}") from exc
    return q if root else q**2


# --- closed-form route --------------------------------------------------------


def phi_closed_form(p: ModelParams, r: PartialBijection) -> Fraction:
    """Exact state value: the product over r's class key (its part sizes) of
    Tr(q |A|) per trivial point, Tr(q A^{len-1} |A|) per quasi-cycle and
    Tr(A^{len-1} |A|) per plain cycle.  For a = -b < 0, a^(n-1) |a| =
    (-1)^(n-1) b^n, and condition (e) puts no v-weight on it, so these traces
    are the power sums that ``p.table`` holds.
    """
    return p.table(r)


# --- product-tensor route ------------------------------------------------------


# The most tensor slots N an embedding takes, checked before anything is
# built per slot.  A column holds N labels, so with d = 1 (one column) the
# Okounkov check still grows as N^3.
MAX_SLOTS = 12
# The most support columns |S| an embedding walks, counted before any is built.
MAX_COLUMNS = 4096


class TensorEmbedding:
    """Generator images on the N-fold tensor power and the product state.

    A basis column e_s = e_{s_1} (x) ... (x) e_{s_N} stays one scalar times a
    product tensor c f_1 (x) ... (x) f_N under every generator, each factor a
    basis vector e_i or the marked vector v.  It is stored as ``(c, factors)``
    with a factor's label: i - 1 for e_i and ``d`` for v.  T(s_k) swaps
    factors k and k+1 and negates c when both lie in the negative spectral
    block; T(e{1}) replaces f_1 by <v, f_1> v.  By condition (e) v vanishes on
    the negative block, so moving v past any factor needs no sign.

    The product state's k-th slot density is |A| + (1 - Tr|A|) e_jj on the
    k-th recycled regular coordinate j.  A state value reads only the columns
    S where the product density is nonzero, so ``image(r)`` is the list of
    T(r) e_s over s in S, and the state and pair values are sums over S of
    rho_s times inner products taken slot by slot: <e_i, e_j> = delta_ij,
    <e_i, v> = v_i and <v, v> = 1.  The embedding holds O(|S| N) numbers and
    a word of length L costs O(|S| L).  ``MAX_SLOTS`` bounds N and
    ``MAX_COLUMNS`` bounds |S|; ``dim`` is d^N, which nothing allocates.
    """

    def __init__(self, params: ModelParams):
        if params.slots > MAX_SLOTS:
            raise ResourceGuardError(
                f"N = {params.slots} tensor slots exceed the guard MAX_SLOTS = {MAX_SLOTS}"
            )
        self.params = params
        self.d = d = params.d
        self.slots = params.slots
        a = [float(x) for x in params.a_diag]
        v = [math.sqrt(float(q)) for q in params.v_sq]
        self._neg = [x < 0 for x in params.a_diag] + [False]
        # _inner[i][j] = <f_i, f_j> over factor labels; row and column d are v.
        self._inner = [[float(i == j) for j in range(d)] + [v[i]] for i in range(d)]
        self._inner.append(v + [1.0])
        # _a_inner[i][j] = <f_i, A f_j>, pair_value_diag's slot table.
        self._a_inner = [[a[i] if i == j else 0.0 for j in range(d)] + [a[i] * v[i]]
                         for i in range(d)]
        self._a_inner.append([a[i] * v[i] for i in range(d)]
                             + [sum(x * w * w for x, w in zip(a, v))])

        leftover = 1.0 - float(params.spectral_mass)
        slot_weights = []
        for k in range(1, self.slots + 1):
            rho = [abs(x) for x in a]
            if params.regular and leftover:
                j = params.regular[(k - 1) % len(params.regular)]
                rho[j - 1] += leftover
            slot_weights.append([(i, w) for i, w in enumerate(rho) if w])
        columns = math.prod(len(weights) for weights in slot_weights)
        if columns > MAX_COLUMNS:
            raise ResourceGuardError(
                f"the product state's support has {columns} columns, over the guard "
                f"MAX_COLUMNS = {MAX_COLUMNS}"
            )
        self.dim = d**self.slots
        # The support S in row-major order of the d^N basis, each column at c = 1.
        self._columns = []
        self._rho_s = []
        for combo in itertools.product(*slot_weights):
            self._columns.append((1.0, tuple(i for i, _ in combo)))
            self._rho_s.append(math.prod(w for _, w in combo))

    def apply(self, r: PartialBijection, columns: list) -> list:
        """T(r) applied to each product tensor ``(c, factors)`` of ``columns``."""
        if r.bound > self.slots:
            raise ValueError(
                f"support of {r.literal()} exceeds the {self.slots} tensor slots"
            )
        # The rightmost letter of a word acts first.
        word = element_to_word(r)[::-1]
        v_label, along_v, neg = self.d, self._inner[self.d], self._neg
        out = []
        for c, factors in columns:
            f = list(factors)
            for letter in word:
                if letter == EPS1:
                    c *= along_v[f[0]]
                    f[0] = v_label
                    if not c:  # the zero tensor: its factors no longer matter
                        break
                else:
                    i, j = f[letter - 1], f[letter]
                    if neg[i] and neg[j]:
                        c = -c
                    f[letter - 1], f[letter] = j, i
            out.append((c, f))
        return out

    def image(self, r: PartialBijection) -> list:
        """T(r) e_s for each support column s in S, as product tensors."""
        return self.apply(r, self._columns)

    def _psi(self, ys: list, xs: list, tables: list) -> float:
        """sum_s rho_s <y_s, M x_s> for the slot-wise operator M whose slot k
        inner products ``tables[k - 1]`` holds."""
        total = 0.0
        for rho, (cy, fy), (cx, fx) in zip(self._rho_s, ys, xs):
            value = rho * cy * cx
            if value:
                for table, i, j in zip(tables, fy, fx):
                    value *= table[i][j]
                total += value
        return total

    def state_value(self, r: PartialBijection) -> float:
        """psi(T(r)) = sum_s rho_s <e_s, T(r) e_s> over the support columns."""
        return self._psi(self._columns, self.image(r), [self._inner] * self.slots)

    def pair_value(self, mids: Sequence[PartialBijection], tx: list, ty: list) -> float:
        """<pi(m_1 ... m_j) x xi, y xi> = psi(T(y)^T T(m_1) ... T(m_j) T(x)).

        ``tx`` and ``ty`` are the support-column images ``image(x)`` and
        ``image(y)``; the middle elements are applied to ``tx`` one at a
        time, rightmost first.
        """
        z = tx
        for m in reversed(mids):
            z = self.apply(m, z)
        return self._psi(ty, z, [self._inner] * self.slots)

    def pair_value_diag(self, k: int, tx: list, ty: list) -> float:
        """psi(T(y)^T A T(x)) for A acting in slot k."""
        tables = [self._inner] * self.slots
        tables[k - 1] = self._a_inner
        return self._psi(ty, tx, tables)


def phi_model(embedding: TensorEmbedding, r: PartialBijection) -> float:
    """The product state of T(r) on the tensor power; the independent oracle for the closed form."""
    return embedding.state_value(r)


# --- Okounkov operators ---------------------------------------------------------


class OkounkovReport(Record):
    __slots__ = _fields = ("slot", "x", "y", "target", "values", "max_deviation")

    def to_json(self) -> dict:
        return {
            "slot": self.slot,
            "x": self.x,
            "y": self.y,
            "target": self.target,
            "values": {str(n): v for n, v in self.values},
            "max_deviation": self.max_deviation,
        }


def _okounkov_setup(emb: TensorEmbedding, k: int, x: PartialBijection,
                    y: PartialBijection) -> tuple:
    """The admissible slots n, the images of x and y, and the A-insertion."""
    if k < 1:
        raise ValueError(f"slot index {k} out of range: slots start at 1")
    blocked = x.support() | y.support() | {k}
    if max(blocked) > emb.slots - 1:
        raise ValueError("supports of x, y and the slot must stay below N")
    admissible = [n for n in range(1, emb.slots + 1) if n not in blocked]
    tx, ty = emb.image(x), emb.image(y)
    target = emb.pair_value_diag(k, tx, ty)
    return admissible, tx, ty, target


def okounkov_check(
    embedding: TensorEmbedding, k: int, x: PartialBijection, y: PartialBijection
) -> OkounkovReport:
    """Compare <pi((k n)) x xi, y xi> across admissible n with the A-insertion.

    The weak limit of the transposition images acts as A in slot k; on the
    truncated model every admissible n already gives the limit value, so the
    report's deviation is expected to be ~1e-16.
    """
    admissible, tx, ty, target = _okounkov_setup(embedding, k, x, y)
    values = [(n, embedding.pair_value((transposition(k, n),), tx, ty)) for n in admissible]
    max_dev = max((abs(v - target) for _, v in values), default=0.0)
    return OkounkovReport(k, x.literal(), y.literal(), target, tuple(values), max_dev)


def okounkov_projection_check(
    embedding: TensorEmbedding, k: int, x: PartialBijection, y: PartialBijection
) -> float:
    """Max deviation of double-transposition values from the single target.

    When A is a projection (eigenvalues in {0, 1}) the limit operator must
    satisfy P^2 = P, so <pi((k n)) pi((k m)) x xi, y xi> equals the single
    insertion for distinct admissible n, m.  Fewer than two admissible slots
    leave no pair to compare and raise ValueError.
    """
    if any(a not in (0, 1) for a in embedding.params.a_diag):
        raise ValueError("projection law requires eigenvalues in {0, 1}")
    admissible, tx, ty, target = _okounkov_setup(embedding, k, x, y)
    if len(admissible) < 2:
        raise ValueError(
            f"the projection law needs two admissible slots outside the supports of x, y "
            f"and the slot, found {len(admissible)}"
        )
    return max(
        abs(embedding.pair_value((transposition(k, n), transposition(k, m)), tx, ty) - target)
        for n in admissible
        for m in admissible
        if n != m
    )


# --- bridge from the state family ---------------------------------------------


def model_from_state(state: states.State, slots: int = 4) -> ModelParams:
    """Model parameters whose closed form reproduces the state exactly.

    The spectrum lists alpha then -beta; the marked vector splits its mass
    between the marked alpha coordinate (weight t) and a fresh kernel
    coordinate (weight 1 - t); leftover spectral mass gets one declared
    regular coordinate per slot, so the tensor model agrees with the closed
    form on every element that fits the slots.
    """
    a: list[Fraction] = list(state.thoma.alpha) + [-b for b in state.thoma.beta]
    v_sq: list[Fraction] = [Fraction(0)] * len(a)
    t = state.weight
    if state.mark is not None:
        v_sq[state.mark[0] - 1] = t
    if t < 1:
        a.append(Fraction(0))
        v_sq.append(1 - t)
    regular: tuple[int, ...] = ()
    if sum(abs(x) for x in a) < 1:
        regular = tuple(range(len(a) + 1, len(a) + slots + 1))
        a.extend([Fraction(0)] * slots)
        v_sq.extend([Fraction(0)] * slots)
    return ModelParams(tuple(a), tuple(v_sq), regular, slots)
