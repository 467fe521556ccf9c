"""Finite-dimensional product-state oracles.

The data is a self-adjoint operator A stored in its eigenbasis (``a_diag``),
a marked unit vector v (stored through its squared entries so closed forms
stay rational), a set of *regular* coordinates that absorb the leftover mass
1 - sum|a| slot by slot, and a truncation depth N.  A :class:`ModelParams`
checks the admissibility conditions (a)-(f) when it is built, so every
instance is valid and nothing downstream checks them again.

Two independent evaluation routes are provided:

* :func:`phi_closed_form` takes the conjugacy invariant's ``product`` of
  per-part traces over the part lengths -- exact rationals throughout;
* :func:`phi_model` takes a :class:`TensorEmbedding`, which holds its
  parameters, and applies the generator images on the N-fold tensor
  power along a generator word (an axis swap with a sign twist over the
  negative spectral block for each adjacent transposition, the rank-1
  projection onto v in slot 1 for e{1}) and traces against the product
  state.  Each letter is a row operation on the ``(d,)*N`` tensor, so no
  dense ``d^N x d^N`` product is formed and no element image is cached.  The
  word is applied only to the columns where the product state is nonzero,
  the only ones its trace reads.

At finite truncation a genuinely infinite regular block is unavailable, so
slot k recycles regular coordinate k mod #regular.  With one regular
coordinate per slot (the layout :func:`model_from_state` declares) no two
slots share one, and the two routes agree on every element.  With fewer,
plain cycles whose slots collide on one regular coordinate pick up a
spurious (1 - sum|a|)^len term; with sum|a| = 1 (empty regular set) there is
nothing to recycle.

This is the only module that imports numpy.  The package registers it
without running it, so the exact layers and commands start without numpy.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from . import states  # for an annotation only: its body does not run
from .elements import PartialBijection, transposition
from .quasicycles import images_invariant
from .words import EPS1, element_to_word
from .errors import DEFAULT_MAX_DIM, MAX_DIM_ENV, ParseError, Record, ResourceGuardError, json_int

# After the package's modules on purpose: they run lazily, and running their
# bodies after numpy's import raised the oracle commands' peak RSS by
# ~0.5 MB (heap layout), while running them first keeps it lower.
import numpy as np


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

    __slots__ = _fields = ("a_diag", "v_sq", "regular", "slots")

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
        mass = sum((abs(a) for a in a_diag), Fraction(0))
        conditions = (
            ("a", mass <= 1, f"trace norm of A is {mass}"),
            ("b", sum(v_sq) == 1, f"v has squared norm {sum(v_sq)}"),
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
        failures = [f"({code}) {detail}" for code, ok, detail in conditions if not ok]
        if failures:
            raise ValueError("invalid model parameters: " + "; ".join(failures))
        self._set(a_diag, v_sq, regular, slots)

    @staticmethod
    def of(a_diag: Iterable, v_sq: Iterable, regular: Iterable[int] = (), slots: int = 4) -> "ModelParams":
        return ModelParams(
            tuple(Fraction(a) for a in a_diag),
            tuple(Fraction(q) for q in v_sq),
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
            a_diag = tuple(Fraction(a) for a in data["a_diag"])
            v_sq = tuple(_parse_sqrt(tok) for tok in data["v"])
            regular = tuple(
                sorted(json_int(j, "regular coordinate") for j in data.get("regular", ()))
            )
            slots = json_int(data["N"], "'N'")
        except KeyError as exc:
            raise ParseError(f"malformed model parameters: missing {exc}") from exc
        except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed model parameters: {exc}") from exc
        return ModelParams(a_diag, v_sq, regular, slots)


def _format_sqrt(q: Fraction) -> str:
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return str(Fraction(rn, rd))
    return f"sqrt({q})"


def _parse_sqrt(token: str) -> Fraction:
    token = token.strip()
    try:
        if token.startswith("sqrt(") and token.endswith(")"):
            return Fraction(token[5:-1])
        return Fraction(token) ** 2
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad vector entry {token!r}") from exc


def load_params(path: str) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        return ModelParams.from_json(json.load(fh))


# --- closed-form route --------------------------------------------------------


def _tr_q_pow(p: ModelParams, m: int) -> Fraction:
    """Tr(q A^m) = <A^m v, v>."""
    return sum((a**m * q for a, q in zip(p.a_diag, p.v_sq)), Fraction(0))


def _tr_q_pow_abs(p: ModelParams, m: int) -> Fraction:
    """Tr(q A^m |A|) = <A^m |A| v, v>."""
    return sum((a**m * abs(a) * q for a, q in zip(p.a_diag, p.v_sq)), Fraction(0))


def _tr_cycle(p: ModelParams, k: int) -> Fraction:
    """Tr(A^{k-1} |A|): the plain k-cycle value."""
    return sum((a ** (k - 1) * abs(a) for a in p.a_diag), Fraction(0))


def phi_closed_form(p: ModelParams, r: PartialBijection) -> Fraction:
    """Exact state value from the per-part trace formulas.

    The value is a product over the parts of r's quasi-cycle decomposition,
    and each factor depends only on a part's kind and length, so it is the
    product over r's conjugacy invariant: Tr(q |A|) for each trivial point,
    Tr(q A^{len-1} |A|) for each quasi-cycle, Tr(A^{len-1} |A|) for each
    plain cycle.
    """
    return images_invariant(r.images).product(
        lambda n: _tr_cycle(p, n), lambda n: _tr_q_pow_abs(p, n - 1)
    )


def marked_cycle_value(p: ModelParams, k: int, marks: Sequence[int]) -> Fraction:
    """Value on the k-cycle (1 2 ... k) with the points ``marks`` killed.

    This is the multi-marked trace product: consecutive gaps between marked
    positions contribute Tr(q A^gap) and the wrap-around gap contributes
    Tr(q A^{k - a_last + a_first - 1} |A|); with no marks it is the plain
    cycle trace.  It factors through the decomposition of the same element,
    which the tests cross-check.
    """
    pos = sorted(set(marks))
    if pos and not (1 <= pos[0] and pos[-1] <= k):
        raise ValueError("marked positions must lie on the cycle")
    if not pos:
        return _tr_cycle(p, k)
    value = Fraction(1)
    for prev, nxt in zip(pos, pos[1:]):
        value *= _tr_q_pow(p, nxt - prev)
    return value * _tr_q_pow_abs(p, k - pos[-1] + pos[0] - 1)


# --- dense tensor route ---------------------------------------------------------


def _max_dim() -> int:
    return int(os.environ.get(MAX_DIM_ENV, DEFAULT_MAX_DIM))


class TensorEmbedding:
    """Generator images on the N-fold tensor power and the product state.

    ``apply(r, X)`` returns T(r) @ X by walking a word for r and applying
    each generator image as a row operation: T(s_k) swaps tensor axes k and
    k+1 under a (d, d) sign mask, T(e{1}) contracts slot 1 against v.  Work
    per letter is O(dim * cols) and nothing is cached per element, so the
    embedding itself holds only O(d^2 + dim) floats.

    The product state's k-th slot density is |A| + (1 - Tr|A|) e_jj on the
    k-th recycled regular coordinate j.  A state value only reads the columns
    S where the product density ``rho_vec`` is nonzero, so ``image(r)`` is
    T(r) restricted to S, a (dim, |S|) array, and the state and pair values
    are computed from such images weighted by ``rho_vec[S]``.  ``matrix``
    (the full T(r)), ``psi`` and the dense ``generator_s`` and
    ``generator_eps1`` are the reference they are tested against.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.d = params.d
        self.slots = params.slots
        self.dim = self.d**self.slots
        if self.dim > _max_dim():
            raise ResourceGuardError(
                f"tensor dimension {self.d}^{self.slots} = {self.dim} exceeds "
                f"the guard ({_max_dim()}); raise {MAX_DIM_ENV} to override"
            )
        a = np.array([float(x) for x in params.a_diag])
        self._a = a
        self._v = np.sqrt([float(q) for q in params.v_sq])
        neg = a < 0
        self._swap_sign = np.where(np.outer(neg, neg), -1.0, 1.0)

        leftover = 1.0 - float(params.spectral_mass)
        slot_rhos = []
        for k in range(1, self.slots + 1):
            rho = np.abs(a).copy()
            if params.regular and leftover:
                j = params.regular[(k - 1) % len(params.regular)]
                rho[j - 1] += leftover
            slot_rhos.append(rho)
        self.rho_vec = reduce(np.kron, slot_rhos)
        self._support = np.flatnonzero(self.rho_vec)
        self._rho_s = self.rho_vec[self._support]

    def generator_s(self, k: int) -> np.ndarray:
        """The dense image of the adjacent transposition (k k+1)."""
        if not 1 <= k < self.slots:
            raise ValueError(f"slot index {k} out of range for N={self.slots}")
        d = self.d
        pair = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                pair[j * d + i, i * d + j] = self._swap_sign[i, j]
        left = np.eye(d ** (k - 1))
        right = np.eye(d ** (self.slots - k - 1))
        return np.kron(np.kron(left, pair), right)

    def generator_eps1(self) -> np.ndarray:
        """The dense image of e{1}: the rank-1 projection onto v in the first slot."""
        return np.kron(np.outer(self._v, self._v), np.eye(self.d ** (self.slots - 1)))

    def apply(self, r: PartialBijection, x: np.ndarray) -> np.ndarray:
        """T(r) @ x for a (dim, cols) array x, by row operations only."""
        if r.bound > self.slots:
            raise ValueError(
                f"support of {r.literal()} exceeds the {self.slots} tensor slots"
            )
        d, n = self.d, self.slots
        t = x.reshape((d,) * n + (-1,))
        # The rightmost letter of a word acts first.
        for letter in reversed(element_to_word(r)):
            if letter == EPS1:
                t = np.multiply.outer(self._v, self._v @ t.reshape(d, -1)).reshape(t.shape)
            else:
                sign = self._swap_sign.reshape((d, d) + (1,) * (n - letter))
                t = t.swapaxes(letter - 1, letter) * sign
        return t.reshape(x.shape)

    def matrix(self, r: PartialBijection) -> np.ndarray:
        return self.apply(r, np.eye(self.dim))

    def image(self, r: PartialBijection) -> np.ndarray:
        """T(r) on the support columns S of the product state: T(r) @ E_S."""
        cols = np.zeros((self.dim, self._support.size))
        cols[self._support, np.arange(self._support.size)] = 1.0
        return self.apply(r, cols)

    def slot_diag(self, k: int, values: np.ndarray) -> np.ndarray:
        """The diagonal (as a vector) of diag(values) acting in slot k."""
        parts = [np.ones(self.d)] * self.slots
        parts[k - 1] = np.asarray(values, dtype=float)
        return reduce(np.kron, parts)

    def psi(self, m: np.ndarray) -> float:
        return float(np.diagonal(m) @ self.rho_vec)

    def state_value(self, r: PartialBijection) -> float:
        """psi(T(r)), summed over the support columns only."""
        diag = self.image(r)[self._support, np.arange(self._support.size)]
        return float(diag @ self._rho_s)

    def pair_value(
        self, mids: Sequence[PartialBijection], tx: np.ndarray, ty: np.ndarray
    ) -> float:
        """<pi(m_1 ... m_j) x xi, y xi> = psi(T(y)^T T(m_1) ... T(m_j) T(x)).

        ``tx`` and ``ty`` are the support-column images ``image(x)`` and
        ``image(y)``; the middle elements are applied to ``tx`` one at a
        time, rightmost first.
        """
        z = tx
        for m in reversed(mids):
            z = self.apply(m, z)
        return float(self._rho_s @ np.einsum("ij,ij->j", ty, z))

    def pair_value_diag(self, diag: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> float:
        """psi(T(y)^T diag(diag) T(x)) from the support-column images."""
        return float(self._rho_s @ np.einsum("ij,ij->j", ty, diag[:, None] * tx))


def phi_model(embedding: TensorEmbedding, r: PartialBijection) -> float:
    """The dense-trace state value; the independent oracle for the closed form."""
    return embedding.state_value(r)


# --- Okounkov operators ---------------------------------------------------------


class OkounkovReport(Record):
    __slots__ = _fields = ("slot", "x", "y", "target", "values", "max_deviation")

    def __init__(self, slot: int, x: str, y: str, target: float,
                 values: tuple[tuple[int, float], ...], max_deviation: float):
        self._set(slot, x, y, target, values, max_deviation)

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
    target = emb.pair_value_diag(emb.slot_diag(k, emb._a), tx, ty)
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
    regular coordinate per slot, so the dense model agrees with the closed
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
