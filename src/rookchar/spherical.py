"""Finite spherical models on 2-dimensional slot space and their limits.

The finite model pi^(n,l) acts on the span of the vectors e_A indexed by the
l-point subsets A of {1..n}: slot j holds w for j in A and the orthogonal
w-perp otherwise, permutations permute slots, and e{k} projects slot k onto
w.  The spherical vector is the normalized sum of the e_A.  pi(r) keeps the
C(n-b, l-b) vectors e_A with A containing r's b killed points and permutes
them, so the matrix coefficient against the spherical vector is

    C(n-b, l-b) / C(n, l) = l (l-1) ... (l-b+1) / (n (n-1) ... (n-b+1)),

independent of the permutation part.

The infinite model lives on u-stabilized tensors with u = kappa w +
sqrt(1-kappa^2) w-perp, |kappa| <= 1; its coefficient is (kappa^2)^b.  The
limit check tabulates the finite coefficients under both candidate subset
growth rates l_n/n -> kappa and l_n/n -> kappa^2 and reports which one
converges to the infinite value -- empirically the squared rate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .elements import PartialBijection
from .errors import MAX_POINT, Record, ResourceGuardError, json_int

# Bounds C(n, l), and so the printed coefficient: C(n-b, l-b) / C(n, l) in
# lowest terms has a denominator that divides C(n, l) and a numerator no
# larger, so both have at most 5 digits.  No subset is listed.  It also bounds
# the 2^n - 1 rows that ``spherical --all-idempotents`` lists.
MAX_BASIS = 20000


class SphericalModel(Record):
    __slots__ = _fields = ("n", "l")

    def __init__(self, n: int, l: int):
        n, l = json_int(n, "n"), json_int(l, "l")
        if not 0 <= l <= n:
            raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
        if n > MAX_POINT:
            raise ResourceGuardError(f"ground set n = {n} exceeds the guard MAX_POINT = {MAX_POINT}")
        self._set(n, l)


def spherical_coeff(model: SphericalModel, r: PartialBijection) -> Fraction:
    """Exact matrix coefficient of pi^(n,l)(r) at the spherical vector.

    The coefficient is (1/C(n,l)) times the number of basis vectors e_A that
    pi(r) sends to a basis vector:

    1. pi(r) kills e_A unless A contains every killed point of r;
    2. otherwise pi(r) sends e_A to e_line(A); line, the one-line extension
       of r, permutes 1..n, so line(A) is again an l-point basis subset;
    3. so the count is that of the l-subsets holding the b kills, C(n-b, l-b),
       and C(n-b, l-b) / C(n, l) is the falling ratio the closed form returns.

    The independent checks build the action: ``tests/oracles.py::spherical_coeff``
    per subset, ``tests/test_spherical.py::dense_spherical_coeff`` as a matrix.

    >>> from rookchar.elements import idempotent
    >>> spherical_coeff(SphericalModel(4, 2), idempotent([1]))
    Fraction(1, 2)
    """
    n, l = model.n, model.l
    size = math.comb(n, l)
    if size > MAX_BASIS:
        # Python will not print an int of more than 4,300 digits.
        shown = f"= {size}" if size.bit_length() <= 64 else f">= 2^{size.bit_length() - 1}"
        raise ResourceGuardError(
            f"coefficient denominator bound C({n},{l}) {shown} exceeds the guard "
            f"MAX_BASIS = {MAX_BASIS}"
        )
    if len(r.images) > n:
        raise ValueError(f"support of {r.literal()} exceeds the ground set 1..{n}")
    return spherical_coeff_closed_form(n, l, r.images.count(None))


def spherical_coeff_closed_form(n: int, l: int, killed: int) -> Fraction:
    """l (l-1) ... (l-b+1) / (n (n-1) ... (n-b+1)) for 0 <= l <= n; zero when b > l."""
    if min(n, l, killed) < 0 or l > n:
        raise ValueError(f"need 0 <= l <= n and killed >= 0, got n={n}, l={l}, killed={killed}")
    if killed > l:
        return Fraction(0)
    return Fraction(math.perm(l, killed), math.perm(n, killed))


def infinite_spherical_value(kappa: Fraction, r: PartialBijection) -> Fraction:
    """<pi(r) xi, xi> on the u-stabilized tensor model, exact in kappa^2.

    Slot by slot: killed slots hold the projected vector kappa w, all others
    still hold u; permuting slots leaves the per-slot overlaps with u as a
    multiset, and each projected slot contributes (u, w)^2 = kappa^2.
    """
    if abs(kappa) > 1:
        raise ValueError(f"u = kappa w + sqrt(1-kappa^2) w-perp needs |kappa| <= 1, got {kappa}")
    return Fraction(kappa**2) ** len(r.domain_gaps())


class LimitReport(Record):
    __slots__ = _fields = ("element", "killed", "infinite_value", "rows", "converging_scaling")

    def to_json(self) -> dict:
        return {
            "element": self.element,
            "killed": self.killed,
            "infinite_value": str(self.infinite_value),
            "rows": list(self.rows),
            "converging_scaling": self.converging_scaling,
        }


def spherical_limit_check(
    kappa: Fraction, r: PartialBijection, n_list: Sequence[int]
) -> LimitReport:
    """Tabulate finite coefficients under both l_n/n scalings against the model.

    For each n the subset size is rounded from kappa*n and from kappa^2*n;
    the reported winner is the scaling with the smaller error at the largest
    n.  Coefficients come from the closed form, so large n stays cheap.
    """
    if not 0 <= kappa <= 1:
        raise ValueError(f"the limit table needs 0 <= kappa <= 1, got {kappa}")
    n_list = sorted(n_list)
    if not n_list or n_list[0] < 0:
        raise ValueError(f"the limit table needs a nonempty list of n >= 0, got {n_list}")
    b = len(r.domain_gaps())
    infinite = infinite_spherical_value(kappa, r)
    rows = []
    for n in n_list:
        row: dict = {"n": n}
        for label, scale in (("kappa", kappa), ("kappa_squared", kappa**2)):
            l = round(scale * n)
            coeff = spherical_coeff_closed_form(n, l, b)
            row[f"l_{label}"] = l
            row[f"coeff_{label}"] = float(coeff)
            row[f"error_{label}"] = abs(float(coeff) - float(infinite))
        rows.append(row)
    last = rows[-1]
    winner = (
        "kappa_squared"
        if last["error_kappa_squared"] <= last["error_kappa"]
        else "kappa"
    )
    return LimitReport(r.literal(), b, infinite, tuple(rows), winner)
