"""Finite spherical models on 2-dimensional slot space and their limits.

The finite model pi^(n,l) acts on the span of the vectors e_A indexed by the
l-point subsets A of {1..n}: slot j holds w for j in A and the orthogonal
w-perp otherwise, permutations permute slots, and e{k} projects slot k onto
w.  The spherical vector is the normalized sum of the e_A, and the matrix
coefficient against it has the exact product form

    l (l-1) ... (l-b+1) / (n (n-1) ... (n-b+1)),   b = #killed points,

independent of the permutation part.

The infinite model lives on u-stabilized tensors with u = kappa w +
sqrt(1-kappa^2) w-perp; its coefficient is (kappa^2)^b.  The limit check
tabulates the finite coefficients under both candidate subset growth rates
l_n/n -> kappa and l_n/n -> kappa^2 and reports which one converges to the
infinite value -- empirically the squared rate.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .elements import PartialBijection
from .errors import MAX_POINT, Record, ResourceGuardError

# Bounds the basis C(n, l) of a model, and the 2^n - 1 rows that
# ``spherical --all-idempotents`` lists.
MAX_BASIS = 20000


class SphericalModel(Record):
    __slots__ = _fields = ("n", "l")

    def __init__(self, n: int, l: int):
        if not 0 <= l <= n:
            raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
        if n > MAX_POINT:
            raise ResourceGuardError(f"ground set n = {n} exceeds the guard MAX_POINT = {MAX_POINT}")
        self._set(n, l)


@functools.lru_cache(maxsize=4)
def _subset_basis(n: int, k: int) -> frozenset[tuple[int, ...]]:
    """The sorted k-point subsets of 1..n: the basis labels of pi^(n,k), or of
    pi^(n,n-k) by complement."""
    return frozenset(itertools.combinations(range(1, n + 1), k))


def spherical_coeff(model: SphericalModel, r: PartialBijection) -> Fraction:
    """Exact matrix coefficient of pi^(n,l)(r) at the spherical vector.

    The coefficient is (1/C(n,l)) times the number of pairs (A, B) of basis
    subsets with <pi(r) e_A, e_B> = 1.  pi(r) kills e_A unless A contains
    every killed point of r, and otherwise sends it to e_line(A), where line
    is the one-line extension of r.  So only the subsets A = kills + S, with
    S an (l-b)-subset of the remaining points, are acted on; each image is
    looked up in the subset basis and the hits are counted.

    When 2l > n, each subset is labelled by its (n-l)-point complement
    instead.  line is a permutation of 1..n, so the complement of line(A) is
    line of A's complement, and A contains the kills exactly when its
    complement avoids them: the count runs over the (n-l)-subsets of the
    remaining points.  Either side stays an explicit action on the basis,
    hence a check of the closed form, with C(n,l) labels of min(l, n-l)
    points per model and C(n-b, l-b) images per call.  The images are read
    off r's image tuple: line sends r's domain to r's images, the points
    past r's bound to themselves, and the kills to r's range gaps, and each
    image subset is sorted, so the order within each part does not matter.

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
            f"basis of size C({n},{l}) {shown} exceeds the guard MAX_BASIS = {MAX_BASIS}"
        )
    images = r.images
    bound = len(images)
    if bound > n:
        raise ValueError(f"support of {r.literal()} exceeds the ground set 1..{n}")
    killed = images.count(None)
    if killed > l:
        return Fraction(0)
    rest = [*filter(None, images), *range(bound + 1, n + 1)]
    if 2 * l > n:
        fixed, k = (), n - l
    else:
        fixed, k = tuple(set(range(1, bound + 1)).difference(images)), l - killed
    basis = _subset_basis(n, min(l, n - l))
    subsets = map(tuple, map(sorted, map(fixed.__add__, itertools.combinations(rest, k))))
    return Fraction(sum(map(basis.__contains__, subsets)), size)


def spherical_coeff_closed_form(n: int, l: int, killed: int) -> Fraction:
    """l (l-1) ... (l-b+1) / (n (n-1) ... (n-b+1)); zero when b > l."""
    if killed > l:
        return Fraction(0)
    return Fraction(math.perm(l, killed), math.perm(n, killed))


def infinite_spherical_value(kappa: Fraction, r: PartialBijection) -> Fraction:
    """<pi(r) xi, xi> on the u-stabilized tensor model, exact in kappa^2.

    Slot by slot: killed slots hold the projected vector kappa w, all others
    still hold u; permuting slots leaves the per-slot overlaps with u as a
    multiset, and each projected slot contributes (u, w)^2 = kappa^2.
    """
    return Fraction(kappa**2) ** len(r.domain_gaps())


class LimitReport(Record):
    __slots__ = _fields = ("element", "killed", "infinite_value", "rows", "converging_scaling")

    def __init__(self, element: str, killed: int, infinite_value: Fraction,
                 rows: tuple[dict, ...], converging_scaling: str):
        self._set(element, killed, infinite_value, rows, converging_scaling)

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
    b = len(r.domain_gaps())
    infinite = infinite_spherical_value(kappa, r)
    rows = []
    for n in sorted(n_list):
        row: dict = {"n": n}
        for label, scale in (("kappa", kappa), ("kappa_squared", kappa**2)):
            l = min(n, round(scale * n))
            coeff = spherical_coeff_closed_form(n, int(l), b)
            row[f"l_{label}"] = int(l)
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
