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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .elements import PartialBijection
from .errors import ResourceGuardError

MAX_BASIS = 20000


@dataclass(frozen=True)
class SphericalModel:
    n: int
    l: int
    kappa: Fraction = Fraction(0)

    def __post_init__(self):
        if not 0 <= self.l <= self.n:
            raise ValueError(f"need 0 <= l <= n, got l={self.l}, n={self.n}")
        if not 0 <= self.kappa <= 1:
            raise ValueError("kappa must lie in [0, 1]")


def _split(r: PartialBijection, n: int) -> tuple[list[int], tuple[int, ...]]:
    """One-line extension of r to a permutation of 1..n, plus its kill set."""
    if r.bound > n:
        raise ValueError(f"support of {r.literal()} exceeds the ground set 1..{n}")
    kills = r.domain_gaps()
    free = iter(r.range_gaps())
    line = []
    for x in range(1, n + 1):
        y = r(x)
        line.append(next(free) if y is None else y)
    return line, kills


@functools.lru_cache(maxsize=4)
def _subset_basis(n: int, l: int) -> frozenset[tuple[int, ...]]:
    """The basis labels of pi^(n,l): the sorted l-point subsets of 1..n."""
    return frozenset(itertools.combinations(range(1, n + 1), l))


def spherical_coeff(model: SphericalModel, r: PartialBijection) -> Fraction:
    """Exact matrix coefficient of pi^(n,l)(r) at the spherical vector.

    The coefficient is (1/C(n,l)) times the number of pairs (A, B) of basis
    subsets with <pi(r) e_A, e_B> = 1.  pi(r) kills e_A unless A contains
    every killed point of r, and otherwise sends it to e_line(A), where line
    is the one-line extension of r.  So only the subsets A = kills + S, with
    S an (l-b)-subset of the remaining points, are acted on; each image is
    looked up in the subset basis and the hits are counted.  This stays an
    explicit action on the basis, hence a check of the closed form, with
    O(C(n,l)) memory per model and C(n-b, l-b) images per call.

    >>> from rookchar.elements import idempotent
    >>> spherical_coeff(SphericalModel(4, 2), idempotent([1]))
    Fraction(1, 2)
    """
    n, l = model.n, model.l
    size = math.comb(n, l)
    if size > MAX_BASIS:
        raise ResourceGuardError(f"basis of size C({n},{l}) = {size} exceeds the guard")
    line, kills = _split(r, n)
    if len(kills) > l:
        return Fraction(0)
    basis = _subset_basis(n, l)
    rest = [x for x in range(1, n + 1) if x not in kills]
    hits = 0
    for extra in itertools.combinations(rest, l - len(kills)):
        image = tuple(sorted(line[x - 1] for x in (*kills, *extra)))
        hits += image in basis
    return Fraction(hits, size)


def spherical_coeff_closed_form(n: int, l: int, killed: int) -> Fraction:
    """l (l-1) ... (l-b+1) / (n (n-1) ... (n-b+1)); zero when b > l."""
    if killed > l:
        return Fraction(0)
    value = Fraction(1)
    for i in range(killed):
        value *= Fraction(l - i, n - i)
    return value


def infinite_spherical_value(kappa: Fraction, r: PartialBijection) -> Fraction:
    """<pi(r) xi, xi> on the u-stabilized tensor model, exact in kappa^2.

    Slot by slot: killed slots hold the projected vector kappa w, all others
    still hold u; permuting slots leaves the per-slot overlaps with u as a
    multiset, and each projected slot contributes (u, w)^2 = kappa^2.
    """
    _, kills = _split(r, max(r.bound, 1))
    return Fraction(kappa**2) ** len(kills)


def slot_coefficient_table(
    kappa_w: float, rs: Sequence[PartialBijection]
) -> list[float]:
    """Float slot simulation with an explicit (possibly negative) w-component.

    Exists to check that coefficients depend on u only through |(u, w)|: the
    tables for kappa_w and -kappa_w must agree to machine precision.
    """
    out = []
    perp = math.sqrt(max(0.0, 1.0 - kappa_w * kappa_w))
    u = np.array([kappa_w, perp])
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    for r in rs:
        m = max(r.bound, 1)
        line, kills = _split(r, m)
        vectors = [proj @ u if x in set(kills) else u.copy() for x in range(1, m + 1)]
        inverse = [0] * m
        for x, y in enumerate(line, start=1):
            inverse[y - 1] = x
        value = 1.0
        for j in range(1, m + 1):
            value *= float(vectors[inverse[j - 1] - 1] @ u)
        out.append(value)
    return out


@dataclass(frozen=True)
class LimitReport:
    element: str
    killed: int
    infinite_value: Fraction
    rows: tuple[dict, ...]
    converging_scaling: str

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
    _, kills = _split(r, max(r.bound, 1))
    b = len(kills)
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
