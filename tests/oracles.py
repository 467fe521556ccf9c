"""Test-only references: dense numpy images and the multi-marked cycle value
for the tensor oracle, and element-by-element bodies of the four state sweeps.

The dense images are built from a ModelParams alone, never from a
TensorEmbedding, so comparing the embedding's product-tensor walk with them
checks the walk against an independent construction: T(s_k) is the
``d^N x d^N`` permutation of slots k and k+1 with a sign over the negative
spectral block, T(e{1}) is the rank-1 projection onto v in slot 1, and T(r) is
their left-to-right product along ``element_to_word(r)``.

The sweep references list R_n as elements and multiply with ``compose``, and
read values through the element, never through an image tuple, so they check
the library's sweeps on padded image tuples case for case.

The spherical reference builds the image of every surviving l-point subset
as a sorted tuple and looks it up among the l-point subsets, so it checks the
library's count C(n-b, l-b) against the action itself.

The certificate references are the integer elimination that builds every
factor of ``lower`` as a Fraction inside its loop and updates every row at
every step, the recheck that multiplies L diag(pivots) L^T out in Fractions,
and the integer recheck by plain Bareiss, which keeps the content and updates
every row.  The library keeps the integer pivot rows instead, and its
elimination and recheck divide out the content and skip the rows that vanish.

The Gelfand reference multiplies the n!-term symmetrizer p around every
element of R_n in the rational semigroup algebra and compares the distinct
sandwiches p a p by their products, term by term.  The library compares the
n + 1 rank classes by counting the ranks of products instead.
"""

from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, islice, product
from math import comb, factorial, gcd, lcm
from numbers import Rational
from typing import Sequence

import numpy as np

from rookchar.elements import PartialBijection, compose, enumerate_rn, symmetric_group
from rookchar.errors import CheckReport, tally
from rookchar.linalg import NOT_PSD, PSD, PsdCertificate, RationalMatrix, _divide_exactly
from rookchar.tensor_model import ModelParams
from rookchar.words import EPS1, element_to_word


def marked_vector(p: ModelParams) -> np.ndarray:
    return np.sqrt([float(q) for q in p.v_sq])


def generator_s(p: ModelParams, k: int, twist: bool = True) -> np.ndarray:
    """The dense image of the adjacent transposition (k k+1).

    With ``twist=False`` the sign over the negative block is left out.
    """
    if not 1 <= k < p.slots:
        raise ValueError(f"slot index {k} out of range for N={p.slots}")
    d = p.d
    neg = [a < 0 for a in p.a_diag]
    pair = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            pair[j * d + i, i * d + j] = -1.0 if twist and neg[i] and neg[j] else 1.0
    return np.kron(np.kron(np.eye(d ** (k - 1)), pair), np.eye(d ** (p.slots - k - 1)))


def generator_eps1(p: ModelParams) -> np.ndarray:
    """The dense image of e{1}: the rank-1 projection onto v in the first slot."""
    v = marked_vector(p)
    return np.kron(np.outer(v, v), np.eye(p.d ** (p.slots - 1)))


def matrix(p: ModelParams, r: PartialBijection, twist: bool = True) -> np.ndarray:
    """T(r): the product of the dense generator images along r's word."""
    if r.bound > p.slots:
        raise ValueError(f"support of {r.literal()} exceeds the {p.slots} tensor slots")
    images = [
        generator_eps1(p) if letter == EPS1 else generator_s(p, letter, twist)
        for letter in element_to_word(r)
    ]
    return reduce(np.matmul, images, np.eye(p.d**p.slots))


def rho_vec(p: ModelParams) -> np.ndarray:
    """The product state's diagonal density: slot k is |A| plus the leftover
    mass on the k-th recycled regular coordinate."""
    leftover = 1.0 - float(p.spectral_mass)
    slot_rhos = []
    for k in range(1, p.slots + 1):
        rho = np.abs([float(a) for a in p.a_diag])
        if p.regular and leftover:
            rho[p.regular[(k - 1) % len(p.regular)] - 1] += leftover
        slot_rhos.append(rho)
    return reduce(np.kron, slot_rhos)


def psi(p: ModelParams, m: np.ndarray) -> float:
    """The product state of a dense operator."""
    return float(np.diagonal(m) @ rho_vec(p))


def slot_diag(p: ModelParams, k: int, values: Sequence[float]) -> np.ndarray:
    """The diagonal (as a vector) of diag(values) acting in slot k."""
    parts = [np.ones(p.d)] * p.slots
    parts[k - 1] = np.asarray(values, dtype=float)
    return reduce(np.kron, parts)


def basis_columns(p: ModelParams) -> list:
    """Every basis column of the d^N space as a product tensor (1, factors), in row-major order."""
    return [(1.0, s) for s in product(range(p.d), repeat=p.slots)]


def dense(p: ModelParams, tensors: list) -> np.ndarray:
    """The (d^N, len(tensors)) array of product tensors (c, factors); label d is v."""
    vectors = list(np.eye(p.d)) + [marked_vector(p)]
    return np.column_stack(
        [c * reduce(np.kron, [vectors[f] for f in factors]) for c, factors in tensors]
    )


def marked_cycle_value(p: ModelParams, k: int, marks: Sequence[int]) -> Fraction:
    """Value on the k-cycle (1 2 ... k) with the points ``marks`` killed.

    This is the multi-marked trace product: consecutive gaps between marked
    positions contribute Tr(q A^gap) and the wrap-around gap contributes
    Tr(q A^{k - a_last + a_first - 1} |A|); with no marks it is the plain
    cycle trace Tr(A^{k-1} |A|).
    """
    pos = sorted(set(marks))
    if pos and not (1 <= pos[0] and pos[-1] <= k):
        raise ValueError("marked positions must lie on the cycle")
    if not pos:
        return sum((a ** (k - 1) * abs(a) for a in p.a_diag), Fraction(0))
    value = Fraction(1)
    for prev, nxt in zip(pos, pos[1:]):
        value *= sum((a ** (nxt - prev) * q for a, q in zip(p.a_diag, p.v_sq)), Fraction(0))
    gap = k - pos[-1] + pos[0] - 1
    return value * sum((a**gap * abs(a) * q for a, q in zip(p.a_diag, p.v_sq)), Fraction(0))


# --- state sweeps, one element at a time ----------------------------------------


def _value_fn(state):
    return state.value if hasattr(state, "value") else state


def centrality(state, n: int) -> CheckReport:
    f = _value_fn(state)
    perms = list(symmetric_group(n))
    return tally("centrality", n, (
        f"r={r.literal()} s={s.literal()}" if f(compose(r, s)) != f(compose(s, r)) else None
        for r in enumerate_rn(n)
        for s in perms
    ))


def multiplicativity(state, n: int) -> CheckReport:
    f = _value_fn(state)
    elems = [(e, e.support(), f(e)) for e in enumerate_rn(n)]
    return tally("multiplicativity", n, (
        f"r1={r1.literal()} r2={r2.literal()}" if f(compose(r1, r2)) != v1 * v2 else None
        for i, (r1, s1, v1) in enumerate(elems)
        for r2, s2, v2 in elems[i:]
        if not s1 & s2
    ))


def star_symmetry(state, n: int) -> CheckReport:
    f = _value_fn(state)
    failures = (r.literal() if f(r.star()) != f(r) else None for r in enumerate_rn(n))
    return tally("star-symmetry", n, failures)


def conjugation_invariance(state, n: int) -> CheckReport:
    f = _value_fn(state)
    perms = [(s, s.star()) for s in symmetric_group(n)]
    return tally("conjugation-invariance", n, (
        f"r={r.literal()} s={s.literal()}" if f(compose(compose(s, r), s_inv)) != base else None
        for r in enumerate_rn(n)
        for base in (f(r),)
        for s, s_inv in perms
    ))


# --- spherical coefficient, one subset at a time ----------------------------------


def spherical_coeff(model, r: PartialBijection) -> Fraction:
    """The hits of pi^(n,l)(r) on the l-point subset basis, over C(n,l).

    Each subset A that holds every killed point is sent to line(A), built as
    its own sorted tuple and looked up among the l-point subsets.
    """
    n, l = model.n, model.l
    line, kills = r.one_line(n), r.domain_gaps()
    if len(kills) > l:
        return Fraction(0)
    basis = set(combinations(range(1, n + 1), l))
    rest = [x for x in range(1, n + 1) if x not in kills]
    hits = 0
    for extra in combinations(rest, l - len(kills)):
        image = tuple(sorted(line[x - 1] for x in (*kills, *extra)))
        hits += image in basis
    return Fraction(hits, comb(n, l))


# --- PSD certificates, factors in Fractions ----------------------------------------


def psd_certificate_eager(m: RationalMatrix) -> PsdCertificate:
    """``linalg.psd_certificate`` with ``lower[i][k] = Fraction(B[k][i], d)`` built in the loop.

    Same pivot rule, content reduction and witness path; the factor rows
    move with every swap, and the certificate is built from ``lower``.
    """
    n = m.n
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    full = [[x.numerator * (scale // x.denominator) for x in row] for row in m.entries]
    if list(map(list, zip(*full))) != full:
        raise ValueError("psd_certificate requires a symmetric matrix")
    a = [row[i:] for i, row in enumerate(full)]
    den = scale
    zero, one = Fraction(0), Fraction(1)
    lower = [[zero] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = one
    perm = list(range(n))
    pivots: list[Fraction] = []

    def swap(k: int, p: int):
        ak, ap = a[k], a[p]
        between = [a[c][p - c] for c in range(k + 1, p)]
        for c in range(k + 1, p):
            a[c][p - c] = ak[c - k]
        a[k] = [ap[0], *between, ak[p - k], *ap[1:]]
        a[p] = [ak[0], *ak[p - k + 1 :]]
        perm[k], perm[p] = perm[p], perm[k]
        lower[k][:k], lower[p][:k] = lower[p][:k], lower[k][:k]

    def witness_from(y: dict[int, Fraction]) -> PsdCertificate:
        w = [zero] * n
        for i in range(n - 1, -1, -1):
            w[i] = y.get(i, zero) - sum(lower[j][i] * w[j] for j in range(i + 1, n))
        x = [zero] * n
        for pos, orig in enumerate(perm):
            x[orig] = w[pos]
        return PsdCertificate(NOT_PSD, witness=tuple(x))

    for k in range(n):
        best = None
        for j in range(k, n):
            if a[j][0] > 0 and (best is None or a[j][0] > a[best][0]):
                best = j
        if best is None:
            for j in range(k, n):
                if a[j][0] < 0:
                    return witness_from({j: one})
            for i in range(k, n):
                for j, x in enumerate(a[i][1:], i + 1):
                    if x:
                        return witness_from({i: one, j: -one if x > 0 else one})
            pivots.extend([zero] * (n - k))
            break
        if best != k:
            swap(k, best)
        ak = a[k]
        d = ak[0]
        pivots.append(Fraction(d, den))
        den *= d
        g = gcd(den, *[d * a[i][0] - ak[i - k] ** 2 for i in range(k + 1, n)])
        tails = list(accumulate(reversed(ak)))
        for i in range(k + 1, n):
            aki, ai = ak[i - k], a[i]
            if aki:
                lower[i][k] = Fraction(aki, d)
            a[i] = row = [(d * x - aki * y) // g for x, y in zip(ai, ak[i - k :])]
            if g * sum(row) != d * sum(ai) - aki * tails[n - 1 - i]:
                row = [d * x - aki * y for x, y in zip(ai, ak[i - k :])]
                h = gcd(g, *row)
                c, g = g // h, h
                for j in range(k + 1, i):
                    a[j] = [c * x for x in a[j]]
                a[i] = _divide_exactly(row, g)
        (den,) = _divide_exactly((den,), g)
    return PsdCertificate(
        PSD, pivots=tuple(pivots), permutation=tuple(perm), lower=tuple(map(tuple, lower))
    )


def _is_symmetric(m: RationalMatrix) -> bool:
    return all(m.entries[i][j] == m.entries[j][i] for i in range(m.n) for j in range(i))


def verify_certificate_fractions(m: RationalMatrix, cert: PsdCertificate) -> bool:
    """A PSD certificate's check as (P^T M P)[i][j] == (L diag(pivots) L^T)[i][j], in Fractions."""
    n = m.n
    if cert.verdict != PSD or None in (cert.pivots, cert.permutation, cert.lower):
        return False
    perm, d, low = cert.permutation, cert.pivots, cert.lower
    if not _is_symmetric(m) or sorted(perm) != list(range(n)) or len(d) != n:
        return False
    if any(p < 0 for p in d) or len(low) != n or any(
        len(row) != n or row[i] != 1 or any(row[i + 1 :]) for i, row in enumerate(low)
    ):
        return False
    nonzero = [k for k in range(n) if d[k]]
    scaled = [[low[i][k] * d[k] for k in nonzero] for i in range(n)]
    return all(
        m.entries[perm[i]][perm[j]]
        == sum((s * low[j][k] for s, k in zip(scaled[i], nonzero)), Fraction(0))
        for i in range(n)
        for j in range(i + 1)
    )


def verify_certificate_bareiss(m: RationalMatrix, cert: PsdCertificate) -> bool:
    """A PSD certificate's check as an integer replay by plain Bareiss, every row at every step.

    B = scale P^T M P holds A's Schur complement times the last nonzero pivot
    ``prev``; ``(d B[i][j] - B[k][i] B[k][j]) // prev`` is exact because each
    entry is a minor of A.  Each pivot and factor column is compared with the
    current Schur complement B / (scale prev) by cross-multiplication.
    """
    n = m.n
    if cert.verdict != PSD or None in (cert.pivots, cert.permutation, cert.lower):
        return False
    perm, pivots, low = cert.permutation, cert.pivots, cert.lower
    if not _is_symmetric(m) or sorted(perm) != list(range(n)) or len(pivots) != n:
        return False
    if any(p < 0 for p in pivots) or len(low) != n or any(
        len(row) != n or row[i] != 1 or any(row[i + 1 :]) for i, row in enumerate(low)
    ):
        return False
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    b = []
    for i, orig in enumerate(perm):
        row = m.entries[orig]
        b.append([row[j].numerator * (scale // row[j].denominator) for j in perm[i:]])
    prev = 1
    for k, p in enumerate(pivots):
        bk = b[k]
        d = bk[0]
        if p.numerator * scale * prev != d * p.denominator:
            return False
        if not d:
            if any(bk):
                return False
            continue
        column = [row[k] for row in low[k + 1 :]]
        if any(x.numerator * d != y * x.denominator for x, y in zip(column, islice(bk, 1, None))):
            return False
        for i in range(k + 1, n):
            bki = bk[i - k]
            b[i] = [(d * x - bki * y) // prev for x, y in zip(b[i], bk[i - k :])]
        prev = d
    return True


# --- the Gelfand pair, by exact symmetrizers ------------------------------------


class FormalSum:
    """An immutable rational linear combination of partial bijections.

    Products extend the semigroup product bilinearly; terms whose
    coefficients cancel are dropped.
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

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "FormalSum":
        return FormalSum((e, -c) for e, c in self._terms.items())

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FormalSum):
            return FormalSum(
                (compose(e1, e2), c1 * c2)
                for e1, c1 in self._terms.items()
                for e2, c2 in other._terms.items()
            )
        if isinstance(other, Rational):
            return FormalSum((e, other * c) for e, c in self._terms.items())
        return NotImplemented

    __rmul__ = __mul__  # only a scalar reaches it, and scalars commute

    def star(self) -> "FormalSum":
        return FormalSum((e.star(), c) for e, c in self._terms.items())

    def __repr__(self) -> str:
        bits = " + ".join(
            f"{c}*{e.literal()}" for e, c in sorted(self._terms.items(), key=lambda t: t[0].literal())
        )
        return f"FormalSum({bits or 0})"


def symmetrizer(n: int) -> FormalSum:
    """The normalized symmetrizer (1/n!) * sum of all permutations of 1..n."""
    return FormalSum((s, Fraction(1, factorial(n))) for s in symmetric_group(n))


def gelfand_pair(n: int) -> CheckReport:
    """The Gelfand sweep by brute force: every sandwich p a p as a FormalSum.

    Equal sandwiches commute iff their representatives do, so only the
    distinct ones are compared, each through the first element that gave it.
    """
    basis = list(enumerate_rn(n))
    p = symmetrizer(n)
    sandwiches: dict[frozenset, tuple[PartialBijection, FormalSum]] = {}
    for e in basis:
        u = p * FormalSum.of(e) * p
        sandwiches.setdefault(frozenset(u._terms.items()), (e, u))
    return tally("gelfand", n, (
        f"p {ea.literal()} p vs p {eb.literal()} p" if ua * ub != ub * ua else None
        for (ea, ua), (eb, ub) in combinations(sandwiches.values(), 2)
    ), basis=len(basis), distinct_products=len(sandwiches))
