"""Exact PSD certificates for symmetric rational matrices.

``psd_certificate`` is the load-bearing piece: a pivoted symmetric
elimination, done fraction-free on the denominator-cleared integer matrix,
that either produces a nonnegative pivot sequence reproducing the matrix as
P^T M P = L diag(pivots) L^T, or an exact rational witness vector v with
v^T M v < 0.  ``verify_certificate`` rechecks either outcome independently.
Everything here is exact; the float oracles live in ``tensor_model``.

The certificate keeps each step's integer pivot row, whose entries over the
pivot are a column of L, and builds the Fractions of L only when ``lower``
is read; nothing on the ``gram`` path reads it.  The recheck replays the
elimination in the certificate's order on integers, with the same content
reduction, and compares each pivot and column of L with the current Schur
complement by cross-multiplication, so it forms no Fraction products.

The elimination keeps the rational Schur complement S of the remaining block
as an integer block B over one positive integer denominator D, S = B / D.  A
step divides the updated B and D by their common content: the gcd of D and
every entry of B.  On the Gram matrices of ``states`` that content is most of
each entry's size (Bareiss' division by the previous pivot leaves it in
place), so removing it keeps the entries short.

A step makes one pass over the block.  It takes a candidate content from D
and the new diagonal alone, builds each row already divided by it, and checks
the row's division through its sum.  The candidate is the content on most
steps; when a row fails, the candidate is lowered to cover that row and the
rows before it are rescaled, so the content the step ends with is the full
one.

Both eliminations pay only for the live block.  A row whose diagonal, row and
column all vanish in the remaining block stays zero under every later step,
whether it starts zero or becomes zero; it is marked once and never updated
again.  Rank-deficient Grams are mostly such rows: 48 of the 72 rows of the
zero-extension state's Gram on ``R4_GRAM_ELEMENTS`` start zero, and on the
spherical state's dense R_4 Gram 92 of 209 have vanished after four steps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm
from typing import Sequence

from .errors import Record

PSD = "PSD"
NOT_PSD = "NotPSD"


class RationalMatrix(Record):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]):
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self._set(entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        return RationalMatrix(tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows
        ))

    @property
    def n(self) -> int:
        return len(self.entries)

    def quadratic_form(self, v: Sequence[Fraction]) -> Fraction:
        """v^T M v, summed over the nonzero entries of v only."""
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        nonzero = [(i, x) for i, x in enumerate(v) if x]
        return sum(
            (x * sum((self.entries[i][j] * y for j, y in nonzero), Fraction(0)) for i, x in nonzero),
            Fraction(0),
        )

    def to_json_rows(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]


class PsdCertificate(Record):
    """Outcome of the pivoted exact elimination.

    In the PSD case ``permutation``, ``lower`` and ``pivots`` reproduce the
    input exactly: with P the recorded reordering, (P^T M P)[i][j] equals
    (L diag(pivots) L^T)[i][j].  In the NotPSD case ``witness`` is an exact
    vector with a negative quadratic form.

    ``psd_certificate`` passes ``columns`` instead of ``lower``: for each
    elimination step k, its integer pivot row (the pivot d first) and the
    original indices of the rows below k.  The row's entries over d are
    column k of L, and ``lower`` is built from them on first read, the one
    write after the constructor's ``_set`` (its slots follow its arguments).
    """

    _fields = ("verdict", "pivots", "permutation", "lower", "witness")
    __slots__ = ("verdict", "pivots", "permutation", "_lower", "witness", "_columns")

    def __init__(
        self,
        verdict: str,
        pivots: tuple[Fraction, ...] | None = None,
        permutation: tuple[int, ...] | None = None,
        lower: tuple[tuple[Fraction, ...], ...] | None = None,
        witness: tuple[Fraction, ...] | None = None,
        *,
        columns: tuple[tuple[list[int], tuple[int, ...]], ...] | None = None,
    ):
        self._set(verdict, pivots, permutation, lower, witness, columns)

    @property
    def lower(self) -> tuple[tuple[Fraction, ...], ...] | None:
        if self._lower is None and self._columns is not None:
            object.__setattr__(self, "_lower", _lower_rows(self.permutation, self._columns))
            object.__setattr__(self, "_columns", None)
        return self._lower

    @property
    def is_psd(self) -> bool:
        return self.verdict == PSD

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "pivots": None if self.pivots is None else [str(p) for p in self.pivots],
            "permutation": None if self.permutation is None else list(self.permutation),
            "witness": None if self.witness is None else [str(w) for w in self.witness],
        }


def _lower_rows(perm: Sequence[int], columns) -> tuple[tuple[Fraction, ...], ...]:
    """L as rows: unit diagonal, and column k read off step k's pivot row over its pivot."""
    n = len(perm)
    where = [0] * n
    for pos, orig in enumerate(perm):
        where[orig] = pos
    zero = Fraction(0)
    lower = [[zero] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(1)
    for k, (ak, below) in enumerate(columns):
        d = ak[0]
        for orig, x in zip(below, islice(ak, 1, None)):
            if x:
                lower[where[orig]][k] = Fraction(x, d)
    return tuple(map(tuple, lower))


def psd_certificate(m: RationalMatrix) -> PsdCertificate:
    """Certify positive semidefiniteness of a symmetric rational matrix.

    The elimination runs fraction-free on integers.  M is scaled by the lcm of
    its denominators, so the remaining block starts as B = scale * M over the
    denominator D = scale.  Step k with pivot entry d = B[k][k] replaces each
    remaining entry by ``d B[i][j] - B[k][i] B[k][j]`` and D by ``D d``, which
    leaves the rational Schur complement B / D exact, and divides B and D by
    the gcd of D and all of B's entries.  Only the upper triangle of B is
    kept, each row from its diagonal on.  The pivot is ``pivots[k] = d / D``
    and the factor is ``lower[i][k] = B[k][i] / d``, built from the kept
    pivot row B[k] when ``lower`` is first read.

    The step is one pass over the block.  The candidate content g is the gcd
    of ``D d`` and the new diagonal ``d B[i][i] - B[k][i]**2``, a multiple of
    the content.  Each row is built as ``(d B[i][j] - B[k][i] B[k][j]) // g``
    and checked through ``g * sum(quotients) == d * sum(row) - B[k][i] *
    sum(pivot row from i)``: floor remainders lie in [0, g), so the sums agree
    only when every remainder is 0.  When a row fails, g is lowered to its gcd
    with that row's updated entries and the rows already divided are
    multiplied by the ratio of the old g to the new.  The final g divides
    ``D d`` and every entry, and the content divides every value g was taken
    from, so g is the content.  A content that does not divide D raises
    RuntimeError.

    Before the update, each row below k whose diagonal, row and column
    vanish in the block is marked: its update ``(d 0 - 0 x) // g`` is 0 now
    and at every later step, so its update and sum check are skipped from
    then on.  The mark moves with the row when it is swapped.  A zero
    diagonal over a nonzero row or column is not marked.  The skipped
    entries would have stayed 0, so the pivots, permutation, pivot rows and
    witness are those of the full update.

    Pivot rule: take the largest positive diagonal entry of the remaining
    block (ties go to the first index); when none is positive the block must
    vanish identically, and any surviving entry yields a witness (a negative
    diagonal gives a coordinate vector, a nonzero off-diagonal over a zero
    diagonal gives e_i -/+ e_j), back-substituted through the recorded
    factors to a witness for M itself.  Every block entry is the rational
    Schur complement times the same positive number, whatever was divided out,
    so the comparisons and signs the rule reads are those of the rational
    elimination: the pivot sequence, permutation, factors and witness do not
    depend on the content reduction.

    >>> cert = psd_certificate(RationalMatrix.from_rows([[2, 1], [1, 2]]))
    >>> cert.verdict, [str(p) for p in cert.pivots]
    ('PSD', ['2', '3/2'])
    >>> m = RationalMatrix.from_rows([[1, 2], [2, 1]])
    >>> cert = psd_certificate(m)
    >>> cert.verdict, [str(w) for w in cert.witness], str(m.quadratic_form(cert.witness))
    ('NotPSD', ['-2', '1'], '-3')
    """
    n = m.n
    scale, full = _cleared(m)
    if list(map(list, zip(*full))) != full:
        raise ValueError("psd_certificate requires a symmetric matrix")
    # a[i] holds row i of the remaining block from its diagonal on: a[i][j - i]
    # is B[i][j] for j >= i.
    a = [row[i:] for i, row in enumerate(full)]
    den = scale
    zero, one = Fraction(0), Fraction(1)
    perm = list(range(n))
    pivots: list[Fraction] = []
    # Step k's pivot row a[k] and the original indices of the rows below k.
    columns: list[tuple[list[int], tuple[int, ...]]] = []
    # frozen[i]: row i of the block has vanished, with its column; it moves with swaps.
    frozen = [False] * n

    def swap(k: int, p: int):
        # Exchange indices k < p of the remaining block, upper triangle only.
        ak, ap = a[k], a[p]
        between = [a[c][p - c] for c in range(k + 1, p)]
        for c in range(k + 1, p):
            a[c][p - c] = ak[c - k]
        a[k] = [ap[0], *between, ak[p - k], *ap[1:]]
        a[p] = [ak[0], *ak[p - k + 1 :]]
        perm[k], perm[p] = perm[p], perm[k]
        frozen[k], frozen[p] = frozen[p], frozen[k]

    def witness_from(y: dict[int, Fraction]) -> PsdCertificate:
        # Solve L^T w = z by back substitution, then undo the permutation;
        # the quadratic form of the result equals the one of y in the
        # current Schur complement.
        z = [y.get(i, zero) for i in range(n)]
        lower = _lower_rows(perm, columns)
        w = [zero] * n
        for i in range(n - 1, -1, -1):
            w[i] = z[i] - sum(lower[j][i] * w[j] for j in range(i + 1, n))
        x = [zero] * n
        for pos, orig in enumerate(perm):
            x[orig] = w[pos]
        value = m.quadratic_form(x)
        if value >= 0:
            raise RuntimeError(f"internal error: witness has quadratic form {value} >= 0")
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
        pivots.append(Fraction(ak[0], den))
        columns.append((ak, tuple(perm[k + 1 :])))
        den = _eliminate(a, k, den, frozen)

    return PsdCertificate(
        PSD,
        pivots=tuple(pivots),
        permutation=tuple(perm),
        columns=tuple(columns),
    )


def _cleared(m: RationalMatrix) -> tuple[int, list[list[int]]]:
    """The lcm ``scale`` of M's denominators and the integer rows of scale * M.

    Each distinct entry object is converted once, keyed by its id while M
    holds it: the rows of a Gram repeat the few value objects of its class
    function.
    """
    distinct: dict[int, Fraction] = {}
    for row in m.entries:
        distinct.update(zip(map(id, row), row))
    scale = lcm(*(x.denominator for x in distinct.values()))
    cleared = {key: x.numerator * (scale // x.denominator) for key, x in distinct.items()}
    return scale, [list(map(cleared.__getitem__, map(id, row))) for row in m.entries]


def _eliminate(a: list[list[int]], k: int, den: int, frozen: list[bool]) -> int:
    """Step k on the upper-triangle block ``a`` with pivot ``a[k][0] > 0``, in place.

    Marks in ``frozen`` the rows below k that vanish with their column,
    updates and divides the other rows below k by the content, and returns
    the new denominator ``D d / g``.
    """
    ak = a[k]
    d = ak[0]
    n = k + len(ak)
    rows = []
    for i in range(k + 1, n):
        if frozen[i]:
            continue
        ai = a[i]
        if not ai[0] and not any(ai) and not any(a[c][i - c] for c in range(k, i)):
            frozen[i] = True
        else:
            rows.append(i)
    den *= d
    # The candidate content: D d and the new diagonal entries.
    g = gcd(den, *[d * a[i][0] - ak[i - k] ** 2 for i in rows])
    tails = list(accumulate(reversed(ak)))  # tails[n - 1 - i] = sum(ak[i - k:])
    for done, i in enumerate(rows):
        aki, ai = ak[i - k], a[i]
        a[i] = row = [(d * x - aki * y) // g for x, y in zip(ai, ak[i - k :])]
        # Floor remainders lie in [0, g): the sums agree only when all are 0.
        if g * sum(row) != d * sum(ai) - aki * tails[n - 1 - i]:
            # g overestimates the content: lower it to cover this row and
            # bring the rows already divided to the new denominator.
            row = [d * x - aki * y for x, y in zip(ai, ak[i - k :])]
            h = gcd(g, *row)
            c, g = g // h, h
            for j in rows[:done]:
                a[j] = [c * x for x in a[j]]
            a[i] = _divide_exactly(row, g)
    (den,) = _divide_exactly((den,), g)
    return den


def _divide_exactly(values: Sequence[int], g: int) -> list[int]:
    # g > 0, so floor division leaves every remainder in [0, g): they are all
    # zero exactly when the quotients times g sum to the values' sum.
    quotients = [x // g for x in values]
    if g * sum(quotients) != sum(values):
        raise RuntimeError(f"internal error: inexact division by content {g}")
    return quotients


def verify_certificate(m: RationalMatrix, cert: PsdCertificate) -> bool:
    """Check a certificate against its matrix independently, in exact arithmetic.

    PSD: the pivots are nonnegative, the permutation is one, ``lower`` is unit
    lower triangular, and (P^T M P)[i][j] == (L diag(pivots) L^T)[i][j] for
    every entry.  NotPSD: the witness has a negative quadratic form.

    The PSD check replays the elimination in the certificate's order on
    integers, one column at a time, with the certifier's step: the remaining
    block B over the denominator D is the rational Schur complement S of
    P^T M P, starting from B = scale P^T M P over D = scale.  Each step's
    content is checked through row sums, and the rows that vanish are marked
    from the replayed block alone, so the replay trusts nothing of the
    certificate but its order.  L diag(pivots) L^T reproduces P^T M P
    exactly when, step by step, row k of S equals ``pivots[k]`` times column
    k of L: ``pivots[k] == S[k][k]`` and, for a nonzero pivot,
    ``lower[i][k] == B[k][i] / B[k][k]``, compared by cross-multiplication.
    A zero pivot multiplies column k of L away, so row k of S must vanish;
    the step then leaves the block as it is, which drops index k.
    """
    n = m.n
    if cert.verdict == NOT_PSD:
        w = cert.witness
        return w is not None and len(w) == n and m.quadratic_form(w) < 0
    if cert.verdict != PSD or None in (cert.pivots, cert.permutation, cert.lower):
        return False
    scale, full = _cleared(m)
    if list(map(list, zip(*full))) != full:
        return False
    perm, pivots, low = cert.permutation, cert.pivots, cert.lower
    if sorted(perm) != list(range(n)) or len(pivots) != n or any(p < 0 for p in pivots):
        return False
    if len(low) != n or any(
        len(row) != n or row[i] != 1 or any(row[i + 1 :]) for i, row in enumerate(low)
    ):
        return False
    b = [[full[orig][j] for j in perm[i:]] for i, orig in enumerate(perm)]
    den = scale
    frozen = [False] * n
    for k, p in enumerate(pivots):
        bk = b[k]
        d = bk[0]
        if p.numerator * den != d * p.denominator:
            return False
        if not d:
            if any(bk):
                return False
            continue
        column = [row[k] for row in low[k + 1 :]]
        if any(x.numerator * d != y * x.denominator for x, y in zip(column, islice(bk, 1, None))):
            return False
        den = _eliminate(b, k, den, frozen)
    return True
