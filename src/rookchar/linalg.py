"""Exact PSD certificates for symmetric rational matrices.

``psd_certificate`` is the load-bearing piece: a pivoted symmetric
elimination, done fraction-free on the denominator-cleared integer matrix,
that either produces a nonnegative pivot sequence reproducing the matrix as
P^T M P = L diag(pivots) L^T, or an exact rational witness vector v with
v^T M v < 0.  ``verify_certificate`` rechecks either outcome independently.
Everything here is exact; the float oracles live in ``tensor_model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

PSD = "PSD"
NOT_PSD = "NotPSD"


@dataclass(frozen=True)
class RationalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.n)
            for j in range(i)
        )

    def quadratic_form(self, v: Sequence[Fraction]) -> Fraction:
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return sum(
            v[i] * self.entries[i][j] * v[j]
            for i in range(self.n)
            for j in range(self.n)
        ) or Fraction(0)

    def to_json_rows(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of the pivoted exact elimination.

    In the PSD case ``permutation``, ``lower`` and ``pivots`` reproduce the
    input exactly: with P the recorded reordering, (P^T M P)[i][j] equals
    (L diag(pivots) L^T)[i][j].  In the NotPSD case ``witness`` is an exact
    vector with a negative quadratic form.
    """

    verdict: str
    pivots: tuple[Fraction, ...] | None = None
    permutation: tuple[int, ...] | None = None
    lower: tuple[tuple[Fraction, ...], ...] | None = None
    witness: tuple[Fraction, ...] | None = None

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


def psd_certificate(m: RationalMatrix) -> PsdCertificate:
    """Certify positive semidefiniteness of a symmetric rational matrix.

    The elimination runs fraction-free on integers (Bareiss): M is scaled by
    the lcm of its denominators, and step k replaces each remaining entry by
    ``(d a[i][j] - a[i][k] a[k][j]) / prev``, with d the current pivot entry
    and prev the previous one.  By Sylvester's identity the division is exact
    and every remaining entry is the rational Schur complement times a
    positive leading minor, so signs and the pivot order are those of the
    rational elimination, and ``pivots[k] = d / (prev * scale)``.

    Pivot rule: take the largest positive diagonal entry of the remaining
    block (ties go to the first index); when none is positive the block must
    vanish identically, and any surviving entry yields a witness (a negative
    diagonal gives a coordinate vector, a nonzero off-diagonal over a zero
    diagonal gives e_i -/+ e_j), back-substituted through the recorded
    factors to a witness for M itself.
    """
    if not m.is_symmetric():
        raise ValueError("psd_certificate requires a symmetric matrix")
    n = m.n
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in m.entries]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    pivots: list[Fraction] = []

    def swap(i: int, j: int):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        perm[i], perm[j] = perm[j], perm[i]
        k = len(pivots)
        lower[i][:k], lower[j][:k] = lower[j][:k], lower[i][:k]

    def witness_from(y: dict[int, Fraction]) -> PsdCertificate:
        # Solve L^T w = z by back substitution, then undo the permutation;
        # the quadratic form of the result equals the one of y in the
        # current Schur complement.
        z = [y.get(i, Fraction(0)) for i in range(n)]
        w = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            w[i] = z[i] - sum(lower[j][i] * w[j] for j in range(i + 1, n))
        x = [Fraction(0)] * n
        for pos, orig in enumerate(perm):
            x[orig] = w[pos]
        value = m.quadratic_form(x)
        if value >= 0:
            raise RuntimeError(f"internal error: witness has quadratic form {value} >= 0")
        return PsdCertificate(NOT_PSD, witness=tuple(x))

    prev = 1
    for k in range(n):
        best = None
        for j in range(k, n):
            if a[j][j] > 0 and (best is None or a[j][j] > a[best][best]):
                best = j
        if best is None:
            for j in range(k, n):
                if a[j][j] < 0:
                    return witness_from({j: Fraction(1)})
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        s = Fraction(1) if a[i][j] > 0 else Fraction(-1)
                        return witness_from({i: Fraction(1), j: -s})
            pivots.extend([Fraction(0)] * (n - k))
            break
        swap(best, k)
        ak = a[k]
        d = ak[k]
        pivots.append(Fraction(d, prev * scale))
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            lower[i][k] = Fraction(aik, d)
            for j in range(i, n):
                q, r = divmod(d * ai[j] - aik * ak[j], prev)
                if r:
                    raise RuntimeError(f"internal error: inexact division by pivot entry {prev}")
                ai[j] = a[j][i] = q
        prev = d

    return PsdCertificate(
        PSD,
        pivots=tuple(pivots),
        permutation=tuple(perm),
        lower=tuple(tuple(row) for row in lower),
    )


def verify_certificate(m: RationalMatrix, cert: PsdCertificate) -> bool:
    """Check a certificate against its matrix independently, in exact arithmetic.

    PSD: the pivots are nonnegative, the permutation is one, ``lower`` is unit
    lower triangular, and (P^T M P)[i][j] == (L diag(pivots) L^T)[i][j] for
    every entry.  NotPSD: the witness has a negative quadratic form.  The PSD
    check is O(n^3) in Fractions, so it belongs in tests, not on a hot path.
    """
    n = m.n
    if cert.verdict == NOT_PSD:
        w = cert.witness
        return w is not None and len(w) == n and m.quadratic_form(w) < 0
    if cert.verdict != PSD or None in (cert.pivots, cert.permutation, cert.lower):
        return False
    if not m.is_symmetric():
        return False
    perm, d, low = cert.permutation, cert.pivots, cert.lower
    if sorted(perm) != list(range(n)) or len(d) != n or any(p < 0 for p in d):
        return False
    if len(low) != n or any(
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
