"""Exact rational symmetric factorization and small dense kernels.

The PSD certificate is the load-bearing piece: a pivoted LDL^T elimination
over exact rationals that either produces a nonnegative pivot sequence
reproducing the matrix, or an exact rational witness vector v with
v^T M v < 0.  Dense float helpers for the tensor oracles are thin wrappers
over numpy with explicit shape checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

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

    @staticmethod
    def from_json_rows(rows: Sequence[Sequence[str]]) -> "RationalMatrix":
        return RationalMatrix.from_rows(rows)


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

    Pivot rule: take the largest positive diagonal entry of the remaining
    block; when none is positive the block must vanish identically, and any
    surviving entry yields a witness (a negative diagonal gives a coordinate
    vector, a nonzero off-diagonal over a zero diagonal gives e_i -/+ e_j),
    back-substituted through the recorded factors to a witness for M itself.
    """
    if not m.is_symmetric():
        raise ValueError("psd_certificate requires a symmetric matrix")
    n = m.n
    a = [list(row) for row in m.entries]
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
        d = a[k][k]
        pivots.append(d)
        for i in range(k + 1, n):
            lower[i][k] = a[i][k] / d
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= lower[i][k] * d * lower[j][k]
        for i in range(k + 1, n):
            a[i][k] = a[k][i] = Fraction(0)

    return PsdCertificate(
        PSD,
        pivots=tuple(pivots),
        permutation=tuple(perm),
        lower=tuple(tuple(row) for row in lower),
    )


# --- dense float kernels ------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} x {b.shape}")
    return a @ b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def trace(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"trace needs a square matrix, got {a.shape}")
    return float(np.trace(a))


def apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)
    if a.ndim != 2 or v.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ValueError(f"apply shape mismatch {a.shape} x {v.shape}")
    return a @ v
