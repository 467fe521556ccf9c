"""Exact PSD certification: the fraction-free elimination against a Fraction reference."""

import dataclasses
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rookchar
from rookchar.linalg import (
    NOT_PSD,
    PSD,
    PsdCertificate,
    RationalMatrix,
    psd_certificate,
    verify_certificate,
)

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def random_rational_matrix(rng, n, den=7):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]


def gram_of(b):
    n = len(b)
    return RationalMatrix.from_rows(
        [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    )


def reference_certificate(m):
    """Pivoted LDL^T over Fractions, the elimination the integer one replaced."""
    n = m.n
    a = [list(row) for row in m.entries]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    pivots = []

    def witness_from(y):
        w = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            w[i] = y.get(i, Fraction(0)) - sum(lower[j][i] * w[j] for j in range(i + 1, n))
        x = [Fraction(0)] * n
        for pos, orig in enumerate(perm):
            x[orig] = w[pos]
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
                        return witness_from({i: Fraction(1), j: Fraction(-1 if a[i][j] > 0 else 1)})
            pivots.extend([Fraction(0)] * (n - k))
            break
        if best != k:
            a[best], a[k] = a[k], a[best]
            for row in a:
                row[best], row[k] = row[k], row[best]
            perm[best], perm[k] = perm[k], perm[best]
            lower[best][:k], lower[k][:k] = lower[k][:k], lower[best][:k]
        d = a[k][k]
        pivots.append(d)
        for i in range(k + 1, n):
            lower[i][k] = a[i][k] / d
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= lower[i][k] * d * lower[j][k]
    return PsdCertificate(
        PSD, pivots=tuple(pivots), permutation=tuple(perm), lower=tuple(map(tuple, lower))
    )


def random_symmetric(rng, n, rank, den=9):
    """B^T B for a random rank x n rational B with mixed denominators."""
    b = [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)] for _ in range(rank)]
    return [
        [sum((b[k][i] * b[k][j] for k in range(rank)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def reproduce(cert, n):
    """L diag(pivots) L^T from the certificate."""
    L, d = cert.lower, cert.pivots
    return [
        [sum(L[i][k] * d[k] * L[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestPsdCertificate:
    def test_identity(self):
        cert = psd_certificate(RationalMatrix.from_rows([[1, 0], [0, 1]]))
        assert cert.verdict == PSD and cert.pivots == (1, 1)

    def test_zero_diagonal_counterexample(self):
        m = RationalMatrix.from_rows([[0, 1], [1, 0]])
        cert = psd_certificate(m)
        assert cert.verdict == NOT_PSD
        assert cert.witness == (1, -1)
        assert m.quadratic_form(cert.witness) == -2

    def test_witness_checked_under_optimize(self):
        # The witness self-check must survive python -O, which strips asserts.
        script = (
            "from rookchar.linalg import NOT_PSD, RationalMatrix, psd_certificate\n"
            "m = RationalMatrix.from_rows([[1, 2, 0], [2, 1, 0], [0, 0, 3]])\n"
            "cert = psd_certificate(m)\n"
            "assert False, 'asserts must be stripped'\n"
            "print(cert.verdict, m.quadratic_form(cert.witness))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rookchar.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        verdict, value = proc.stdout.split()
        assert verdict == NOT_PSD
        assert Fraction(value) < 0

    def test_schur_complement_pivots(self):
        m = RationalMatrix.from_rows([[1, Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 4)]])
        cert = psd_certificate(m)
        assert cert.verdict == PSD
        assert cert.pivots == (Fraction(1), Fraction(3, 16))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            psd_certificate(RationalMatrix.from_rows([[1, 2], [0, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def test_rank_deficient_psd(self):
        # [[1,1],[1,1]] has a zero Schur complement.
        cert = psd_certificate(RationalMatrix.from_rows([[1, 1], [1, 1]]))
        assert cert.verdict == PSD
        assert cert.pivots == (1, 0)

    def test_zero_matrix(self):
        cert = psd_certificate(RationalMatrix.from_rows([[0, 0], [0, 0]]))
        assert cert.verdict == PSD and cert.pivots == (0, 0)

    def test_factorization_reproduces_input_exactly(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 5, 8):
            b = random_rational_matrix(rng, n)
            m = gram_of(b)
            cert = psd_certificate(m)
            assert cert.verdict == PSD
            perm = cert.permutation
            permuted = [[m.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            assert reproduce(cert, n) == permuted

    def test_psd_soundness_thousand_vectors(self):
        rng = random.Random(11)
        m = gram_of(random_rational_matrix(rng, 6))
        cert = psd_certificate(m)
        assert cert.verdict == PSD
        for _ in range(1000):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
            assert m.quadratic_form(v) >= 0

    def test_witness_validity_on_shifted_grams(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(25):
            n = rng.randint(2, 6)
            m = gram_of(random_rational_matrix(rng, n)).entries
            shift = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            shifted = RationalMatrix.from_rows(
                [
                    [m[i][j] - (shift if i == j else 0) for j in range(n)]
                    for i in range(n)
                ]
            )
            cert = psd_certificate(shifted)
            if cert.verdict == NOT_PSD:
                hits += 1
                assert shifted.quadratic_form(cert.witness) < 0
        assert hits > 10

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(fractions_st, min_size=3, max_size=3), min_size=3, max_size=3))
    def test_verdicts_match_float_eigenvalues(self, rows):
        sym = [[rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)]
        m = RationalMatrix.from_rows(sym)
        cert = psd_certificate(m)
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in sym]))
        if cert.verdict == PSD:
            assert eigs.min() > -1e-9
        else:
            assert m.quadratic_form(cert.witness) < 0
            assert eigs.min() < 1e-9


class TestAgainstFractionReference:
    """The integer elimination returns the Fraction elimination's certificate."""

    @staticmethod
    def check(rows):
        m = RationalMatrix.from_rows(rows)
        cert = psd_certificate(m)
        assert cert == reference_certificate(m)
        assert verify_certificate(m, cert)
        return cert

    def test_full_rank(self):
        rng = random.Random(21)
        for n in (1, 2, 3, 5, 8, 12):
            assert self.check(random_symmetric(rng, n, n)).verdict == PSD

    def test_rank_deficient(self):
        rng = random.Random(22)
        for n in (2, 4, 7, 10):
            for rank in range(n):
                cert = self.check(random_symmetric(rng, n, rank))
                assert cert.verdict == PSD
                assert sum(1 for p in cert.pivots if p) <= rank

    def test_shifted_not_psd(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(40):
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n, rng.randint(0, n))
            shift = Fraction(rng.randint(1, 5), rng.randint(1, 7))
            shifted = [[m[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
            hits += self.check(shifted).verdict == NOT_PSD
        assert hits > 30

    def test_zero_and_one_by_one(self):
        for n in (1, 3):
            assert self.check([[0] * n for _ in range(n)]).pivots == (0,) * n
        for x in (Fraction(3, 7), Fraction(0), Fraction(-5, 2)):
            self.check([[x]])

    def test_zero_diagonal_off_diagonal_witness(self):
        rows = [[1, 1, 0], [1, 1, Fraction(1, 3)], [0, Fraction(1, 3), 0]]
        assert self.check(rows).verdict == NOT_PSD

    def test_empty(self):
        cert = psd_certificate(RationalMatrix(()))
        assert cert == PsdCertificate(PSD, pivots=(), permutation=(), lower=())
        assert verify_certificate(RationalMatrix(()), cert)


class TestVerifyCertificate:
    @staticmethod
    def certified(seed, n=6, rank=4):
        m = RationalMatrix.from_rows(random_symmetric(random.Random(seed), n, rank))
        return m, psd_certificate(m)

    def test_tampered_pivot_fails(self):
        m, cert = self.certified(31)
        k = next(k for k, p in enumerate(cert.pivots) if p)
        pivots = list(cert.pivots)
        pivots[k] += Fraction(1, 10**6)
        assert not verify_certificate(m, dataclasses.replace(cert, pivots=tuple(pivots)))

    def test_tampered_lower_entry_fails(self):
        m, cert = self.certified(32)
        lower = [list(row) for row in cert.lower]
        lower[-1][0] += 1
        assert not verify_certificate(m, dataclasses.replace(cert, lower=tuple(map(tuple, lower))))

    def test_negative_pivot_fails(self):
        # diag(1, -1) = L diag(1, -1) L^T, but a negative pivot proves nothing.
        m = RationalMatrix.from_rows([[1, 0], [0, -1]])
        cert = PsdCertificate(PSD, pivots=(Fraction(1), Fraction(-1)), permutation=(0, 1),
                              lower=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        assert not verify_certificate(m, cert)

    def test_wrong_verdict_fails(self):
        m, cert = self.certified(33)
        assert not verify_certificate(m, PsdCertificate(NOT_PSD, witness=(Fraction(1),) * m.n))
        shifted = RationalMatrix.from_rows([[1, 2], [2, 1]])
        not_psd = psd_certificate(shifted)
        assert not_psd.verdict == NOT_PSD and verify_certificate(shifted, not_psd)
        assert not verify_certificate(m, dataclasses.replace(cert, permutation=(0,) * m.n))
