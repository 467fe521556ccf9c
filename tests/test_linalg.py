"""Exact PSD certification and the dense float kernels."""

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
    RationalMatrix,
    apply,
    kron,
    matmul,
    psd_certificate,
    trace,
)

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def random_rational_matrix(rng, n, den=7):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]


def gram_of(b):
    n = len(b)
    return RationalMatrix.from_rows(
        [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    )


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


class TestDenseKernels:
    def test_trace_of_kron_factorizes(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(4, 4))
        assert trace(kron(a, b)) == pytest.approx(trace(a) * trace(b))

    def test_matmul_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), a), a)

    def test_kron_dimensions(self):
        assert kron(np.eye(2), np.eye(3)).shape == (6, 6)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            matmul(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            trace(np.ones((2, 3)))
        with pytest.raises(ValueError):
            apply(np.eye(2), np.ones(3))

    def test_apply(self):
        assert np.allclose(apply(2 * np.eye(2), np.array([1.0, 3.0])), [2.0, 6.0])

    def test_matmul_associative_to_tolerance(self):
        rng = np.random.default_rng(9)
        a, b, c = (rng.normal(size=(5, 5)) for _ in range(3))
        assert np.allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-12)
