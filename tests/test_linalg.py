"""Exact PSD certification: the fraction-free elimination against a Fraction reference."""

import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rookchar
from rookchar import cli, linalg
from rookchar.elements import enumerate_rn
from rookchar.linalg import (
    NOT_PSD,
    PSD,
    PsdCertificate,
    RationalMatrix,
    psd_certificate,
    verify_certificate,
)
from rookchar.states import I_STAR_J, STAR_JI, gram_matrix, unchecked_value_fn
from conftest import R4_GRAM_ELEMENTS, SUITE_STATES
from oracles import psd_certificate_eager, verify_certificate_bareiss, verify_certificate_fractions

# Two `unchecked` parameter sets past the mass bound whose Grams on the 72
# elements of R4_GRAM_ELEMENTS are NotPSD under both orderings: alpha mass 3/2
# with t = 3/2, and the running state's alpha and quasi base with beta = (1/2),
# mass 4/3, at t = 1/2.
UNCHECKED_NOT_PSD = {
    "mass_3_2": {"alpha": ["3/4", "3/4"], "beta": [], "mark": {"i": 1, "t": "3/2"}},
    "mass_4_3": {"alpha": ["1/2", "1/3"], "beta": ["1/2"], "mark": {"i": 1, "t": "1/2"}},
}

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
        with pytest.raises(ValueError):
            psd_certificate(RationalMatrix.from_rows([[1, Fraction(1, 3)], [Fraction(1, 6), 1]]))

    def test_inexact_content_division_raises(self, monkeypatch):
        # A content that does not divide the block must stop the elimination.
        monkeypatch.setattr(linalg, "gcd", lambda *xs: 2 * math.gcd(*xs))
        with pytest.raises(RuntimeError, match="inexact division"):
            psd_certificate(RationalMatrix.from_rows([[3, 1], [1, 3]]))

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

    # B^T B matrices on which the gcd of D d and the new diagonal is a multiple
    # of the content, so a row fails its division check and the content is
    # lowered.  In the 4 x 4 one a later row of a step fails, so the rows
    # divided before it are rescaled.
    CANDIDATE_MISSES = {
        "3x3": (
            [["137/144", "1/3", "5/12"], ["1/3", "13/4", "11/4"], ["5/12", "11/4", "7/2"]],
            ["7/2", "61/56", "7921/8784"],
            (2, 1, 0),
        ),
        "4x4": (
            [["19/9", "-1/3", "-3/4", "-1/6"], ["-1/3", "5/8", "1/3", "-1/8"],
             ["-3/4", "1/3", "61/144", "-7/24"], ["-1/6", "-1/8", "-7/24", "37/16"]],
            ["37/16", "233/111", "3145/5592", "961/25160"],
            (3, 0, 1, 2),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CANDIDATE_MISSES))
    def test_candidate_content_recovers(self, monkeypatch, name):
        rows, pivots, permutation = self.CANDIDATE_MISSES[name]
        recovered = []
        divide = linalg._divide_exactly
        monkeypatch.setattr(
            linalg, "_divide_exactly",
            lambda values, g: recovered.append(len(values)) or divide(values, g),
        )
        cert = self.check(rows)
        assert any(length > 1 for length in recovered)  # a row, not only D
        assert [str(p) for p in cert.pivots] == pivots
        assert cert.permutation == permutation

    def test_empty(self):
        cert = psd_certificate(RationalMatrix(()))
        assert cert == PsdCertificate(PSD, pivots=(), permutation=(), lower=())
        assert verify_certificate(RationalMatrix(()), cert)


class TestGramShapedInputs:
    """The content-reduced elimination equals the Fraction reference on Gram matrices.

    Gram blocks share a large content, so these exercise the gcd division far
    more than the random inputs above.  Equality covers every field: pivots,
    permutation, lower factor and witness.
    """

    @staticmethod
    def check(report):
        assert report.certificate == reference_certificate(report.matrix)
        return report.certificate

    @pytest.mark.parametrize("ordering", [STAR_JI, I_STAR_J])
    def test_r3_suite_states(self, suite_state, ordering):
        assert self.check(gram_matrix(suite_state, enumerate_rn(3), ordering)).is_psd

    @pytest.mark.parametrize("name", ["running", "zero_extension"])
    def test_r4_72_elements(self, name):
        assert self.check(gram_matrix(SUITE_STATES[name], R4_GRAM_ELEMENTS)).is_psd

    @pytest.mark.parametrize("ordering", [STAR_JI, I_STAR_J])
    @pytest.mark.parametrize("name", sorted(UNCHECKED_NOT_PSD))
    def test_unchecked_not_psd(self, name, ordering):
        f = unchecked_value_fn(UNCHECKED_NOT_PSD[name])
        assert self.check(gram_matrix(f, R4_GRAM_ELEMENTS, ordering)).verdict == NOT_PSD


# The Grams whose certificates pin ``lower``: (value function, elements, ordering).
# A value function named "unchecked:<set>" is the unvalidated one of that set.
LAZY_LOWER_CASES = (
    [(name, "R3", ordering) for name in sorted(SUITE_STATES) for ordering in (STAR_JI, I_STAR_J)]
    + [("running", "R4_72", STAR_JI), ("zero_extension", "R4_72", STAR_JI)]
    + [(f"unchecked:{name}", "R3", ordering)
       for name in sorted(UNCHECKED_NOT_PSD) for ordering in (STAR_JI, I_STAR_J)]
    + [("running", "R4", STAR_JI)]
)


def lazy_lower_gram(source, elements, ordering):
    if source.startswith("unchecked:"):
        f = unchecked_value_fn(UNCHECKED_NOT_PSD[source.split(":")[1]])
    else:
        f = SUITE_STATES[source]
    elems = {"R3": enumerate_rn(3), "R4_72": R4_GRAM_ELEMENTS, "R4": enumerate_rn(4)}[elements]
    return gram_matrix(f, elems, ordering)


class TestLazyLower:
    """``lower`` built from the kept pivot rows equals the Fractions built in the loop."""

    @pytest.mark.parametrize("source, elements, ordering", LAZY_LOWER_CASES)
    def test_equals_eager_factors(self, source, elements, ordering):
        report = lazy_lower_gram(source, elements, ordering)
        eager = psd_certificate_eager(report.matrix)
        assert report.certificate.lower == eager.lower
        assert report.certificate == eager

    def test_gram_command_builds_no_factor(self, capsys, monkeypatch):
        def refuse(perm, columns):
            raise AssertionError("lower was built")

        monkeypatch.setattr(linalg, "_lower_rows", refuse)
        for ordering in (STAR_JI, I_STAR_J):
            assert cli.main(["gram", "--n", "3", "--ordering", ordering]) == cli.EXIT_OK
        assert capsys.readouterr().out.count('"verdict": "PSD"') == 2

    def test_read_once_and_equal_to_a_hand_built_certificate(self):
        m = RationalMatrix.from_rows(random_symmetric(random.Random(41), 7, 5))
        cert = psd_certificate(m)
        assert cert.lower is cert.lower
        hand = PsdCertificate(PSD, pivots=cert.pivots, permutation=cert.permutation,
                              lower=cert.lower)
        assert hand == cert and hash(hand) == hash(cert) and repr(hand) == repr(cert)


class TestVanishingRows:
    """Rows that vanish with their column are skipped, and the certificate is the full update's."""

    @pytest.mark.parametrize("name, zero_rows, marked_after_four", [
        ("zero_extension", 185, 185),  # zero from the start
        ("spherical", 0, 92),  # vanishing mid-elimination, 23 per step
    ])
    def test_dense_r4_equals_eager(self, monkeypatch, name, zero_rows, marked_after_four):
        marked = []
        step = linalg._eliminate

        def counting(a, k, den, frozen):
            den = step(a, k, den, frozen)
            marked.append(sum(frozen))
            return den

        monkeypatch.setattr(linalg, "_eliminate", counting)
        report = gram_matrix(SUITE_STATES[name], enumerate_rn(4))
        assert sum(1 for row in report.matrix.entries if not any(row)) == zero_rows
        assert marked[0] == zero_rows and marked[4] == marked_after_four
        eager = psd_certificate_eager(report.matrix)
        assert report.certificate.lower == eager.lower
        assert report.certificate == eager

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0], [0, 0, 1], [0, 1, 1]],  # a zero diagonal over a nonzero row
        [[1, 1, 0], [1, 0, 0], [0, 0, 0]],  # a zero diagonal and row over a nonzero column
    ])
    def test_zero_diagonal_over_a_nonzero_line_is_not_skipped(self, rows):
        m = RationalMatrix.from_rows(rows)
        cert = psd_certificate(m)
        assert cert.verdict == NOT_PSD and m.quadratic_form(cert.witness) < 0
        assert cert.witness == psd_certificate_eager(m).witness
        assert cert == reference_certificate(m)


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
        tampered = PsdCertificate(PSD, pivots=tuple(pivots), permutation=cert.permutation,
                                  lower=cert.lower)
        assert not verify_certificate(m, tampered)

    def test_tampered_lower_entry_fails(self):
        m, cert = self.certified(32)
        lower = [list(row) for row in cert.lower]
        lower[-1][0] += 1
        tampered = PsdCertificate(PSD, pivots=cert.pivots, permutation=cert.permutation,
                                  lower=tuple(map(tuple, lower)))
        assert not verify_certificate(m, tampered)

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
        tampered = PsdCertificate(PSD, pivots=cert.pivots, permutation=(0,) * m.n,
                                  lower=cert.lower)
        assert not verify_certificate(m, tampered)

    @staticmethod
    def replaced(cert, pivots=None, permutation=None, lower=None):
        return PsdCertificate(
            PSD,
            pivots=cert.pivots if pivots is None else tuple(pivots),
            permutation=cert.permutation if permutation is None else tuple(permutation),
            lower=cert.lower if lower is None else tuple(map(tuple, lower)),
        )

    def rejected(self, m, tampered):
        # The integer replays and the Fraction products give the same verdict.
        assert not verify_certificate_fractions(m, tampered)
        assert not verify_certificate_bareiss(m, tampered)
        return not verify_certificate(m, tampered)

    @pytest.mark.parametrize("rank", [6, 4])
    def test_tampered_last_column_entry_fails(self, rank):
        # The last column with an entry below the diagonal is checked last.
        m, cert = self.certified(34, n=6, rank=rank)
        k = max(k for k, p in enumerate(cert.pivots) if p)
        lower = [list(row) for row in cert.lower]
        lower[-1][k] += Fraction(1, 7)
        assert self.rejected(m, self.replaced(cert, lower=lower))

    def test_tampered_last_column_entry_of_running_gram_fails(self):
        report = gram_matrix(SUITE_STATES["running"], R4_GRAM_ELEMENTS)
        lower = [list(row) for row in report.certificate.lower]
        lower[-1][-2] *= 2
        assert lower[-1][-2] and self.rejected(report.matrix, self.replaced(report.certificate, lower=lower))

    def test_factor_below_a_zero_pivot_leaves_a_remainder(self):
        # Rank 3 of 6: a factor in a row below the first zero pivot changes
        # the remainder that the zero pivots claim is zero.
        m, cert = self.certified(35, n=6, rank=3)
        assert cert.pivots[3:] == (0, 0, 0)
        lower = [list(row) for row in cert.lower]
        lower[4][2] += 1
        assert self.rejected(m, self.replaced(cert, lower=lower))
        pivots = list(cert.pivots)
        pivots[2] = Fraction(0)
        assert self.rejected(m, self.replaced(cert, pivots=pivots))

    def test_zero_pivot_over_a_nonzero_row_fails(self):
        m = RationalMatrix.from_rows([[0, 1], [1, 0]])
        cert = PsdCertificate(PSD, pivots=(Fraction(0), Fraction(0)), permutation=(0, 1),
                              lower=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        assert self.rejected(m, cert)

    def test_factor_under_a_zero_pivot_is_free(self):
        # Column k of L meets a zero pivot, so its entries reproduce nothing.
        m = RationalMatrix.from_rows([[0, 0], [0, 1]])
        cert = PsdCertificate(PSD, pivots=(Fraction(0), Fraction(1)), permutation=(0, 1),
                              lower=((Fraction(1), Fraction(0)), (Fraction(5), Fraction(1))))
        assert verify_certificate_fractions(m, cert) and verify_certificate(m, cert)

    def test_swapped_permutation_pair_on_rank_deficient_gram_fails(self):
        report = gram_matrix(SUITE_STATES["zero_extension"], R4_GRAM_ELEMENTS)
        cert = report.certificate
        assert sum(1 for p in cert.pivots if p) == 24
        perm = list(cert.permutation)
        perm[0], perm[-1] = perm[-1], perm[0]
        assert self.rejected(report.matrix, self.replaced(cert, permutation=perm))

    def test_verdicts_agree_with_fraction_products(self):
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = RationalMatrix.from_rows(random_symmetric(rng, n, rng.randint(0, n)))
            cert = psd_certificate(m)
            assert verify_certificate(m, cert) and verify_certificate_fractions(m, cert)
            assert verify_certificate_bareiss(m, cert)
            i, k = rng.randrange(n), rng.randrange(n)
            pivots, lower = list(cert.pivots), [list(row) for row in cert.lower]
            if k < i:
                lower[i][k] += Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            pivots[k] += Fraction(rng.randint(0, 2), rng.randint(1, 3))
            for tampered in (self.replaced(cert, lower=lower), self.replaced(cert, pivots=pivots)):
                verdict = verify_certificate(m, tampered)
                assert verdict == verify_certificate_fractions(m, tampered)
                assert verdict == verify_certificate_bareiss(m, tampered)

    @staticmethod
    def zero_extension_frozen_row():
        # A row of P^T M P that is zero from the start, below the 24 nonzero pivots.
        report = gram_matrix(SUITE_STATES["zero_extension"], R4_GRAM_ELEMENTS)
        cert = report.certificate
        i = next(i for i, orig in enumerate(cert.permutation)
                 if not any(report.matrix.entries[orig]))
        assert cert.pivots[i] == 0 and i >= 24 and cert.pivots[0]
        return report.matrix, cert, i

    def test_frozen_row_pivot_raised_fails(self):
        m, cert, i = self.zero_extension_frozen_row()
        pivots = list(cert.pivots)
        pivots[i] = Fraction(1, 2)
        assert self.rejected(m, self.replaced(cert, pivots=pivots))

    def test_factor_in_a_frozen_row_under_a_nonzero_pivot_fails(self):
        m, cert, i = self.zero_extension_frozen_row()
        lower = [list(row) for row in cert.lower]
        lower[i][0] = Fraction(1)
        assert self.rejected(m, self.replaced(cert, lower=lower))

    def test_ten_times_faster_than_fraction_products_on_running_gram(self):
        m = gram_matrix(SUITE_STATES["running"], R4_GRAM_ELEMENTS).matrix

        def best_of(check, runs):
            times = []
            for _ in range(runs):
                cert = psd_certificate(m)  # lower is built inside the timed check
                start = time.perf_counter()
                assert check(m, cert)
                times.append(time.perf_counter() - start)
            return min(times)

        assert 10 * best_of(verify_certificate, 5) <= best_of(verify_certificate_fractions, 2)
