"""Rational semigroup algebra: bilinearity, symmetrizers, the Gelfand pair."""

from fractions import Fraction

import pytest

from rookchar import algebra
from rookchar.algebra import FormalSum, check_gelfand_pair, symmetrizer
from rookchar.elements import enumerate_rn, idempotent, identity, parse_element
from rookchar.errors import MAX_GELFAND_N, MAX_VIOLATIONS, ResourceGuardError


def test_identity_is_neutral():
    a = FormalSum([(parse_element("[2,_]"), Fraction(2, 3)), (identity(), -1)])
    assert a * FormalSum.one() == a
    assert FormalSum.one() * a == a


def test_idempotent_cancellation():
    e, eps = FormalSum.one(), FormalSum.of(idempotent([1]))
    assert (e + eps) * (e - eps) == e - eps


def test_no_zero_coefficients_survive():
    eps = FormalSum.of(idempotent([1]))
    assert not (eps - eps)
    assert len((eps - eps)) == 0


def test_scalar_action_is_exact():
    s = Fraction(1, 3) * FormalSum.of(identity())
    assert s.coefficient(identity()) == Fraction(1, 3)
    assert (s * 3) == FormalSum.one()


def test_star_is_antimultiplicative_on_sums():
    a = FormalSum.of(parse_element("[2,_]")) + 2 * FormalSum.one()
    b = FormalSum.of(parse_element("(1 3 2)")) - FormalSum.of(idempotent([2]))
    assert (a * b).star() == b.star() * a.star()


@pytest.mark.parametrize("n,expected_terms", [(0, 1), (1, 1), (2, 2), (3, 6)])
def test_symmetrizer_support(n, expected_terms):
    assert len(symmetrizer(n)) == expected_terms


def test_symmetrizer_normalization():
    p2 = symmetrizer(2)
    assert p2.coefficient(identity()) == Fraction(1, 2)
    assert p2.coefficient(parse_element("(1 2)")) == Fraction(1, 2)
    assert symmetrizer(1) == FormalSum.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetrizer_idempotent(n):
    p = symmetrizer(n)
    assert p * p == p


@pytest.mark.parametrize("n", [2, 3])
def test_gelfand_pair_commutes(n):
    report = check_gelfand_pair(n)
    assert report.ok
    assert report.basis == len(list(enumerate_rn(n)))


def test_gelfand_sweep_reports_noncommuting_sandwiches(monkeypatch):
    # With p = 1 the sandwiches are the bare elements of R_3, and R_3 is not
    # commutative: the sweep must compare all C(34, 2) pairs and fail.
    monkeypatch.setattr(algebra, "symmetrizer", lambda n: FormalSum.one())
    report = check_gelfand_pair(3)
    assert not report.ok
    assert (report.basis, report.distinct_products) == (34, 34)
    assert report.checked == 561
    assert len(report.violations) == MAX_VIOLATIONS == 20


def test_gelfand_guard():
    with pytest.raises(ResourceGuardError, match="MAX_GELFAND_N = 3"):
        check_gelfand_pair(MAX_GELFAND_N + 1)


def test_sandwich_products_computed_directly():
    # One hand-checkable instance: p e{1} p and p (1 2) p commute in R_2.
    p = symmetrizer(2)
    u = p * FormalSum.of(idempotent([1])) * p
    v = p * FormalSum.of(parse_element("(1 2)")) * p
    assert u * v == v * u
