"""The Gelfand pair on rank classes, against the brute-force sweep in the rational semigroup algebra."""

from fractions import Fraction
from math import comb

import pytest

from oracles import FormalSum, gelfand_pair, symmetrizer
from rookchar import algebra, elements
from rookchar.algebra import check_gelfand_pair
from rookchar.elements import enumerate_rn, idempotent, identity, parse_element, rn_size
from rookchar.errors import ResourceGuardError

# --- the reference: the rational semigroup algebra --------------------------------


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


def test_sandwich_products_computed_directly():
    # One hand-checkable instance: p e{1} p and p (1 2) p commute in R_2.
    p = symmetrizer(2)
    u = p * FormalSum.of(idempotent([1])) * p
    v = p * FormalSum.of(parse_element("(1 2)")) * p
    assert u * v == v * u


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sandwich_is_the_rank_class_average(n):
    # The lemma the check rests on: p r p = (1/|D_k|) sum of D_k for r of rank k.
    p = symmetrizer(n)
    classes: dict[int, list] = {}
    for r in enumerate_rn(n):
        classes.setdefault(len(r.domain_gaps()), []).append(r)
    for members in classes.values():
        average = FormalSum((x, Fraction(1, len(members))) for x in members)
        assert all(p * FormalSum.of(r) * p == average for r in members)


# --- the check on rank classes -----------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_report_matches_the_oracle(n):
    assert check_gelfand_pair(n).to_json() == gelfand_pair(n).to_json()


@pytest.mark.parametrize("n", [2, 3])
def test_gelfand_pair_commutes(n):
    report = check_gelfand_pair(n)
    assert report.ok
    assert report.basis == len(list(enumerate_rn(n)))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_gelfand_pair_past_the_brute_force(n):
    report = check_gelfand_pair(n)
    assert (report.basis, report.distinct_products) == (rn_size(n), n + 1)
    assert report.checked == comb(n + 1, 2)
    assert report.ok, report.violations


def test_gelfand_sweep_reports_noncommuting_sandwiches(monkeypatch):
    # With [2,_,_] left out of the listing, the rank-1 class counts 8 elements
    # and the structure constants of P_1 P_2 no longer agree both ways.
    listing = elements.padded_rn
    monkeypatch.setattr(algebra, "padded_rn", lambda n: (t for t in listing(n) if t != (2, None, None)))
    report = check_gelfand_pair(3)
    assert not report.ok
    assert (report.basis, report.distinct_products, report.checked) == (33, 4, 6)
    assert report.violations == ("p [1,_,_] p vs p [1,2,_] p",)


def test_gelfand_guard():
    with pytest.raises(ResourceGuardError, match="MAX_ENUMERATION_GROUND_SET = 7"):
        check_gelfand_pair(8)
