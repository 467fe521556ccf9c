"""Finite spherical coefficients, the infinite slot model, and the limit table."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rookchar.elements import (
    compose,
    enumerate_rn,
    idempotent,
    parse_element,
    symmetric_group,
)
from rookchar.errors import MAX_DIGITS, MAX_POINT, ParseError, ResourceGuardError
from rookchar.spherical import (
    SphericalModel,
    infinite_spherical_value,
    spherical_coeff,
    spherical_coeff_closed_form,
    spherical_limit_check,
)
from conftest import slot_coefficient_table
import oracles


def dense_spherical_coeff(model, r):
    """Reference: the full C(n,l) x C(n,l) matrix of pi(r), summed."""
    n, l = model.n, model.l
    size = math.comb(n, l)
    line, kills = r.one_line(n), r.domain_gaps()
    kill_set = set(kills)
    basis = list(itertools.combinations(range(1, n + 1), l))
    index = {a: i for i, a in enumerate(basis)}
    matrix = np.zeros((size, size), dtype=np.int64)
    for col, a in enumerate(basis):
        if not kill_set <= set(a):
            continue
        image = tuple(sorted(line[x - 1] for x in a))
        matrix[index[image], col] = 1
    return Fraction(int(matrix.sum()), size)


class TestFiniteCoefficients:
    def test_quoted_values(self):
        m = SphericalModel(4, 2)
        assert spherical_coeff(m, idempotent([1])) == Fraction(1, 2)
        assert spherical_coeff(m, idempotent([1, 2])) == Fraction(1, 6)
        assert spherical_coeff(m, idempotent([1, 2, 3])) == 0

    def test_matches_closed_form_everywhere(self):
        for n in range(1, 7):
            for l in range(n + 1):
                model = SphericalModel(n, l)
                for b in range(1, n + 1):
                    for points in itertools.combinations(range(1, n + 1), b):
                        assert spherical_coeff(model, idempotent(points)) == (
                            spherical_coeff_closed_form(n, l, b)
                        )

    def test_permutation_part_is_irrelevant(self):
        model = SphericalModel(5, 3)
        eps = idempotent([2, 4])
        for s in symmetric_group(5):
            assert spherical_coeff(model, compose(s, eps)) == spherical_coeff(model, eps)

    def test_support_bound(self):
        with pytest.raises(ValueError):
            spherical_coeff(SphericalModel(3, 1), idempotent([4]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SphericalModel(3, 4)
        with pytest.raises(ValueError):
            SphericalModel(3, -1)

    def test_ground_set_guard(self):
        assert SphericalModel(MAX_POINT, 0).n == MAX_POINT
        with pytest.raises(ResourceGuardError, match=f"MAX_POINT = {MAX_POINT}"):
            SphericalModel(MAX_POINT + 1, 0)

    def test_basis_guard(self):
        # C(14292, 7097) < 10^4300 <= C(14292, 7098): the model, not the
        # coefficient, is refused, and the largest model left still prints.
        assert str(spherical_coeff(SphericalModel(14292, 7097), idempotent([1]))) == "7097/14292"
        with pytest.raises(ResourceGuardError, match=rf"C\(14292,7098\) >= 2\^14284 .* MAX_DIGITS = {MAX_DIGITS}"):
            SphericalModel(14292, 7098)

    def test_models_past_the_old_basis_cap_print(self):
        # C(18, 9) = 48,620 subsets, over the former cap of 20,000 on C(n, l).
        model = SphericalModel(18, 9)
        for b in range(10):
            r = idempotent(range(1, b + 1))
            assert spherical_coeff(model, r) == oracles.spherical_coeff(model, r), b

    def test_digit_guard_answers_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=f"MAX_DIGITS = {MAX_DIGITS}"):
            SphericalModel(20000, 10000)
        assert time.perf_counter() - start < 1.0

    def test_equals_dense_matrix_sum_on_r4(self):
        elems = list(enumerate_rn(4))
        for n in range(4, 7):
            for l in range(n + 1):
                model = SphericalModel(n, l)
                for r in elems:
                    assert spherical_coeff(model, r) == dense_spherical_coeff(model, r), (
                        n, l, r.literal(),
                    )

    def test_equals_per_subset_reference_on_r5(self):
        # n = 5..8 with every l: both counting sides, and b > l.
        elems = list(enumerate_rn(5))
        for n in range(5, 9):
            for l in range(n + 1):
                model = SphericalModel(n, l)
                for r in elems:
                    assert spherical_coeff(model, r) == oracles.spherical_coeff(model, r), (
                        n, l, r.literal(),
                    )

    def test_many_point_subsets_bound_memory(self):
        # C(4000,3999) = 4000 subsets under the guard, 129 MB as 3999-point
        # tuples; the count builds none of them.
        tracemalloc.start()
        try:
            got = spherical_coeff(SphericalModel(4000, 3999), parse_element("[2,_,1]"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == spherical_coeff_closed_form(4000, 3999, 1) == Fraction(3999, 4000)
        assert peak < 3_000_000

    def test_large_basis_under_the_guard(self):
        # C(16,8) = 12870 is under the guard; a dense basis matrix would be 1.3 GB.
        got = spherical_coeff(SphericalModel(16, 8), idempotent(range(1, 9)))
        assert got == spherical_coeff_closed_form(16, 8, 8)
        assert got == Fraction(1, 12870)

    @pytest.mark.parametrize("b", range(9))
    def test_equals_per_subset_reference_at_the_guard(self, b):
        # C(16,8) = 12870 subsets, the largest middle basis under the guard.
        model = SphericalModel(16, 8)
        r = compose(parse_element("(1 16 5)(2 9)"), idempotent(range(3, 3 + b)))
        assert len(r.domain_gaps()) == b
        assert spherical_coeff(model, r) == oracles.spherical_coeff(model, r)

    @pytest.mark.parametrize("n, l, killed", [(2, 5, 3), (4, 2, -1), (-1, 0, 0), (3, -1, 0)])
    def test_closed_form_rejects_bad_arguments(self, n, l, killed):
        with pytest.raises(ValueError, match=f"n={n}, l={l}, killed={killed}"):
            spherical_coeff_closed_form(n, l, killed)

    @pytest.mark.parametrize("n, l, killed", [(4, 2, 3), (2, 1, 5), (0, 0, 1)])
    def test_closed_form_is_zero_past_the_subset(self, n, l, killed):
        # The limit table asks for n below the kill count.
        assert spherical_coeff_closed_form(n, l, killed) == 0

    def test_model_reads_integers(self):
        assert SphericalModel("3", 1) == SphericalModel(3, 1)
        with pytest.raises(ParseError, match="n must be an integer, got 3.5"):
            SphericalModel(3.5, 1)
        with pytest.raises(ParseError, match="n must be an integer, got True"):
            SphericalModel(True, 0)
        with pytest.raises(ParseError, match="l must be an integer, got 1.5"):
            SphericalModel(3, 1.5)


class TestInfiniteModel:
    def test_single_slot(self):
        assert infinite_spherical_value(Fraction(1, 2), idempotent([1])) == Fraction(1, 4)

    def test_two_slot_quasi_cycle(self):
        assert infinite_spherical_value(
            Fraction(1, 2), parse_element("(1 2)e{1}")
        ) == Fraction(1, 4)

    def test_permutations_fix_the_vector(self):
        assert infinite_spherical_value(Fraction(2, 3), parse_element("(1 3 2)")) == 1

    def test_kill_count_powers(self):
        k = Fraction(3, 5)
        assert infinite_spherical_value(k, idempotent([1, 2, 5])) == (k**2) ** 3

    def test_kappa_outside_the_unit_interval(self):
        assert infinite_spherical_value(Fraction(-1), idempotent([1])) == 1
        for kappa in (Fraction(3, 2), Fraction(-3, 2)):
            with pytest.raises(ValueError, match=r"\|kappa\| <= 1"):
                infinite_spherical_value(kappa, idempotent([1]))

    def test_phase_invariance_at_slot_level(self):
        rs = [idempotent([1]), parse_element("(1 2)e{1}"), parse_element("(1 2 3)e{2}e{3}")]
        plus = slot_coefficient_table(0.6, rs)
        minus = slot_coefficient_table(-0.6, rs)
        assert plus == pytest.approx(minus, abs=1e-14)
        assert plus[0] == pytest.approx(0.36)


class TestLimit:
    def test_two_scaling_table(self):
        report = spherical_limit_check(
            Fraction(1, 2), idempotent([1, 2]), [50, 100, 200]
        )
        assert report.killed == 2
        assert report.converging_scaling == "kappa_squared"
        last = dict(report.rows[-1])
        assert last["n"] == 200
        assert last["error_kappa_squared"] < 0.02
        assert last["error_kappa"] > 0.1

    def test_b_one_is_exact_under_squared_scaling(self):
        report = spherical_limit_check(Fraction(1, 2), idempotent([3]), [100])
        row = dict(report.rows[0])
        # kappa^2 * 100 is an integer here, so the coefficient is exact.
        assert row["error_kappa_squared"] == 0

    def test_report_serializes(self):
        report = spherical_limit_check(Fraction(1, 3), idempotent([1]), [30, 60])
        data = report.to_json()
        assert data["converging_scaling"] in ("kappa", "kappa_squared")
        assert len(data["rows"]) == 2

    @pytest.mark.parametrize("kappa", [Fraction(-1, 2), Fraction(3, 2)])
    def test_kappa_outside_zero_one(self, kappa):
        with pytest.raises(ValueError, match="0 <= kappa <= 1"):
            spherical_limit_check(kappa, idempotent([1, 2]), [50, 100])

    @pytest.mark.parametrize("n_list", [[], [10, -1]])
    def test_n_list_needs_entries_of_at_least_zero(self, n_list):
        with pytest.raises(ValueError, match="nonempty list of n >= 0"):
            spherical_limit_check(Fraction(1, 2), idempotent([1]), n_list)

    def test_unit_interval_ends(self):
        zero = spherical_limit_check(Fraction(0), idempotent([1]), [0, 4])
        one = spherical_limit_check(Fraction(1), idempotent([1]), [0, 4])
        assert [dict(row)["l_kappa"] for row in zero.rows + one.rows] == [0, 0, 0, 4]
        assert (zero.infinite_value, one.infinite_value) == (0, 1)
