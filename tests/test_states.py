"""The central state family: values, classification, Gram matrices, sweeps."""

import math
import numbers
from fractions import Fraction

import pytest

from rookchar.elements import (
    compose,
    enumerate_rn,
    idempotent,
    identity,
    parse_element,
    symmetric_group,
)
from rookchar import quasicycles
from rookchar.errors import MAX_VIOLATIONS, ParseError
from rookchar.quasicycles import (
    CYCLE,
    QUASI,
    TRIVIAL,
    ClassFunction,
    conjugacy_invariant,
    decompose,
    images_invariant,
)
from rookchar.states import (
    I_STAR_J,
    STAR_JI,
    TYPE_I_INF,
    TYPE_II_1,
    TYPE_II_1_OR_SCALAR,
    TYPE_II_INF,
    UNCLASSIFIED,
    State,
    ThomaParams,
    check_centrality,
    check_conjugation_invariance,
    check_multiplicativity,
    check_star_symmetry,
    classify_factor_type,
    evaluate,
    gram_matrix,
    make_state,
    thoma_character,
    unchecked_value_fn,
)
from rookchar.linalg import NOT_PSD, RationalMatrix, psd_certificate, verify_certificate
from conftest import R4_GRAM_ELEMENTS, SUITE_STATES, is_permutation, sign
import oracles


def cycle_type_via_orbits(perm):
    """Independent cycle-type computation straight from the image table."""
    images, seen, lengths = list(perm.images), set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = images[x - 1]
            length += 1
        if length > 1:
            lengths.append(length)
    return lengths


class TestThomaCharacter:
    def test_spot_values(self):
        p = ThomaParams.of(["1/2", "1/3"], ["1/6"])
        assert thoma_character(p, 2) == Fraction(1, 3)
        assert thoma_character(p, 3) == Fraction(1, 6)

    def test_identity_character(self):
        p = ThomaParams.of(["1"])
        assert all(thoma_character(p, n) == 1 for n in range(2, 7))

    def test_sign_character(self):
        p = ThomaParams.of((), ["1"])
        assert [thoma_character(p, n) for n in (2, 3, 4)] == [-1, 1, -1]

    def test_short_cycles_rejected(self):
        with pytest.raises(ValueError):
            thoma_character(ThomaParams.of(["1"]), 1)


class TestMakeState:
    def test_accepts_valid(self):
        st = make_state(alpha=["1/2", "1/4"], beta=["1/8"], mark=(1, "1/3"))
        assert st.quasi_base == Fraction(1, 2) and st.weight == Fraction(1, 3)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            make_state(alpha=["1/2", "3/4"], mark=(1, "1/2"))

    def test_rejects_weight_outside_unit_interval(self):
        with pytest.raises(ValueError):
            make_state(alpha=["1"], mark=(1, 2))

    def test_rejects_excess_mass(self):
        with pytest.raises(ValueError):
            make_state(alpha=["2/3"], beta=["1/2"], mark=(1, 0))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            make_state(alpha=["1/2"], mark=(2, "1/2"))
        with pytest.raises(ValueError):
            make_state(mark=(1, "1/2"))

    def test_index_is_checked_before_weight(self):
        with pytest.raises(ValueError, match="marked index 2 out of range"):
            make_state(alpha=["1/2"], mark=(2, "3/2"))

    @pytest.mark.parametrize("t", ["3/2", "-1/2"])
    def test_weight_message(self, t):
        with pytest.raises(ValueError, match=r"weight t=.* outside \[0, 1\]"):
            make_state(alpha=["1/2"], mark=(1, t))

    def test_unchecked_value_fn_accepts_any_weight(self):
        f = unchecked_value_fn({"alpha": ["1/2"], "mark": {"i": 1, "t": "3/2"}})
        assert isinstance(f, ClassFunction)
        assert f(parse_element("e{1}")) == Fraction(3, 4)

    def test_no_mark_has_zero_weight_and_base(self):
        st = make_state(alpha=["1/2"], beta=["1/4"])
        assert st.weight == 0 and st.quasi_base == 0

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            make_state(alpha=["1/2", "0"], mark=(1, 1))

    # int() would read 1.9 and True as the index 1.
    @pytest.mark.parametrize(
        "index, accepted",
        [(1, True), ("1", True), (1.0, True), (1.9, False), (True, False)],
        ids=["int", "str", "float", "fractional", "bool"],
    )
    def test_mark_index_is_an_integer(self, index, accepted):
        if accepted:
            assert make_state(alpha=["1/2"], mark=(index, "1/2")).mark == (1, Fraction(1, 2))
        else:
            with pytest.raises(ValueError, match="mark index must be an integer"):
                make_state(alpha=["1/2"], mark=(index, "1/2"))

    # Fraction() would read True as 1 and False as 0: alpha = (1), t = 1.
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(alpha=[True]), "alpha entry"),
            (dict(alpha=["1/2"], beta=[False]), "beta entry"),
            (dict(alpha=["1/2"], mark=(1, True)), "mark weight"),
        ],
        ids=["alpha", "beta", "mark"],
    )
    def test_booleans_are_not_rationals(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be a rational number, got (True|False)"):
            make_state(**kwargs)

    def test_a_real_that_fraction_cannot_read_is_a_parse_error(self):
        # numpy's float32 is such a Real: Fraction() raises TypeError on it.
        class Opaque:
            pass

        numbers.Real.register(Opaque)
        with pytest.raises(ParseError, match="alpha entry must be a rational number"):
            make_state(alpha=[Opaque()])
        with pytest.raises(ParseError, match="^malformed state JSON: alpha entry must be"):
            State.from_json({"alpha": [Opaque()]})

    def test_decimal_exponents_are_bounded(self):
        # Fraction("1e-N") builds 10^N, so a long exponent is refused unread.
        st = make_state(alpha=["2.5E-1", "1e-3", "1e-04300"], beta=["1/3"], mark=(1, "5e-1"))
        assert st.thoma.alpha == (Fraction(1, 4), Fraction(1, 1000), Fraction(1, 10**4300))
        for text in ("1e4301", "1e-99999999", "2.5E+000012345"):
            with pytest.raises(ParseError, match="alpha entry has a decimal exponent over 4300"):
                make_state(alpha=[text])

    def test_thoma_params_reject_booleans(self):
        with pytest.raises(ValueError, match="alpha entry must be a rational number, got True"):
            ThomaParams.of(alpha=[True])
        assert ThomaParams.of(alpha=[1], beta=[]) == ThomaParams((Fraction(1),), ())

    def test_json_roundtrip(self, suite_state):
        assert State.from_json(suite_state.to_json()) == suite_state


class TestEvaluate:
    def test_normalized(self, suite_state):
        assert evaluate(suite_state, identity()) == 1

    def test_running_example(self):
        st = SUITE_STATES["running"]
        assert evaluate(st, parse_element("[2,3,_,4,_]")) == Fraction(1, 64)

    def test_sign_state(self):
        st = SUITE_STATES["sign"]
        for r in enumerate_rn(4):
            if is_permutation(r):
                assert evaluate(st, r) == sign(r)
            else:
                assert evaluate(st, r) == 0

    def test_markless_vanishes_off_the_group(self):
        st = SUITE_STATES["zero_extension"]
        for r in enumerate_rn(3):
            if not is_permutation(r):
                assert evaluate(st, r) == 0

    def test_restriction_is_the_thoma_character(self, suite_state):
        for r in enumerate_rn(4):
            if not is_permutation(r):
                continue
            expected = Fraction(1)
            for length in cycle_type_via_orbits(r):
                expected *= thoma_character(suite_state.thoma, length)
            assert evaluate(suite_state, r) == expected

    def test_quasi_cycle_law_r4(self, suite_state):
        t, base = suite_state.weight, suite_state.quasi_base
        for r in enumerate_rn(4):
            parts = decompose(r).parts
            if len(parts) == 1 and parts[0].kind in (QUASI, TRIVIAL):
                assert evaluate(suite_state, r) == t * base ** parts[0].length

    def test_trivial_state_is_constant_one(self):
        st = make_state(alpha=["1"], mark=(1, 1))
        assert all(evaluate(st, r) == 1 for r in enumerate_rn(3))

    def test_t_zero_matches_markless(self):
        withmark = SUITE_STATES["rho_zero"]
        markless = make_state(alpha=["1/2", "1/3"], beta=["1/6"])
        for r in enumerate_rn(3):
            assert evaluate(withmark, r) == evaluate(markless, r)


class TestClassify:
    def test_cases(self):
        assert classify_factor_type(make_state(alpha=["1"], mark=(1, "1/2"))).kind == TYPE_I_INF
        assert (
            classify_factor_type(make_state(alpha=["1/2", "1/4"], mark=(1, "1/3"))).kind
            == TYPE_II_INF
        )
        assert (
            classify_factor_type(make_state(alpha=["1/2", "1/4"], mark=(2, 1))).kind
            == TYPE_II_1
        )

    def test_markless_and_empty_alpha(self):
        assert classify_factor_type(SUITE_STATES["sign"]).kind == TYPE_II_1_OR_SCALAR
        assert classify_factor_type(SUITE_STATES["zero_extension"]).kind == TYPE_II_1_OR_SCALAR

    def test_boundary_is_unclassified(self):
        verdict = classify_factor_type(make_state(alpha=["1"], mark=(1, 1)))
        assert verdict.kind == UNCLASSIFIED and verdict.note


class TestGram:
    def test_two_by_two_example(self):
        st = make_state(alpha=["1/2"], mark=(1, "1/2"))  # t * alpha_1 = 1/4
        report = gram_matrix(st, [identity(), idempotent([1])])
        assert report.matrix.entries == (
            (Fraction(1), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        )
        assert report.certificate.is_psd

    def test_singleton(self, suite_state):
        report = gram_matrix(suite_state, [identity()])
        assert report.matrix.entries == ((Fraction(1),),)
        assert report.certificate.is_psd

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix(SUITE_STATES["running"], [identity(), identity()])

    def test_orderings_agree_on_r2(self, suite_state):
        elems = list(enumerate_rn(2))
        a = gram_matrix(suite_state, elems, STAR_JI)
        b = gram_matrix(suite_state, elems, I_STAR_J)
        assert a.certificate.is_psd and b.certificate.is_psd

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            gram_matrix(SUITE_STATES["running"], [identity()], "colMajor")

    def test_value_function_accepted(self, suite_state):
        elems = list(enumerate_rn(2))
        report = gram_matrix(lambda r: evaluate(suite_state, r), elems)
        assert report == gram_matrix(suite_state, elems)

    def test_unchecked_value_fn(self, suite_state):
        f = unchecked_value_fn(suite_state.to_json())
        assert all(f(r) == evaluate(suite_state, r) for r in enumerate_rn(3))
        overweight = {"alpha": ["3/4", "3/4"], "beta": [], "mark": {"i": 1, "t": "1"}}
        with pytest.raises(ValueError):
            State.from_json(overweight)
        m = gram_matrix(unchecked_value_fn(overweight), list(enumerate_rn(2)))
        assert m.certificate.verdict == NOT_PSD
        assert verify_certificate(m.matrix, m.certificate)

    @pytest.mark.parametrize("ordering", [STAR_JI, I_STAR_J])
    def test_class_function_evaluates_each_pair_once(self, ordering):
        class Counting(quasicycles.ClassFunction):
            __slots__ = ("calls",)

            def of_images(self, images):
                self.calls += 1
                return super().of_images(images)

        running = SUITE_STATES["running"]
        f = Counting(running.table.cycle, running.table.quasi)
        f.calls = 0
        elems = list(enumerate_rn(3))
        m = len(elems)
        report = gram_matrix(f, elems, ordering)
        assert f.calls == m * (m + 1) // 2
        assert report == gram_matrix(running, elems, ordering)

    @pytest.mark.parametrize("ordering", [STAR_JI, I_STAR_J])
    def test_value_function_gets_both_triangles(self, ordering):
        # Not star-symmetric: [2,_] sends 1 to 2, its star [_,1] sends 1
        # nowhere, so the Gram matrix is not symmetric.
        def image_of_one(r):
            return Fraction(r(1) or 0)

        with pytest.raises(ValueError, match="requires a symmetric matrix"):
            gram_matrix(image_of_one, list(enumerate_rn(2)), ordering)

    @pytest.mark.parametrize("ordering", [STAR_JI, I_STAR_J])
    def test_model_table_matches_composed_products(self, oracle_params, ordering):
        elems = list(enumerate_rn(3))
        f = oracle_params.table
        if ordering == STAR_JI:
            rows = [[f(compose(rj.star(), ri)) for rj in elems] for ri in elems]
        else:
            rows = [[f(compose(ri, rj.star())) for rj in elems] for ri in elems]
        matrix = RationalMatrix.from_rows(rows)
        report = gram_matrix(f, elems, ordering)
        assert report.matrix == matrix
        assert report.certificate == psd_certificate(matrix)

    # On the 72 elements of R4_GRAM_ELEMENTS the running state gives a full-rank Gram with ~300-bit pivots; the
    # markless zero extension vanishes off the 24 permutations, so rank 24.
    # The product of the nonzero pivots does not depend on the element order.
    R4_GRAM_DET = {
        "running": (
            72,
            Fraction(
                "3163533042399017307240237921109636166244237442822542641958390522472783054257484375/"
                "188394925735594199605160269812340973028926619151656175891670565891349859923934692"
                "3354628819035336577412801193722478890986766336"
            ),
        ),
        "zero_extension": (
            24,
            Fraction(
                "411044587746357653228759696400063569106143094734624065921/"
                "6277101735386680763835789423207666416102355444464034512896"
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(R4_GRAM_DET))
    def test_r4_gram_rank_and_pivot_product(self, name):
        elems = R4_GRAM_ELEMENTS
        assert len(elems) == 72
        report = gram_matrix(SUITE_STATES[name], elems)
        cert = report.certificate
        assert cert.is_psd
        nonzero = [p for p in cert.pivots if p]
        rank, det = self.R4_GRAM_DET[name]
        assert len(nonzero) == rank
        assert math.prod(nonzero) == det
        assert verify_certificate(report.matrix, cert)


def raw_cycle_value(alpha, beta, n):
    return sum(a**n for a in alpha) + (-1) ** (n - 1) * sum(b**n for b in beta)


def uncached_value(alpha, beta, t, base, r):
    """The family formula from raw power sums, with no memoised factors."""
    value = Fraction(1)
    for part in decompose(r).parts:
        n = part.length
        value *= raw_cycle_value(alpha, beta, n) if part.kind == CYCLE else t * base**n
    return value


class TestFactorMemo:
    """Values memoised by conjugacy class must never leak between parameter sets."""

    # Mass 4/3: the running state's alpha and quasi base with another beta
    # and t, so a memo keyed on too few arguments returns a wrong factor.
    OVERWEIGHT = {"alpha": ["1/2", "1/3"], "beta": ["1/2"], "mark": {"i": 1, "t": "1/3"}}

    def test_interleaved_states_match_uncached_products(self):
        fns = [(st.table, st.thoma.alpha, st.thoma.beta, st.weight, st.quasi_base)
               for st in SUITE_STATES.values()]
        alpha = tuple(Fraction(a) for a in self.OVERWEIGHT["alpha"])
        beta = tuple(Fraction(b) for b in self.OVERWEIGHT["beta"])
        fns.append((unchecked_value_fn(self.OVERWEIGHT), alpha, beta, Fraction(1, 3), alpha[0]))
        for n in (4, 5):
            for r in enumerate_rn(n):
                for f, a, b, t, base in fns:
                    assert f(r) == uncached_value(a, b, t, base, r), r.literal()

    def test_unchecked_entries_of_either_sign_are_raw_power_sums(self):
        # For a < 0, a^n differs from the model's trace form a^(n-1) |a|; the
        # unchecked formula must keep the power.
        f = unchecked_value_fn({"alpha": ["-1/2", "1/3"], "beta": ["-1/4"], "mark": {"i": 1, "t": 2}})
        alpha, beta = (Fraction(-1, 2), Fraction(1, 3)), (Fraction(-1, 4),)
        for r in enumerate_rn(4):
            assert f(r) == uncached_value(alpha, beta, Fraction(2), alpha[0], r), r.literal()

    @pytest.mark.parametrize("n", [4, 5])
    def test_tables_sharing_invariants_keep_their_own_values(self, n):
        # Same alpha and quasi base, different beta and t: every invariant of
        # R_n lands in both tables, with values that differ on most classes.
        running = make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, "1/2"))
        overweight = unchecked_value_fn(self.OVERWEIGHT)
        alpha = tuple(Fraction(a) for a in self.OVERWEIGHT["alpha"])
        beta = tuple(Fraction(b) for b in self.OVERWEIGHT["beta"])
        elems = list(enumerate_rn(n))
        for r in elems:
            assert evaluate(running, r) == uncached_value(
                running.thoma.alpha, running.thoma.beta, Fraction(1, 2), Fraction(1, 2), r)
            assert overweight(r) == uncached_value(
                alpha, beta, Fraction(1, 3), Fraction(1, 2), r)
        classes = {images_invariant(r.images) for r in elems}
        assert running.table.by_class.keys() == overweight.by_class.keys() == classes
        differing = [inv for inv in classes
                     if running.table.by_class[inv] != overweight.by_class[inv]]
        assert len(differing) == len(classes) - 1  # all but the identity's class

    def test_both_memos_stay_bounded_and_exact(self, monkeypatch):
        # A bound of 16 trips both memos on R_5: 1546 elements in 36 classes.
        # Values after every clearing must still be exact.
        monkeypatch.setattr(quasicycles, "MAX_MEMO_ELEMENTS", 16)
        st = make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, "1/2"))
        table = st.table
        params = (st.thoma.alpha, st.thoma.beta, st.weight, st.quasi_base)
        elems = list(enumerate_rn(5))
        assert (len(elems), len({conjugacy_invariant(r) for r in elems})) == (1546, 36)
        for r in elems:
            for x in (r, r.star(), r):
                assert evaluate(st, x) == uncached_value(*params, x), x.literal()
                assert len(table.by_images) <= 16 and len(table.by_class) <= 16

    def test_table_is_per_state(self):
        a = make_state(alpha=["1/2"], mark=(1, "1/2"))
        b = make_state(alpha=["1/2"], mark=(1, "1/2"))
        assert a == b and a.table is not b.table
        assert a.table is a.table

    def test_interleaved_thoma_characters(self):
        for n in range(2, 8):
            for st in SUITE_STATES.values():
                p = st.thoma
                assert thoma_character(p, n) == raw_cycle_value(p.alpha, p.beta, n)


def test_evaluate_is_the_table_read():
    for st in SUITE_STATES.values():
        for r in enumerate_rn(3):
            assert st.table(r) == evaluate(st, r)


class _Corrupted:
    """Harness self-check: a deliberately broken state wrapper."""

    def __init__(self, state, poison):
        self._state = state
        self._poison = poison

    def __call__(self, r):
        if r == self._poison:
            return evaluate(self._state, r) + 1
        return evaluate(self._state, r)


class TestSweeps:
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_pass(self, suite_state, n):
        for check in (
            check_centrality,
            check_multiplicativity,
            check_star_symmetry,
            check_conjugation_invariance,
        ):
            report = check(suite_state, n)
            assert report.ok, report.violations
            assert report.checked > 0

    def test_corrupted_state_is_detected(self):
        bad = _Corrupted(SUITE_STATES["running"], idempotent([1]))
        report = check_centrality(bad, 2)
        assert not report.ok
        assert report.violations

    # r -> bound(r) is neither central nor multiplicative: at n = 3 it fails
    # 44 of the 204 centrality and conjugation cases and 42 of the 49
    # multiplicativity cases.  r -> r(1) is not star-symmetric: it fails on
    # 120 of the 209 elements of R_4.  Each is more than a report keeps.
    @pytest.mark.parametrize(
        "check, f, n, checked, first",
        [
            (check_centrality, lambda r: Fraction(r.bound), 3, 204, "r=[3,_,_] s=[2,3,1]"),
            (check_conjugation_invariance, lambda r: Fraction(r.bound), 3, 204,
             "r=[1,_,_] s=[3,1,2]"),
            (check_multiplicativity, lambda r: Fraction(r.bound), 3, 49, "r1=[_,_,_] r2=e"),
            (check_star_symmetry, lambda r: Fraction(r(1) or 0), 4, 209, "[2,_,_,_]"),
        ],
        ids=["centrality", "conjugation", "multiplicativity", "star-symmetry"],
    )
    def test_violations_are_named_and_capped(self, check, f, n, checked, first):
        report = check(f, n)
        assert report.checked == checked
        assert len(report.violations) == MAX_VIOLATIONS == 20
        assert report.violations[0] == first


# Every kind of value function a sweep reads: the suite states (their tables),
# an unchecked table, and plain functions that break each property.
SWEPT_FUNCTIONS = {
    **{f"state-{name}": state for name, state in SUITE_STATES.items()},
    "unchecked-mass-4/3": unchecked_value_fn(TestFactorMemo.OVERWEIGHT),
    "bound": lambda r: Fraction(r.bound),
    "image-of-1": lambda r: Fraction(r(1) or 0),
    "corrupted-at-e{1}": _Corrupted(SUITE_STATES["running"], idempotent([1])),
}


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize(
    "check, reference",
    [
        (check_centrality, oracles.centrality),
        (check_conjugation_invariance, oracles.conjugation_invariance),
        (check_multiplicativity, oracles.multiplicativity),
        (check_star_symmetry, oracles.star_symmetry),
    ],
    ids=["centrality", "conjugation", "multiplicativity", "star-symmetry"],
)
@pytest.mark.parametrize("name", sorted(SWEPT_FUNCTIONS))
def test_sweeps_match_the_element_reference(name, check, reference, n):
    # The sweeps run on padded image tuples; the reference composes elements.
    got, want = check(SWEPT_FUNCTIONS[name], n), reference(SWEPT_FUNCTIONS[name], n)
    assert (got.suite, got.n, got.checked, got.violations, got.ok) == (
        want.suite, want.n, want.checked, want.violations, want.ok)
