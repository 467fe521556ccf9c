"""Element arithmetic: literals, composition, involution, support, enumeration."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rookchar.elements import (
    PartialBijection,
    compose,
    cycle,
    enumerate_rn,
    from_orbits,
    gather,
    idempotent,
    identity,
    invert_images,
    literal_bound,
    padded_rn,
    parse_element,
    rn_size,
    symmetric_group,
    transposition,
)
from rookchar.errors import MAX_POINT, ParseError, ResourceGuardError
from conftest import sign


@st.composite
def partial_bijections(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    points = list(range(1, n + 1))
    dom = draw(st.sets(st.sampled_from(points), max_size=n)) if n else set()
    img = draw(st.permutations(sorted(dom))) if dom else []
    images = [None] * n
    for x, y in zip(sorted(dom), img):
        images[x - 1] = y
    return PartialBijection(images)


class TestLiterals:
    def test_parse_image_list(self):
        r = parse_element("[2,3,_,4,_]")
        assert r.images == (2, 3, None, 4, None)
        assert r(1) == 2 and r(3) is None and r(6) == 6

    def test_parse_identity(self):
        assert parse_element("e").is_identity()
        assert parse_element("[]").is_identity()
        assert parse_element("e").bound == 0

    def test_product_form_matches_image_list(self):
        assert parse_element("(1 2 3)e{3}e{5}") == parse_element("[2,3,_,4,_]")

    def test_left_factor_applied_last(self):
        assert parse_element("e{1}(1 2)").literal() == "[2,_]"
        assert parse_element("(1 2)e{1}").literal() == "[_,1]"

    def test_render_parse_fixed_point(self):
        for text in ["[2,3,_,4,_]", "e", "(1 2)(3 4 5)", "e{2,7}", "[_,1]"]:
            once = parse_element(text).literal()
            assert parse_element(once).literal() == once

    def test_canonical_trims_trailing_fixed_points(self):
        assert PartialBijection([2, 1, 3, 4]).bound == 2
        assert PartialBijection((2, 1, 3)) == parse_element("[2,1]")
        assert parse_element("(1 2)(3)").literal() == "[2,1]"

    @pytest.mark.parametrize(
        "images, literal",
        [([1, 2, 3], "e"), ([2, 1, 3], "[2,1]"), ([2, None, 3, 4], "[2,_]")],
    )
    def test_from_images_trims_valid_lists(self, images, literal):
        assert PartialBijection(images).literal() == literal

    @pytest.mark.parametrize(
        "images, kind", [([True], "bool"), ([1.0], "float"), ([2, 1, 3.0], "float")]
    )
    def test_from_images_checks_before_trimming(self, images, kind):
        # Each point would be trimmed as a trailing fixed point (True == 1 == 1.0).
        with pytest.raises(ValueError, match=f"is a {kind}, not an int"):
            PartialBijection(images)

    @pytest.mark.parametrize("spaced, packed", [("(1 2) e{3}", "(1 2)e{3}"), ("e (1 2)", "e(1 2)")])
    def test_space_between_factors(self, spaced, packed):
        assert parse_element(spaced) == parse_element(packed)

    def test_syntax_errors(self):
        for bad in ["", "[2,", "(1 2", "e{", "[x]", "frob", "e{}", "( )"]:
            with pytest.raises(ParseError):
                parse_element(bad)

    def test_injectivity_error(self):
        with pytest.raises(ParseError, match="two points map to 3"):
            parse_element("[3,3,_]")

    def test_out_of_range_error(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_element("[3,1]")

    def test_repeated_cycle_point(self):
        with pytest.raises(ValueError, match="cycle points must be distinct"):
            cycle((1, 2, 1))
        with pytest.raises(ParseError, match="cycle points must be distinct"):
            parse_element("(1 2 1)")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartialBijection((True, None)),
            lambda: cycle((True, 2)),
            lambda: PartialBijection([True, None]),
        ],
        ids=["constructor", "cycle", "from_images"],
    )
    def test_bool_points_are_refused(self, build):
        # isinstance(True, int) holds, so True once passed as the point 1.
        with pytest.raises(ValueError, match="True is a bool, not an int"):
            build()

    @pytest.mark.parametrize(
        "text, bound",
        [
            ("[2,3,_,4,_]", 5), ("[]", 0), ("[1,2,3]", 3), ("e", 0), ("(1 2)(3)", 3),
            ("(1 12)e{7}", 12), ("e{0007}", 7), (f"(1 {MAX_POINT})", MAX_POINT),
            ("(1 " + "9" * 5000 + ")", MAX_POINT + 1), ("(1 00000000002)", 2),
        ],
    )
    def test_literal_bound_is_read_without_parsing(self, text, bound):
        assert literal_bound(text) == bound
        if bound <= MAX_POINT:
            assert parse_element(text).bound <= bound


class TestPointGuard:
    """Cycles and idempotents store an image for every point up to their largest."""

    @pytest.mark.parametrize(
        "text",
        [
            "(1 4000000)", "e{3000000}", f"(1 {MAX_POINT + 1})", f"e{{2,{MAX_POINT + 1}}}",
            pytest.param({"chains": [(1, 2), (MAX_POINT + 1,)]}, id="from_orbits-chain"),
            pytest.param({"cycles": [(3, MAX_POINT + 1, 2)]}, id="from_orbits-cycle"),
            pytest.param([2, MAX_POINT + 1], id="idempotent"),
        ],
    )
    def test_refused_before_any_list_is_built(self, text):
        build = {str: parse_element, dict: lambda kw: from_orbits(**kw), list: idempotent}
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match=f"MAX_POINT = {MAX_POINT}"):
                build[type(text)](text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_largest_point_is_allowed(self):
        assert cycle((1, MAX_POINT)).bound == MAX_POINT
        assert idempotent([MAX_POINT]).bound == MAX_POINT
        assert parse_element(f"(1 {MAX_POINT})") == cycle((1, MAX_POINT))


class TestIdempotent:
    def test_point_zero(self):
        with pytest.raises(ValueError, match="point 0 out of range"):
            idempotent([0])

    def test_equals_chains_of_single_points(self):
        for b in range(9):
            for points in itertools.combinations(range(1, 9), b):
                assert idempotent(points) == from_orbits(chains=[(p,) for p in points])

    def test_unsorted_points_with_duplicates(self):
        assert idempotent([5, 2, 5, 7, 2]) == from_orbits(chains=[(2,), (5,), (7,)])
        assert idempotent(iter([3, 1, 3])).literal() == "[_,2,_]"


class TestFromOrbits:
    def test_chains_and_cycles(self):
        r = from_orbits(chains=[(1, 2, 3), (5,)], cycles=[(4, 6)])
        assert r == parse_element("(1 2 3)e{3}e{5}(4 6)")
        assert from_orbits() == from_orbits(chains=[()], cycles=[()]) == identity()
        assert from_orbits(cycles=[(7,)]) == identity()

    def test_bad_orbits(self):
        with pytest.raises(ValueError, match="point 0 out of range"):
            from_orbits(chains=[(2, 0)])
        with pytest.raises(ValueError, match="orbits must be disjoint"):
            from_orbits(chains=[(1, 2)], cycles=[(2, 3)])


class TestCompose:
    def test_identity_neutral(self):
        r = parse_element("[2,3,_,4,_]")
        assert compose(identity(), r) == r == compose(r, identity())

    def test_spec_examples(self):
        eps1, swap = idempotent([1]), transposition(1, 2)
        assert compose(eps1, swap) == parse_element("[2,_]")
        assert compose(swap, eps1) == parse_element("[_,1]")

    def test_associativity_exhaustive_r2(self):
        elems = list(enumerate_rn(2))
        for a, b, c in itertools.product(elems, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(partial_bijections(), partial_bijections(), partial_bijections())
    def test_associativity_random(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_product_with_a_non_element(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            parse_element("(1 2)") * 3


def reference_compose(r1, r2):
    """r1 * r2 point by point through the validating constructor."""
    bound = max(r1.bound, r2.bound)
    images = []
    for x in range(1, bound + 1):
        y = r2(x)
        images.append(None if y is None else r1(y))
    return PartialBijection(images)


def r5_sample_pairs(count=5000, seed=20250818):
    elems = list(enumerate_rn(5))
    rng = random.Random(seed)
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(count)]


class TestTrustedConstructor:
    """compose and star build through the one checking constructor; their
    results must equal the pointwise reference and be canonical."""

    def test_compose_matches_validated_reference_r3(self):
        for a, b in itertools.product(enumerate_rn(3), repeat=2):
            assert compose(a, b) == reference_compose(a, b), (a, b)

    def test_compose_matches_validated_reference_r5_sample(self):
        for a, b in r5_sample_pairs():
            assert compose(a, b) == reference_compose(a, b), (a, b)

    def test_mixed_bounds_are_padded_and_trimmed(self):
        # The shorter factor's implicit fixed points must be read, and the
        # product's trailing fixed points trimmed.
        swap, eps = transposition(1, 2), idempotent([4])
        assert compose(swap, eps).images == (2, 1, 3, None)
        assert compose(swap, swap).images == ()
        assert compose(cycle([1, 2, 3]), cycle([3, 2, 1])) == identity()
        assert compose(parse_element("[_,1]"), parse_element("[2,_]")).images == (1, None)

    def test_products_and_stars_revalidate(self):
        products = [compose(a, b) for a, b in r5_sample_pairs()]
        perms = (transposition(1, 5), cycle([2, 4, 3]))
        products += [compose(s, r) for r in enumerate_rn(5) for s in perms]
        stars = [r.star() for r in enumerate_rn(5)]
        for x in products + stars:
            assert PartialBijection(x.images) == x


class TestStar:
    def test_examples(self):
        assert identity().star() == identity()
        assert parse_element("[2,_]").star() == parse_element("[_,1]")
        eps = idempotent([2, 5])
        assert eps.star() == eps

    def test_involution_and_antiautomorphism_r4(self):
        elems = list(enumerate_rn(4))
        for r in elems:
            assert r.star().star() == r
        for a, b in itertools.product(elems, repeat=2):
            assert compose(a, b).star() == compose(b.star(), a.star())

    @given(partial_bijections(), partial_bijections())
    def test_antiautomorphism_random(self, a, b):
        assert compose(a, b).star() == compose(b.star(), a.star())

    def test_star_inverts(self):
        r = parse_element("[2,3,_,4,_]")
        rr = compose(r.star(), r)
        # r* r is the partial identity on the domain of r
        assert rr == idempotent(r.domain_gaps())


class TestPointwise:
    def test_point_zero_is_refused(self):
        r = parse_element("[2,_,1]")
        assert (r(1), r(2), r(4)) == (2, None, 4)
        with pytest.raises(ValueError, match="point 0 out of range"):
            r(0)

    def test_one_line_needs_the_whole_support(self):
        r = parse_element("[2,_,1]")
        assert r.one_line(3) == [2, 3, 1]
        with pytest.raises(ValueError, match=r"exceeds the ground set 1\.\.2"):
            r.one_line(2)


class TestSupport:
    def test_examples(self):
        assert identity().support() == frozenset()
        assert parse_element("[2,3,_,4,_]").support() == {1, 2, 3, 5}
        assert idempotent([7]).support() == {7}

    @given(partial_bijections(), partial_bijections())
    def test_additivity(self, a, b):
        assert compose(a, b).support() <= a.support() | b.support()

    def test_equality_for_disjoint_supports(self):
        a, b = parse_element("(1 2)e{1}"), parse_element("e{3,4}")
        assert a.support() & b.support() == frozenset()
        assert compose(a, b).support() == a.support() | b.support()

    def test_equality_sweep_r3(self):
        elems = list(enumerate_rn(3))
        for a, b in itertools.combinations(elems, 2):
            if not (a.support() & b.support()):
                assert compose(a, b).support() == a.support() | b.support()


class TestEnumeration:
    def test_counts(self):
        assert [rn_size(n) for n in range(6)] == [1, 2, 7, 34, 209, 1546]

    def test_stream_count_n6(self):
        assert sum(1 for _ in enumerate_rn(6)) == rn_size(6) == 13327

    @pytest.mark.parametrize("n", range(5))
    def test_stream_matches_count_and_is_duplicate_free(self, n):
        elems = list(enumerate_rn(n))
        assert len(elems) == rn_size(n)
        assert len(set(elems)) == len(elems)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            list(enumerate_rn(8))
        with pytest.raises(ValueError):
            list(enumerate_rn(-1))

    def test_elements_live_in_rn(self):
        assert all(r.bound <= 3 for r in enumerate_rn(3))

    def test_stream_matches_validated_reference_r5(self):
        # enumerate_rn trims padded_rn's tuples; the same listing built
        # point by point must give the same sequence, and every element must
        # rebuild from its own images.
        def reference(n):
            points = range(1, n + 1)
            for k in range(n + 1):
                for dom in itertools.combinations(points, k):
                    for img in itertools.combinations(points, k):
                        for assignment in itertools.permutations(img):
                            images = [None] * n
                            for x, y in zip(dom, assignment):
                                images[x - 1] = y
                            yield PartialBijection(images)

        elems = list(enumerate_rn(5))
        assert elems == list(reference(5))
        for x in elems:
            assert PartialBijection(x.images) == x

    @pytest.mark.parametrize("n", range(6))
    def test_padded_listing_is_the_element_listing(self, n):
        # One enumeration: enumerate_rn trims padded_rn's tuples, in order.
        padded = list(padded_rn(n))
        assert all(len(images) == n for images in padded)
        assert [PartialBijection(images) for images in padded] == list(enumerate_rn(n))

    def test_padded_guard(self):
        with pytest.raises(ResourceGuardError):
            next(padded_rn(8))
        with pytest.raises(ValueError):
            next(padded_rn(-1))


class TestImageTupleKernels:
    """gather and invert_images: the sweeps' products and stars on padded tuples."""

    @pytest.mark.parametrize("indices", [(), (2,), (0, 2), (2, 0, 1)])
    def test_gather_always_returns_a_tuple(self, indices):
        assert gather(indices)("abc") == tuple("abc"[i] for i in indices)

    @pytest.mark.parametrize("n", range(5))
    def test_products_and_stars_on_padded_tuples(self, n):
        padded = list(padded_rn(n))
        for r in padded:
            rz = tuple(0 if y is None else y for y in r)
            element = PartialBijection(r)
            assert PartialBijection(invert_images(r)) == element.star()
            for s in padded:
                other = PartialBijection(s)
                assert PartialBijection(gather(rz)((None,) + s)) == compose(other, element)
                if None not in s:  # r s by a gather over the permutation s
                    assert PartialBijection(gather([y - 1 for y in s])(r)) == compose(
                        element, other)


class TestPermutations:
    def test_symmetric_group_size(self):
        assert len(list(symmetric_group(4))) == 24

    def test_sign(self):
        assert sign(identity()) == 1
        assert sign(transposition(1, 2)) == -1
        assert sign(cycle((1, 2, 3))) == 1
        with pytest.raises(ValueError):
            sign(idempotent([1]))
