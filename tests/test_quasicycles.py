"""Decomposition uniqueness, conjugacy invariants, conjugator search and class functions."""

import collections
import itertools
import random
import time

import pytest

from rookchar.elements import (
    PartialBijection,
    compose,
    enumerate_rn,
    idempotent,
    identity,
    padded_rn,
    parse_element,
    symmetric_group,
)
from rookchar import quasicycles
from rookchar.quasicycles import (
    CYCLE,
    QUASI,
    TRIVIAL,
    ConjugacyInvariant,
    QuasiCycle,
    conjugacy_invariant,
    decompose,
    find_conjugator,
    images_invariant,
)
from conftest import conjugacy_orbit, is_permutation


class TestDecompose:
    def test_running_example(self):
        d = decompose(parse_element("[2,3,_,4,_]"))
        assert [p.literal() for p in d.parts] == ["(1 2 3)e{3}", "e{5}"]
        assert d.parts[0].kind == QUASI and d.parts[1].kind == TRIVIAL

    def test_permutation_gives_plain_cycles(self):
        d = decompose(parse_element("(1 2)(3 4 5)"))
        assert [(p.kind, p.orbit) for p in d.parts] == [
            (CYCLE, (1, 2)),
            (CYCLE, (3, 4, 5)),
        ]

    def test_diag_elements_are_trivial_products(self):
        d = decompose(idempotent([1, 2]))
        assert [p.literal() for p in d.parts] == ["e{1}", "e{2}"]

    def test_identity_is_empty(self):
        assert decompose(identity()).parts == ()
        assert decompose(identity()).literal() == "e"

    def test_multi_marked_cycle_splits(self):
        d = decompose(parse_element("(1 2 3 4)e{1}e{3}"))
        assert [p.literal() for p in d.parts] == ["(4 1)e{1}", "(2 3)e{3}"]

    @pytest.mark.parametrize("n", range(5))
    def test_roundtrip_and_disjointness(self, n):
        for r in enumerate_rn(n):
            parts = decompose(r).parts
            assert decompose(r).element() == r
            seen = set()
            for p in parts:
                assert not (seen & p.support())
                seen |= p.support()

    def test_roundtrip_is_linear_in_the_bound(self):
        # [2,1,_,...,_] at bound 10,000: one cycle and 9,998 trivial parts.
        r = PartialBijection.from_images([2, 1] + [None] * 9998)
        start = time.perf_counter()
        d = decompose(r)
        assert d.element() == r
        assert time.perf_counter() - start < 1.0
        assert len(d.parts) == 9999

    def test_part_validation(self):
        with pytest.raises(ValueError):
            QuasiCycle(QUASI, (1,))
        with pytest.raises(ValueError):
            QuasiCycle(TRIVIAL, (1, 2))
        with pytest.raises(ValueError):
            QuasiCycle("weird", (1, 2))


class TestInvariant:
    def test_examples(self):
        assert conjugacy_invariant(identity()).literal() == "((),(),0)"
        assert conjugacy_invariant(parse_element("[2,3,_,4,_]")).literal() == "((3),(),1)"
        inv = conjugacy_invariant(parse_element("(1 2)(3 4 5)"))
        assert (inv.q_partition, inv.c_partition, inv.trivial_count) == ((), (3, 2), 0)

    def test_partition_entries_at_least_two(self):
        for r in enumerate_rn(4):
            inv = conjugacy_invariant(r)
            assert all(x >= 2 for x in inv.q_partition + inv.c_partition)

    def test_kernel_agrees_with_decompose(self):
        # Every element of R_0..R_6, plus seeded random elements up to bound 12.
        # The value path (the image kernel's key, then the class's product)
        # agrees with the decomposition's invariant, on the images as given
        # and padded with fixed points to bound 14.
        rng = random.Random(20261018)
        randoms = []
        for _ in range(300):
            bound = rng.randint(0, 12)
            images = [None if rng.random() < 0.3 else y
                      for y in rng.sample(range(1, bound + 1), bound)]
            randoms.append(PartialBijection.from_images(images))
        elems = itertools.chain.from_iterable(enumerate_rn(n) for n in range(7))
        cycle, quasi = (lambda n: 10 * n), (lambda n: n + 1)
        f = quasicycles.ClassFunction(cycle, quasi)
        for r in itertools.chain(elems, randoms):
            d = decompose(r)
            inv = d.invariant
            assert conjugacy_invariant(r) == inv, r.literal()
            assert inv == invariant_from_parts(d.parts), r.literal()
            padded = r.images + tuple(range(r.bound + 1, 15))
            value = inv.product(cycle, quasi)
            assert f.of_images(r.images) == f.of_images(padded) == value, r.literal()

    def test_r4_has_twenty_classes(self):
        distinct = []
        invariants = [conjugacy_invariant(r) for r in enumerate_rn(4)]
        for inv in invariants:
            if inv not in distinct:  # compared with ==
                distinct.append(inv)
        assert len(distinct) == len(set(invariants)) == 20


def invariant_from_parts(parts):
    """The invariant derived from the decomposition's parts, kept as a reference."""
    q = sorted((p.length for p in parts if p.kind == QUASI), reverse=True)
    c = sorted((p.length for p in parts if p.kind == CYCLE), reverse=True)
    m = sum(1 for p in parts if p.kind == TRIVIAL)
    return ConjugacyInvariant(tuple(q), tuple(c), m)


class TestFindConjugator:
    def test_self_conjugacy(self):
        r = parse_element("[2,3,_,4,_]")
        s = find_conjugator(r, r)
        assert s is not None and is_permutation(s)
        assert compose(compose(s, r), s.star()) == r

    def test_idempotent_relabeling(self):
        s = find_conjugator(idempotent([1]), idempotent([2]))
        assert compose(compose(s, idempotent([2])), s.star()) == idempotent([1])

    def test_disjoint_quasi_cycles(self):
        r1 = parse_element("(1 2 3)e{3}")
        r2 = parse_element("(4 5 6)e{6}")
        s = find_conjugator(r1, r2)
        assert compose(compose(s, r2), s.star()) == r1

    def test_decomposes_each_element_once(self, monkeypatch):
        calls = []

        def counting(r):
            calls.append(r)
            return decompose.__wrapped__(r)

        monkeypatch.setattr(quasicycles, "decompose", counting)
        r1, r2 = parse_element("(1 2 3)e{3}(4 5)e{6}"), parse_element("(4 5 6)e{6}(2 3)e{1}")
        s = find_conjugator(r1, r2)
        assert compose(compose(s, r2), s.star()) == r1
        assert len(calls) == 2 and set(calls) == {r1, r2}

    def test_none_when_invariants_differ(self):
        assert find_conjugator(idempotent([1]), parse_element("(1 2)")) is None

    def test_sound_and_complete_against_orbits_r3(self):
        elems = list(enumerate_rn(3))
        orbits = {r: conjugacy_orbit(r, 3) for r in elems}
        for r1, r2 in itertools.combinations(elems, 2):
            same_inv = conjugacy_invariant(r1) == conjugacy_invariant(r2)
            assert same_inv == (r2 in orbits[r1])
            s = find_conjugator(r1, r2)
            assert (s is not None) == same_inv
            if s is not None:
                assert compose(compose(s, r2), s.star()) == r1

    def test_invariant_constant_on_orbits_r4(self):
        for r in enumerate_rn(4):
            inv = conjugacy_invariant(r)
            for s in symmetric_group(4):
                assert conjugacy_invariant(compose(compose(s, r), s.star())) == inv


class TestClassFunction:
    def test_each_factor_length_computed_once(self):
        calls = collections.Counter()

        def cycle(n):
            calls["cycle", n] += 1
            return 10 * n

        def quasi(n):
            calls["quasi", n] += 1
            return n + 1

        f = quasicycles.ClassFunction(cycle, quasi)
        images = list(padded_rn(4))
        values = [f.of_images(im) for im in images]
        assert len(f.by_class) == 20
        assert sorted(calls) == [("cycle", n) for n in (2, 3, 4)] + [("quasi", n) for n in (1, 2, 3, 4)]
        assert set(calls.values()) == {1}
        expected = [
            ConjugacyInvariant(*images_invariant(im)).product(lambda n: 10 * n, lambda n: n + 1)
            for im in images
        ]
        assert values == expected
