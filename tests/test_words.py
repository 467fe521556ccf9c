"""Generator words: evaluation, the encoder round-trip, defining relations."""

import random
import tracemalloc

import pytest

from rookchar import words
from rookchar.elements import compose, enumerate_rn, idempotent, identity, parse_element, transposition
from rookchar.errors import MAX_POINT, MAX_VIOLATIONS, ResourceGuardError
from rookchar.words import (
    EPS1,
    S,
    element_to_word,
    verify_popova_relations,
    word_to_element,
)


def test_single_letters():
    assert word_to_element((S(1),)) == transposition(1, 2)
    assert word_to_element((EPS1,)) == idempotent([1])
    assert word_to_element(()) == parse_element("e")


def test_conjugated_idempotent():
    assert word_to_element((S(1), EPS1, S(1))) == idempotent([2])


def test_sandwiched_idempotent():
    assert word_to_element((EPS1, S(1), EPS1)) == idempotent([1, 2])


def test_mixed_relation_value():
    assert word_to_element((EPS1, S(1), EPS1, S(1))) == idempotent([1, 2])


def test_letter_validation():
    with pytest.raises(ValueError):
        S(0)


def test_encoder_examples():
    assert element_to_word(parse_element("e")) == ()
    assert element_to_word(idempotent([1])) == (EPS1,)
    w = element_to_word(parse_element("[2,_]"))
    assert word_to_element(w) == parse_element("[2,_]")


@pytest.mark.parametrize("k", range(1, 7))
def test_kill_word_length(k):
    # e{k} = c e{1} c^-1 with c = s_{k-1} ... s_1.
    assert len(element_to_word(idempotent([k]))) == 2 * k - 1


@pytest.mark.parametrize("n, longest", [(3, 10), (4, 18)])
def test_max_word_length(n, longest):
    assert max(len(element_to_word(r)) for r in enumerate_rn(n)) == longest


@pytest.mark.parametrize("n", range(5))
def test_roundtrip_exhaustive(n):
    for r in enumerate_rn(n):
        assert word_to_element(element_to_word(r)) == r


@pytest.mark.parametrize("n", [2, 5])
def test_popova_relations_hold(n):
    report = verify_popova_relations(n)
    assert report.ok
    assert report.checked > 0


def test_popova_counts_scale():
    assert verify_popova_relations(5).checked > verify_popova_relations(2).checked


def test_popova_violations_are_capped(monkeypatch):
    # Read as raw tuples, the two sides of every relation differ, so each of
    # the 39 relations at n = 8 fails; the report keeps the first 20.
    monkeypatch.setattr(words, "word_to_element", lambda w: w)
    report = verify_popova_relations(8)
    assert report.checked == 39
    assert len(report.violations) == MAX_VIOLATIONS == 20
    assert report.violations[0] == "involution s_1: (1, 1) != ()"


def test_walk_matches_composed_letters():
    # word_to_element walks one image list; composing one element per letter,
    # left to right, is the reference.
    rng = random.Random(20261020)
    for _ in range(2000):
        word = tuple(rng.randrange(8) for _ in range(rng.randrange(12)))
        expected = identity()
        for letter in word:
            factor = idempotent([1]) if letter == EPS1 else transposition(letter, letter + 1)
            expected = compose(expected, factor)
        assert word_to_element(word) == expected, word


@pytest.mark.parametrize("letter", [-1, True, False, 1.5, "1"])
def test_letters_are_nonnegative_ints(letter):
    with pytest.raises(ValueError, match="is not an int >= 0"):
        word_to_element((1, letter))


def test_point_guard_before_any_list_is_built():
    assert word_to_element((MAX_POINT - 1,)).bound == MAX_POINT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=f"MAX_POINT = {MAX_POINT}"):
            word_to_element((70000,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
