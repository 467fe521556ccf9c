"""Generator words: evaluation, the encoder round-trip, defining relations."""

import pytest

from rookchar import words
from rookchar.elements import enumerate_rn, idempotent, parse_element, transposition
from rookchar.errors import MAX_VIOLATIONS
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
