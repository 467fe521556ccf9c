"""Words in the generators s_i = (i i+1) and the idempotent e{1}.

A word is a tuple of letters; the letter ``i >= 1`` stands for the adjacent
transposition s_i and ``EPS1 == 0`` stands for e{1}.  Words multiply left to
right, with the rightmost letter applied first (semigroup product order).

The encoder factors r = s * e{A}, writes s by bubble-sorting its one-line
form into adjacent transpositions, and writes each e{k} as the conjugate
c e{1} c^-1 with c = s_{k-1} ... s_1, a word of length 2k - 1.
"""

from __future__ import annotations

import itertools

from .elements import PartialBijection, _check_points
from .errors import CheckReport, ResourceGuardError, tally

# The largest generator index the Popova relation sweep checks.  Its O(n^2)
# relations each build image lists of length ~n, so the sweep grows as n^3.
MAX_POPOVA_N = 128

EPS1 = 0
Word = tuple[int, ...]


def S(i: int) -> int:
    """The letter for the adjacent transposition (i i+1)."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return i


def word_to_element(word: Word) -> PartialBijection:
    """The product of the word's letters, built from one image list.

    The list is read left to right as ``out = out * letter``: s_i swaps
    entries i and i+1, and e{1} clears entry 1.  Every letter must be an
    ``int >= 0`` (a bool is refused) and the largest point it names at most
    MAX_POINT; both are checked before the list is built.

    >>> word_to_element((S(1), EPS1)).literal()
    '[_,1]'
    """
    for letter in word:
        if type(letter) is not int or letter < 0:  # isinstance would admit True
            raise ValueError(f"letter {letter!r} is not an int >= 0")
    top = max(word, default=0) + 1
    _check_points(1, top)
    images: list[int | None] = list(range(1, top + 1))
    for letter in word:
        if letter == EPS1:
            images[0] = None
        else:
            images[letter - 1], images[letter] = images[letter], images[letter - 1]
    return PartialBijection(images)


def _permutation_word(images: list[int]) -> list[int]:
    # Bubble-sort the one-line form; each position swap j is a right factor
    # s_j, so the sorted run reads back reversed as a left-to-right word.
    line = list(images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(1, len(line)):
            if line[j - 1] > line[j]:
                line[j - 1], line[j] = line[j], line[j - 1]
                swaps.append(j)
                changed = True
    return swaps[::-1]


def element_to_word(r: PartialBijection) -> Word:
    """A word evaluating back to r (word_to_element round-trips exactly).

    >>> element_to_word(PartialBijection([None]))
    (0,)
    """
    word = _permutation_word(r.one_line(r.bound))
    for k in r.domain_gaps():
        # c = s_{k-1} ... s_1 carries 1 to k, so c e{1} c^-1 = e{k}.
        word += list(range(k - 1, 0, -1)) + [EPS1] + list(range(1, k))
    return tuple(word)


def verify_popova_relations(n: int) -> CheckReport:
    """Check the five relation families for generator indices <= n.

    Families: s_i^2 = e; far commutation; braid; e{1}^2 = e{1}; and the two
    mixed identities e{1} s_1 e{1} s_1 = s_1 e{1} s_1 e{1} = e{1} s_1 e{1}.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_POPOVA_N:
        raise ResourceGuardError(
            f"popova relations up to n = {n} exceed the guard MAX_POPOVA_N = {MAX_POPOVA_N}"
        )
    relations = itertools.chain(
        ((f"involution s_{i}", (i, i), ()) for i in range(1, n + 1)),
        ((f"commutation s_{i} s_{j}", (i, j), (j, i))
         for i in range(1, n + 1) for j in range(i + 2, n + 1)),
        ((f"braid s_{i} s_{i + 1}", (i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n)),
        (
            ("idempotent e1", (EPS1, EPS1), (EPS1,)),
            ("mixed e1 s1 e1 s1", (EPS1, 1, EPS1, 1), (1, EPS1, 1, EPS1)),
            ("mixed e1 s1 e1", (EPS1, 1, EPS1, 1), (EPS1, 1, EPS1)),
        ),
    )
    return tally("popova", n, (
        f"{label}: {lhs} != {rhs}" if word_to_element(lhs) != word_to_element(rhs) else None
        for label, lhs, rhs in relations
    ))
