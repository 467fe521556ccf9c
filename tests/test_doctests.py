"""Run the doctests embedded in the library modules."""

import doctest

import pytest

import rookchar.algebra
import rookchar.elements
import rookchar.linalg
import rookchar.quasicycles
import rookchar.spherical
import rookchar.states
import rookchar.tensor_model
import rookchar.words


@pytest.mark.parametrize(
    "module",
    [
        rookchar.algebra,
        rookchar.elements,
        rookchar.linalg,
        rookchar.quasicycles,
        rookchar.spherical,
        rookchar.states,
        rookchar.tensor_model,
        rookchar.words,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_memo_sharing_is_shown_by_doctests():
    """The examples that show conjugate elements sharing one memo entry run above."""
    finder = doctest.DocTestFinder()
    with_examples = {
        test.name
        for module in (rookchar.states, rookchar.quasicycles)
        for test in finder.find(module)
        if test.examples
    }
    assert {"rookchar.states.evaluate", "rookchar.quasicycles.conjugacy_invariant"} <= with_examples
