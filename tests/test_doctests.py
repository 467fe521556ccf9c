"""Run the doctests embedded in the library modules."""

import doctest

import pytest

import rookchar.elements
import rookchar.quasicycles
import rookchar.spherical
import rookchar.states
import rookchar.words


@pytest.mark.parametrize(
    "module",
    [
        rookchar.elements,
        rookchar.quasicycles,
        rookchar.spherical,
        rookchar.states,
        rookchar.words,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
