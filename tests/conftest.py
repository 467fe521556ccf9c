"""Shared fixtures: the acceptance suite states, oracle parameter sets and the sign reference."""

import pytest

from rookchar.elements import PartialBijection, enumerate_rn
from rookchar.states import make_state
from rookchar.tensor_model import ModelParams

# One state per family: the running docs example, the spherical (alpha_1 = 1)
# family, both t-degenerations, the sign state, and a markless zero extension.
SUITE_STATES = {
    "running": make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, "1/2")),
    "spherical": make_state(alpha=["1"], mark=(1, "1/2")),
    "finite_t1": make_state(alpha=["1/2", "1/4"], beta=["1/8"], mark=(2, 1)),
    "rho_zero": make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, 0)),
    "sign": make_state(beta=["1"]),
    "zero_extension": make_state(alpha=["1/2"], beta=["1/4"]),
}

# The 72 elements of R_4 whose domain holds 1, 2 and at least one of 3, 4.
R4_GRAM_ELEMENTS = tuple(
    r for r in enumerate_rn(4)
    if not {1, 2} & set(r.domain_gaps()) and not {3, 4} <= set(r.domain_gaps())
)

# Oracle parameter sets all carry full spectral mass (Tr|A| = 1, empty
# regular block), where the truncated product state matches the closed form
# on every element; they cover a nonempty beta block (sign twist) and both
# t-degenerations.
ORACLE_PARAMS = {
    "t1_beta": ModelParams.of(["1/2", "1/12", "-1/3", "-1/12"], ["1", "0", "0", "0"], [], 4),
    "t_half_beta": ModelParams.of(["2/3", "-1/3", "0", "0"], ["1/2", "0", "1/2", "0"], [], 4),
    "alpha1_spherical": ModelParams.of(["1", "0", "0", "0"], ["1/3", "2/3", "0", "0"], [], 4),
    "t0": ModelParams.of(["3/5", "2/5", "0", "0"], ["0", "0", "1", "0"], [], 4),
}


# The sign of a permutation, counted from its cycles: the reference values of
# the sign state (alpha = (), beta = (1,)).
def sign(s: PartialBijection) -> int:
    """The sign of a finitary permutation."""
    if not s.is_permutation():
        raise ValueError("sign is defined for permutations only")
    images = list(s.images)
    parity = 0
    seen = [False] * len(images)
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x] - 1
            length += 1
        parity += length - 1
    return -1 if parity % 2 else 1


@pytest.fixture(params=sorted(SUITE_STATES))
def suite_state(request):
    return SUITE_STATES[request.param]


@pytest.fixture(params=sorted(ORACLE_PARAMS))
def oracle_params(request):
    return ORACLE_PARAMS[request.param]
