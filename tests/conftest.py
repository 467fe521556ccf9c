"""Shared fixtures: the acceptance suite states, oracle parameter sets, and the brute-force references (permutation, sign, conjugacy orbit, spherical slot table)."""

import math
from typing import Sequence

import pytest

from rookchar.elements import PartialBijection, compose, enumerate_rn, symmetric_group
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


def is_permutation(s: PartialBijection) -> bool:
    """True when the element is a (finitary) bijection of the whole set."""
    return None not in s.images


# The sign of a permutation, counted from its cycles: the reference values of
# the sign state (alpha = (), beta = (1,)).
def sign(s: PartialBijection) -> int:
    """The sign of a finitary permutation."""
    if not is_permutation(s):
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


def conjugacy_orbit(r: PartialBijection, n: int) -> frozenset[PartialBijection]:
    """The orbit {s r s^-1 : s a permutation of 1..n}; the brute-force oracle."""
    orbit = set()
    for s in symmetric_group(n):
        orbit.add(compose(compose(s, r), s.star()))
    return frozenset(orbit)


def slot_coefficient_table(
    kappa_w: float, rs: Sequence[PartialBijection]
) -> list[float]:
    """Float slot simulation with an explicit (possibly negative) w-component.

    Exists to check that coefficients depend on u only through |(u, w)|: the
    tables for kappa_w and -kappa_w must agree to machine precision.
    """
    out = []
    perp = math.sqrt(max(0.0, 1.0 - kappa_w * kappa_w))
    # Overlaps with u = (kappa_w, perp): a projected slot holds P u = (kappa_w, 0).
    projected = kappa_w * kappa_w
    unprojected = kappa_w * kappa_w + perp * perp
    for r in rs:
        m = max(r.bound, 1)
        line, killed = r.one_line(m), set(r.domain_gaps())
        overlaps = [projected if x in killed else unprojected for x in range(1, m + 1)]
        inverse = [0] * m
        for x, y in enumerate(line, start=1):
            inverse[y - 1] = x
        value = 1.0
        for j in range(1, m + 1):
            value *= overlaps[inverse[j - 1] - 1]
        out.append(value)
    return out


@pytest.fixture(params=sorted(SUITE_STATES))
def suite_state(request):
    return SUITE_STATES[request.param]


@pytest.fixture(params=sorted(ORACLE_PARAMS))
def oracle_params(request):
    return ORACLE_PARAMS[request.param]
