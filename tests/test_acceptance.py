"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances and time budgets are pinned here and nowhere else.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rookchar.algebra import check_gelfand_pair
from rookchar.elements import (
    compose,
    enumerate_rn,
    idempotent,
    identity,
    parse_element,
    symmetric_group,
)
from rookchar.quasicycles import (
    QUASI,
    TRIVIAL,
    conjugacy_invariant,
    conjugacy_orbit,
    decompose,
    find_conjugator,
)
from rookchar.spherical import (
    SphericalModel,
    spherical_coeff,
    spherical_coeff_closed_form,
    spherical_limit_check,
)
from rookchar.states import (
    I_STAR_J,
    STAR_JI,
    ThomaParams,
    check_centrality,
    check_conjugation_invariance,
    check_multiplicativity,
    check_star_symmetry,
    evaluate,
    gram_matrix,
    thoma_character,
)
from rookchar.tensor_model import (
    ModelParams,
    TensorEmbedding,
    model_from_state,
    okounkov_check,
    okounkov_projection_check,
    phi_closed_form,
    phi_model,
)
from rookchar.words import verify_popova_relations, word_to_element, element_to_word
from conftest import ORACLE_PARAMS, SUITE_STATES


@contextmanager
def criterion(number: int, title: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"[acceptance] criterion {number:2d} PASS  {title} ({elapsed:.2f}s)")


def test_criterion_01_enumeration():
    with criterion(1, "element counts |R_n| for n = 0..5", budget_seconds=1.0):
        expected = [1, 2, 7, 34, 209, 1546]
        for n, want in enumerate(expected):
            independent = sum(
                math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1)
            )
            assert independent == want
            assert sum(1 for _ in enumerate_rn(n)) == want


def test_criterion_02_decomposition_roundtrip_r5():
    with criterion(2, "decomposition round-trip and disjointness on R_5", 5.0):
        count = 0
        for r in enumerate_rn(5):
            parts = decompose(r).parts
            assert decompose(r).element() == r
            seen: set[int] = set()
            for p in parts:
                assert not (seen & p.support())
                seen |= p.support()
            count += 1
        assert count == 1546


def test_criterion_03_conjugacy_r4():
    with criterion(3, "invariant = brute-force conjugacy on R_4, conjugators recompose", 10.0):
        elems = list(enumerate_rn(4))
        invariants = [conjugacy_invariant(r) for r in elems]
        orbit_id: dict = {}
        next_id = 0
        for r in elems:
            if r not in orbit_id:
                for member in conjugacy_orbit(r, 4):
                    orbit_id[member] = next_id
                next_id += 1
        for i, j in itertools.combinations(range(len(elems)), 2):
            same_invariant = invariants[i] == invariants[j]
            assert same_invariant == (orbit_id[elems[i]] == orbit_id[elems[j]])
            if same_invariant:
                s = find_conjugator(elems[i], elems[j])
                assert s is not None
                assert compose(compose(s, elems[j]), s.star()) == elems[i]


def test_criterion_04_gelfand_pair():
    with criterion(4, "symmetrized products commute exactly for n <= 3", 30.0):
        for n in (1, 2, 3):
            report = check_gelfand_pair(n)
            assert report.ok, report.violations


def test_criterion_05_popova_and_word_roundtrip():
    with criterion(5, "defining relations at indices <= 5; word round-trip on R_4", 10.0):
        report = verify_popova_relations(5)
        assert report.ok, report.violations
        for r in enumerate_rn(4):
            assert word_to_element(element_to_word(r)) == r


def test_criterion_06_character_values():
    with criterion(6, "character spot values and the quasi-cycle law on R_5"):
        p = ThomaParams.of(["1/2", "1/3"], ["1/6"])
        assert thoma_character(p, 2) == Fraction(1, 3)
        assert thoma_character(p, 3) == Fraction(1, 6)
        quasis = [
            (r, decompose(r).parts[0])
            for r in enumerate_rn(5)
            if len(decompose(r).parts) == 1
            and decompose(r).parts[0].kind in (QUASI, TRIVIAL)
        ]
        assert quasis
        for state in SUITE_STATES.values():
            t, base = state.weight, state.quasi_base
            for r, part in quasis:
                assert evaluate(state, r) == t * base**part.length


def test_criterion_07_oracle_equivalence_r4():
    with criterion(7, "closed form vs dense model <= 1e-10 on R_4, 6 parameter sets", 120.0):
        elems = list(enumerate_rn(4))
        beta_sets = 0
        degenerate_sets = 0
        # The full-mass sets, plus two spectral mass < 1 states bridged with
        # one regular coordinate per slot (d = 7, dim 2401).
        param_sets = list(ORACLE_PARAMS.values()) + [
            model_from_state(SUITE_STATES[name], 4) for name in ("finite_t1", "zero_extension")
        ]
        for params in param_sets:
            if any(a < 0 for a in params.a_diag):
                beta_sets += 1
            if params.spectral_mass == 1 and set(params.v_sq) <= {0, 1}:
                degenerate_sets += 1
            embedding = TensorEmbedding(params)
            for r in elems:
                exact = float(phi_closed_form(params, r))
                dense = phi_model(params, r, embedding)
                assert abs(exact - dense) <= 1e-10, (params, r.literal())
        assert len(ORACLE_PARAMS) >= 3
        assert beta_sets >= 1 and degenerate_sets >= 1
        assert sum(params.spectral_mass < 1 for params in param_sets) == 2


def test_criterion_08_state_family_equivalence():
    with criterion(8, "evaluate == phi_closed_form exactly on R_4 for the suite states"):
        elems = list(enumerate_rn(4))
        for state in SUITE_STATES.values():
            params = model_from_state(state, slots=4)
            for r in elems:
                assert phi_closed_form(params, r) == evaluate(state, r)


def test_criterion_09_psd_grams_r3():
    with criterion(9, "exact PSD of the 34x34 Gram over R_3, both orderings", 60.0):
        elems = list(enumerate_rn(3))
        assert len(elems) == 34
        for state in SUITE_STATES.values():
            for ordering in (STAR_JI, I_STAR_J):
                report = gram_matrix(state, elems, ordering)
                assert report.certificate.is_psd
                assert len(report.certificate.pivots) == 34
                assert all(p >= 0 for p in report.certificate.pivots)


def test_criterion_10_state_property_suites_n4():
    with criterion(10, "centrality, multiplicativity, star, conjugation at n = 4"):
        for state in SUITE_STATES.values():
            for check in (
                check_centrality,
                check_multiplicativity,
                check_star_symmetry,
                check_conjugation_invariance,
            ):
                report = check(state, 4)
                assert report.ok, (report.suite, report.violations)


def test_criterion_11_spherical_coefficients():
    with criterion(11, "spherical coefficients exact for n <= 6; two-scaling limit table"):
        for n in range(1, 7):
            for l in range(n + 1):
                model = SphericalModel(n, l)
                for b in range(1, n + 1):
                    for points in itertools.combinations(range(1, n + 1), b):
                        assert spherical_coeff(model, idempotent(points)) == (
                            spherical_coeff_closed_form(n, l, b)
                        )
        report = spherical_limit_check(
            Fraction(1, 2), idempotent([1, 2]), [50, 100, 200]
        )
        last = report.rows[-1]
        assert last["n"] == 200
        assert last["error_kappa_squared"] < 0.02
        assert report.converging_scaling == "kappa_squared"


def test_criterion_12_okounkov_stabilization():
    with criterion(12, "transposition-limit stabilization at d = 4, N = 5; projection law"):
        params = ModelParams.of(["2/3", "-1/3", "0", "0"], ["1/2", "0", "1/2", "0"], [], 5)
        embedding = TensorEmbedding(params)
        vectors = list(enumerate_rn(2))
        for x in vectors:
            for y in vectors:
                report = okounkov_check(params, 3, x, y, embedding)
                assert report.values
                assert report.max_deviation <= 1e-12
        projection = ModelParams.of(["1", "0", "0", "0"], ["1/2", "1/2", "0", "0"], [], 5)
        proj_embedding = TensorEmbedding(projection)
        spot_vectors = [identity(), idempotent([1]), parse_element("(1 2)"), parse_element("[2,_]")]
        for x in spot_vectors:
            for y in spot_vectors:
                dev = okounkov_projection_check(projection, 3, x, y, proj_embedding)
                assert dev <= 1e-12


def test_criterion_13_fast_sweeps_n5():
    with criterion(13, "centrality and conjugation at n = 5 for the running state", 8.0):
        state = SUITE_STATES["running"]
        for check in (check_centrality, check_conjugation_invariance):
            report = check(state, 5)
            assert report.ok, (report.suite, report.violations)
            assert report.checked == 1546 * 120
