"""Closed-form vs dense product-state oracles, embeddings, Okounkov limits."""

import inspect
import itertools
import re
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from rookchar.elements import (
    compose,
    enumerate_rn,
    idempotent,
    identity,
    parse_element,
    symmetric_group,
    transposition,
)
from rookchar.errors import ResourceGuardError
from rookchar.quasicycles import CYCLE, decompose
from rookchar.states import evaluate
from rookchar.words import EPS1, element_to_word
from rookchar.tensor_model import (
    ModelParams,
    TensorEmbedding,
    marked_cycle_value,
    model_from_state,
    okounkov_check,
    okounkov_projection_check,
    phi_closed_form,
    phi_model,
)
from conftest import ORACLE_PARAMS, SUITE_STATES

# The worked example set: alpha = 1/2, beta = 1/3, t = 1/2, leftover mass on
# one declared regular coordinate.
RUNNING = ModelParams.of(["1/2", "-1/3", "0", "0"], ["1/2", "0", "1/2", "0"], [4], 4)


def decomposed_closed_form(p, r):
    """The closed form as a product over the parts that ``decompose`` builds.

    A part of length m contributes sum_a a^{m-1} |a| w_a, with weights w = 1
    for a plain cycle and w = v^2 for a quasi-cycle or a trivial part (m = 1).
    """
    value = Fraction(1)
    for part in decompose(r):
        weights = [1] * p.d if part.kind == CYCLE else p.v_sq
        value *= sum(
            (a ** (part.length - 1) * abs(a) * w for a, w in zip(p.a_diag, weights)), Fraction(0)
        )
    return value


def rejects(code, a_diag, v_sq, regular, slots=2):
    """Building these parameters raises ValueError naming condition ``code``."""
    with pytest.raises(ValueError, match=re.escape(f"({code}) ")):
        ModelParams.of(a_diag, v_sq, regular, slots)


class TestValidation:
    def test_running_params_pass(self):
        assert ModelParams(RUNNING.a_diag, RUNNING.v_sq, RUNNING.regular, 4) == RUNNING

    # int() would truncate 4.5 to 4 and read True as 1.
    @pytest.mark.parametrize(
        "value, accepted",
        [(4, True), ("4", True), (4.0, True), (4.5, False), (True, False)],
        ids=["int", "str", "float", "fractional", "bool"],
    )
    def test_regular_and_slots_are_integers(self, value, accepted):
        a_diag, v_sq = RUNNING.a_diag, RUNNING.v_sq
        if accepted:
            assert ModelParams.of(a_diag, v_sq, [value], value) == RUNNING
        else:
            with pytest.raises(ValueError, match="regular coordinate must be an integer"):
                ModelParams.of(a_diag, v_sq, [value], 4)
            with pytest.raises(ValueError, match="slots must be an integer"):
                ModelParams.of(a_diag, v_sq, [4], value)

    def test_mass_bound(self):
        # A trace norm above 1 cannot satisfy both (c) and (d).
        with pytest.raises(ValueError) as exc:
            ModelParams.of(["3/4", "-2/5"], ["1", "0"], [], 2)
        assert str(exc.value) == (
            "invalid model parameters: (a) trace norm of A is 23/20; "
            "(d) leftover spectral mass needs at least one regular coordinate"
        )

    # The conditions without a named test below.  A trace norm above 1 fails
    # (c) or (d) too, and an eigenvalue outside [-1, 1] breaks (a) as well.
    @pytest.mark.parametrize(
        "code, a_diag, v_sq, regular",
        [
            ("a", ["3/4", "-2/5", "0"], ["1", "0", "0"], [3]),
            ("b", ["1", "0"], ["1/2", "0"], []),
            ("range", ["3/2"], ["1"], []),
            ("regular-kernel", ["1/2", "1/4"], ["1", "0"], [2]),
        ],
        ids=["a", "b", "range", "regular-kernel"],
    )
    def test_failing_condition_is_rejected(self, code, a_diag, v_sq, regular):
        rejects(code, a_diag, v_sq, regular)

    def test_weight_on_negative_block_fails(self):
        rejects("e", ["1/2", "-1/3", "0", "0"], ["1/2", "1/2", "0", "0"], [4], 4)

    def test_weight_on_regular_fails(self):
        rejects("f", ["1/2", "-1/3", "0", "0"], ["1/2", "0", "0", "1/2"], [4], 4)

    def test_leftover_mass_needs_regular(self):
        rejects("d", ["1/2", "0"], ["1", "0"], [])

    def test_full_mass_forbids_regular(self):
        rejects("c", ["1", "0"], ["1", "0"], [2])

    def test_oracle_sets_pass(self, oracle_params):
        p = oracle_params
        assert ModelParams(p.a_diag, p.v_sq, p.regular, p.slots) == p

    def test_closed_form_rejects_invalid(self):
        # The closed form cannot be reached with invalid parameters: they
        # are refused when the parameters are built.
        with pytest.raises(ValueError, match="invalid model parameters"):
            ModelParams.of(["1/2", "-1/2"], ["1/2", "1/2"], [], 2)

    def test_json_roundtrip(self):
        again = ModelParams.from_json(RUNNING.to_json())
        assert again == RUNNING
        assert RUNNING.to_json()["v"] == ["sqrt(1/2)", "0", "sqrt(1/2)", "0"]

    def test_json_input_is_checked(self):
        data = dict(RUNNING.to_json(), regular=[])
        with pytest.raises(ValueError, match=re.escape("(d) leftover spectral mass")):
            ModelParams.from_json(data)


class TestClosedForm:
    def test_plain_cycle_matches_character(self):
        assert phi_closed_form(RUNNING, parse_element("(1 2)")) == Fraction(5, 36)

    def test_single_marked_cycle(self):
        assert phi_closed_form(RUNNING, parse_element("(1 2)e{1}")) == Fraction(1, 8)

    def test_double_marked_cycle(self):
        r = parse_element("(1 2 3 4)e{1}e{3}")
        assert phi_closed_form(RUNNING, r) == Fraction(1, 64)
        assert marked_cycle_value(RUNNING, 4, [1, 3]) == Fraction(1, 64)

    def test_marked_cycle_rotation_invariance(self):
        # Shifting all marked positions around the cycle must not change the
        # value: the element is conjugate by a rotation.
        for marks in ([1], [1, 3], [1, 2], [2, 4]):
            vals = set()
            for shift in range(4):
                shifted = sorted((m - 1 + shift) % 4 + 1 for m in marks)
                vals.add(marked_cycle_value(RUNNING, 4, shifted))
            assert len(vals) == 1

    def test_marked_cycle_matches_decomposed_element(self):
        for k in (2, 3, 4):
            for b in range(1, k + 1):
                for marks in itertools.combinations(range(1, k + 1), b):
                    r = compose(
                        parse_element("(" + " ".join(map(str, range(1, k + 1))) + ")"),
                        idempotent(marks),
                    )
                    assert marked_cycle_value(RUNNING, k, marks) == phi_closed_form(
                        RUNNING, r
                    )

    @pytest.mark.parametrize(
        "params",
        list(ORACLE_PARAMS.values())
        + [model_from_state(state, slots=5) for state in SUITE_STATES.values()],
        ids=list(ORACLE_PARAMS) + [f"bridge_{name}" for name in SUITE_STATES],
    )
    def test_matches_the_decomposition_on_r5(self, params):
        # R_5 holds R_0 .. R_4: elements are stored without trailing fixed points.
        for r in enumerate_rn(5):
            assert phi_closed_form(params, r) == decomposed_closed_form(params, r), r.literal()

    def test_rank_one_spectral_relation(self, oracle_params):
        # <A^{m-1} v, v> = <A^{m-2}|A| v, v> when v avoids the negative block.
        p = oracle_params
        for m in range(2, 7):
            lhs = sum(a ** (m - 1) * q for a, q in zip(p.a_diag, p.v_sq))
            rhs = sum(a ** (m - 2) * abs(a) * q for a, q in zip(p.a_diag, p.v_sq))
            assert lhs == rhs


class TestEmbedding:
    def test_swap_without_negative_block(self):
        p = ModelParams.of(["1/2", "1/2"], ["1", "0"], [], 2)
        emb = TensorEmbedding(p)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        assert np.array_equal(emb.generator_s(1), swap)

    def test_generators_square_correctly(self):
        emb = TensorEmbedding(ORACLE_PARAMS["t_half_beta"])
        s1 = emb.generator_s(1)
        assert np.allclose(s1 @ s1, np.eye(emb.dim))
        q = emb.generator_eps1()
        assert np.allclose(q @ q, q)

    def test_epsilon_k_is_slot_projection(self):
        emb = TensorEmbedding(ORACLE_PARAMS["t_half_beta"])
        d, n = emb.params.d, emb.params.slots
        qmat = np.outer(emb._v, emb._v)
        for k in range(1, n + 1):
            direct = np.kron(
                np.kron(np.eye(d ** (k - 1)), qmat), np.eye(d ** (n - k))
            )
            assert np.allclose(emb.matrix(idempotent([k])), direct, atol=1e-12)

    @pytest.mark.parametrize("twist", [True, False])
    def test_structured_images_match_dense_products(self, twist):
        # Reference: the left-to-right product of the dense generator images.
        emb = TensorEmbedding(ORACLE_PARAMS["t_half_beta"])
        if not twist:
            emb._swap_sign[:] = 1.0
        x = np.random.default_rng(7).standard_normal((emb.dim, 3))
        for r in enumerate_rn(3):
            images = [
                emb.generator_eps1() if letter == EPS1 else emb.generator_s(letter)
                for letter in element_to_word(r)
            ]
            dense = reduce(np.matmul, images, np.eye(emb.dim))
            assert np.allclose(emb.matrix(r), dense, rtol=0, atol=1e-12), r.literal()
            assert np.allclose(emb.apply(r, x), dense @ x, rtol=0, atol=1e-12), r.literal()

    def test_pair_value_applies_middles_in_order(self):
        # Reference: psi of the full matrix() products.  t1_beta's product
        # state has full support; t_half_beta's vanishes on all but 2^4 of
        # its 4^4 columns, which image() and the values drop.
        x, y = parse_element("(1 2)e{1}"), parse_element("[2,_]")
        mids = (parse_element("(1 3)"), parse_element("(1 2 3)e{2}"))
        for name, support_size in (("t1_beta", 256), ("t_half_beta", 16)):
            emb = TensorEmbedding(ORACLE_PARAMS[name])
            support = np.flatnonzero(emb.rho_vec)
            assert support.size == support_size
            for r in (x, y, *mids):
                full = emb.matrix(r)
                assert np.allclose(emb.image(r), full[:, support], rtol=0, atol=1e-14)
                assert emb.state_value(r) == pytest.approx(emb.psi(full), abs=1e-14)
            tx, ty = emb.image(x), emb.image(y)
            mx, my = emb.matrix(x), emb.matrix(y)
            dense = my.T @ emb.matrix(mids[0]) @ emb.matrix(mids[1]) @ mx
            assert emb.pair_value(mids, tx, ty) == pytest.approx(emb.psi(dense), abs=1e-14)
            diag = emb.slot_diag(2, emb._a)
            expected = emb.psi(my.T @ np.diag(diag) @ mx)
            assert emb.pair_value_diag(diag, tx, ty) == pytest.approx(expected, abs=1e-14)

    def test_state_value_builds_no_full_image(self):
        # finite_t1 has spectral mass 7/8; with one regular coordinate per
        # slot d = 7, so one full T(r) is a 2401^2 float array (46 MB).
        emb = TensorEmbedding(model_from_state(SUITE_STATES["finite_t1"], slots=4))
        assert emb.dim == 2401
        full_image_bytes = 8 * emb.dim**2
        tracemalloc.start()
        try:
            for lit in ("(1 2 3 4)e{1}", "(1 4)(2 3)e{2}e{3}", "[_,_,_,_]"):
                emb.state_value(parse_element(lit))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_image_bytes / 2

    def test_guard(self):
        p = ModelParams.of(["1", "0", "0", "0"], ["1", "0", "0", "0"], [], 12)
        with pytest.raises(ResourceGuardError):
            TensorEmbedding(p)

    def test_support_beyond_slots_rejected(self):
        emb = TensorEmbedding(ModelParams.of(["1", "0"], ["1", "0"], [], 2))
        with pytest.raises(ValueError):
            emb.matrix(idempotent([3]))


class TestOracleEquivalence:
    def test_normalization(self, oracle_params):
        emb = TensorEmbedding(oracle_params)
        assert phi_model(emb, identity()) == pytest.approx(1.0)

    def test_sixteen_by_sixteen_sign_twist(self):
        p = ModelParams.of(["1/2", "1/12", "-1/3", "-1/12"], ["1", "0", "0", "0"], [], 2)
        emb = TensorEmbedding(p)
        assert emb.dim == 16
        value = phi_model(emb, parse_element("(1 2)"))
        assert value == pytest.approx(5 / 36, abs=1e-14)

    def test_epsilon_value_with_running_params(self):
        emb = TensorEmbedding(RUNNING)
        assert phi_model(emb, idempotent([1])) == pytest.approx(0.25, abs=1e-14)
        assert phi_closed_form(RUNNING, idempotent([1])) == Fraction(1, 4)

    def test_broken_sign_twist_is_caught(self):
        p = ORACLE_PARAMS["t_half_beta"]
        crooked = TensorEmbedding(p)
        crooked._swap_sign[:] = 1.0
        r = parse_element("(1 2)")
        assert abs(phi_model(crooked, r) - float(phi_closed_form(p, r))) > 0.2

    def test_r3_agreement(self, oracle_params):
        emb = TensorEmbedding(oracle_params)
        for r in enumerate_rn(3):
            assert phi_model(emb, r) == pytest.approx(
                float(phi_closed_form(oracle_params, r)), abs=1e-10
            )

    def test_model_invariance_and_multiplicativity(self):
        p = ORACLE_PARAMS["t_half_beta"]
        emb = TensorEmbedding(p)
        elems = list(enumerate_rn(3))
        values = {r: phi_model(emb, r) for r in elems}
        for s in symmetric_group(3):
            for r in elems:
                assert phi_model(emb, compose(s, r)) == pytest.approx(
                    phi_model(emb, compose(r, s)), abs=1e-12
                )
        for r1, r2 in itertools.combinations(elems, 2):
            if r1.support() & r2.support():
                continue
            assert phi_model(emb, compose(r1, r2)) == pytest.approx(
                values[r1] * values[r2], abs=1e-10
            )

    def test_truncated_regular_block_collision_is_understood(self):
        # With leftover mass recycled through a single regular coordinate,
        # plain cycles whose slots collide gain (1 - Tr|A|)^len; quasi-cycle
        # and idempotent values stay exact.  This documents the deviation.
        emb = TensorEmbedding(RUNNING)
        r = parse_element("(1 2)")
        leftover = 1 - float(RUNNING.spectral_mass)
        assert phi_model(emb, r) == pytest.approx(
            float(phi_closed_form(RUNNING, r)) + leftover**2, abs=1e-12
        )
        q = parse_element("(1 2)e{1}")
        assert phi_model(emb, q) == pytest.approx(
            float(phi_closed_form(RUNNING, q)), abs=1e-12
        )


class TestStateFamilyBridge:
    def test_exact_equality_r3(self, suite_state):
        params = model_from_state(suite_state, slots=3)
        for r in enumerate_rn(3):
            assert phi_closed_form(params, r) == evaluate(suite_state, r)

    @pytest.mark.parametrize("name", ["finite_t1", "zero_extension"])
    def test_bridge_declares_one_regular_coordinate_per_slot(self, name):
        # Spectral mass < 1: each slot gets its own zero-eigenvalue,
        # zero-v coordinate, so no two slots share leftover mass and the
        # dense model matches the closed form on plain cycles too.
        params = model_from_state(SUITE_STATES[name], slots=3)
        assert len(params.regular) == 3
        assert all(params.a_diag[j - 1] == 0 == params.v_sq[j - 1] for j in params.regular)
        emb = TensorEmbedding(params)
        for r in enumerate_rn(3):
            assert phi_model(emb, r) == pytest.approx(
                float(phi_closed_form(params, r)), abs=1e-12
            )

    def test_bridge_declares_regular_only_when_needed(self):
        full = model_from_state(SUITE_STATES["running"], slots=3)
        assert full.regular == ()  # 1/2 + 1/3 + 1/6 == 1
        partial = model_from_state(SUITE_STATES["zero_extension"], slots=3)
        assert partial.regular != ()


class TestOkounkov:
    def test_identity_pair_reproduces_two_cycle_value(self):
        p = ORACLE_PARAMS["t_half_beta"]
        rep = okounkov_check(TensorEmbedding(p), 1, identity(), identity())
        expected = float(phi_closed_form(p, parse_element("(1 2)")))
        assert rep.target == pytest.approx(expected, abs=1e-12)
        assert rep.max_deviation <= 1e-12
        assert len(rep.values) == 3  # n in {2, 3, 4} with N = 4, k = 1

    def test_epsilon_pair(self):
        p = ORACLE_PARAMS["t_half_beta"]
        eps = idempotent([1])
        rep = okounkov_check(TensorEmbedding(p), 2, eps, eps)
        expected = float(phi_closed_form(p, parse_element("(2 3)e{1}")))
        assert rep.target == pytest.approx(expected, abs=1e-12)
        assert rep.max_deviation <= 1e-12

    def test_r2_vectors_stabilize(self):
        p = ORACLE_PARAMS["t1_beta"]
        emb = TensorEmbedding(p)
        for x in enumerate_rn(2):
            for y in enumerate_rn(2):
                rep = okounkov_check(emb, 3, x, y)
                assert rep.max_deviation <= 1e-12

    def test_support_bound_enforced(self):
        p = ORACLE_PARAMS["t_half_beta"]
        with pytest.raises(ValueError):
            okounkov_check(TensorEmbedding(p), 4, identity(), identity())

    @pytest.mark.parametrize("k", [0, -1, -4])
    def test_slot_below_one_rejected(self, k):
        projection = ModelParams.of(["1", "0", "0"], ["1/2", "1/2", "0"], [], 4)
        with pytest.raises(ValueError, match=f"slot index {k} out of range"):
            okounkov_check(TensorEmbedding(ORACLE_PARAMS["t_half_beta"]), k, identity(), identity())
        with pytest.raises(ValueError, match=f"slot index {k} out of range"):
            okounkov_projection_check(TensorEmbedding(projection), k, identity(), identity())

    def test_projection_law(self):
        p = ModelParams.of(["1", "0", "0"], ["1/2", "1/2", "0"], [], 4)
        emb = TensorEmbedding(p)
        for x in enumerate_rn(1):
            for y in enumerate_rn(1):
                assert okounkov_projection_check(emb, 2, x, y) <= 1e-12

    # Slot 4 alone is admissible beside (1 2) and slot 3; slot 2 alone beside
    # slot 1 with N = 2.  One slot gives no pair to compare.
    @pytest.mark.parametrize(
        "slots, k, x", [(4, 3, "(1 2)"), (2, 1, "e")], ids=["N4-k3", "N2-k1"]
    )
    def test_projection_law_needs_two_admissible_slots(self, slots, k, x):
        p = ModelParams.of(["1", "0", "0", "0"], ["1/2", "1/2", "0", "0"], [], slots)
        x = parse_element(x)
        with pytest.raises(ValueError, match="needs two admissible slots .* found 1"):
            okounkov_projection_check(TensorEmbedding(p), k, x, x)

    def test_projection_law_requires_projection(self):
        # The precondition is read from the embedding the check runs on, so a
        # non-projection model cannot be checked under a projection's name.
        with pytest.raises(ValueError, match="projection law requires eigenvalues"):
            okounkov_projection_check(
                TensorEmbedding(ORACLE_PARAMS["t_half_beta"]), 1, identity(), identity()
            )

    @pytest.mark.parametrize("fn", [phi_model, okounkov_check, okounkov_projection_check])
    def test_dense_route_takes_only_the_embedding(self, fn):
        params = inspect.signature(fn).parameters.values()
        assert next(iter(params)).name == "embedding"
        assert all(p.default is inspect.Parameter.empty for p in params)
