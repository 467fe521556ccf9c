"""Closed-form vs product-tensor oracles, the walk against dense references, Okounkov limits."""

import inspect
import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles

from rookchar.elements import (
    compose,
    enumerate_rn,
    idempotent,
    identity,
    parse_element,
    symmetric_group,
    transposition,
)
from rookchar import quasicycles, tensor_model
from rookchar.errors import ParseError, ResourceGuardError
from rookchar.quasicycles import CYCLE, decompose, images_invariant
from rookchar.states import evaluate
from rookchar.tensor_model import (
    ModelParams,
    TensorEmbedding,
    model_from_state,
    okounkov_check,
    okounkov_projection_check,
    phi_closed_form,
    phi_model,
)
from conftest import ORACLE_PARAMS, SUITE_STATES
from oracles import marked_cycle_value

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

    # Checked before the conditions (a)-(f): each makes one of them meaningless.
    @pytest.mark.parametrize(
        "a_diag, v_sq, regular, slots, message",
        [
            (["1", "0"], ["1"], [], 2, "v and a_diag must have the same dimension"),
            (["1", "0"], ["1", "0"], [], 0, "need at least one tensor slot"),
            (["1/2", "0"], ["1", "0"], [2, 2], 2, "regular coordinates must be distinct indices"),
            (["1/2", "0"], ["1", "0"], [3], 2, "regular coordinates must be distinct indices"),
            (["1", "0"], ["2", "-1"], [], 2, "squared vector entries must be nonnegative"),
        ],
        ids=["dimension", "slots", "repeated-regular", "regular-out-of-range", "negative-v_sq"],
    )
    def test_shape_is_checked_first(self, a_diag, v_sq, regular, slots, message):
        with pytest.raises(ValueError, match=message):
            ModelParams.of(a_diag, v_sq, regular, slots)

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

    # Fraction() would read True as 1: a_diag = (1), v = (1) is admissible.
    @pytest.mark.parametrize(
        "a_diag, v_sq, field",
        [([True], ["1"], "a_diag entry"), (["1"], [True], "v_sq entry")],
        ids=["a_diag", "v_sq"],
    )
    def test_of_rejects_booleans(self, a_diag, v_sq, field):
        with pytest.raises(ValueError, match=f"{field} must be a rational number, got True"):
            ModelParams.of(a_diag, v_sq, slots=2)

    def test_json_v_takes_numbers(self):
        # An int or float entry is v_j itself, squared exactly, as a string is.
        data = {"a_diag": ["1/4"] * 4, "v": [0.5, 0.5, "1/2", "sqrt(1/4)"], "N": 2}
        assert ModelParams.from_json(data) == ModelParams.of(["1/4"] * 4, ["1/4"] * 4, slots=2)
        one = {"a_diag": ["1", "0"], "v": [1, 0], "N": 2}
        assert ModelParams.from_json(one).v_sq == (1, 0)
        with pytest.raises(ValueError, match="v entry must be a rational number, got False"):
            ModelParams.from_json(dict(one, v=[1, False]))

    def test_json_messages_name_the_fault(self):
        # A file whose values parse but fail a condition keeps the
        # constructor's own message; a value that does not parse names its key.
        with pytest.raises(ValueError, match=r"^invalid model parameters: \(b\) .*; \(d\) "):
            ModelParams.from_json({"a_diag": [], "v": [], "N": 2})
        with pytest.raises(ParseError, match="^malformed model parameters: 'N' must be an integer"):
            ModelParams.from_json({"a_diag": ["1"], "v": ["1"], "N": 1.5})
        with pytest.raises(ParseError, match="^malformed model parameters: regular coordinate"):
            ModelParams.from_json({"a_diag": ["1", "0"], "v": ["1", "0"], "regular": [1.5], "N": 2})

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

    def test_each_class_is_computed_once_per_parameter_set(self):
        params = ModelParams.of(RUNNING.a_diag, RUNNING.v_sq, RUNNING.regular, RUNNING.slots)

        def traces():
            """Power sums computed so far: the misses of the two factor memos."""
            return params.table.cycle.cache_info().misses + params.table.quasi.cache_info().misses

        elems = list(enumerate_rn(4))
        first = [phi_closed_form(params, r) for r in elems]
        classes = {images_invariant(r.images) for r in elems}
        assert params.table.by_class.keys() == classes and len(classes) == 20
        # One trace per factor length, shared by the classes: quasi(1) for the
        # trivial points, then one per plain-cycle and per quasi-cycle length.
        cycle_lengths = {n for _, c_partition, _ in classes for n in c_partition}
        quasi_lengths = {1} | {n for q_partition, _, _ in classes for n in q_partition}
        assert traces() == len(cycle_lengths) + len(quasi_lengths) == 7
        assert [phi_closed_form(params, r) for r in elems] == first
        assert traces() == 7
        # An equal parameter set keeps its own table, with the same values.
        assert params == RUNNING and params.table is not RUNNING.table
        assert [phi_closed_form(RUNNING, r) for r in elems] == first

    @pytest.mark.parametrize("params", list(ORACLE_PARAMS.values()), ids=list(ORACLE_PARAMS))
    def test_matches_the_decomposition_with_a_small_memo_bound(self, monkeypatch, params):
        # 16 entries: both memos of the table start over many times on R_5.
        monkeypatch.setattr(quasicycles, "MAX_MEMO_ELEMENTS", 16)
        params = ModelParams(params.a_diag, params.v_sq, params.regular, params.slots)
        for r in enumerate_rn(5):
            assert phi_closed_form(params, r) == decomposed_closed_form(params, r), r.literal()
            assert len(params.table.by_images) <= 16 and len(params.table.by_class) <= 16

    def test_rank_one_spectral_relation(self, oracle_params):
        # <A^{m-1} v, v> = <A^{m-2}|A| v, v> when v avoids the negative block.
        p = oracle_params
        for m in range(2, 7):
            lhs = sum(a ** (m - 1) * q for a, q in zip(p.a_diag, p.v_sq))
            rhs = sum(a ** (m - 2) * abs(a) * q for a, q in zip(p.a_diag, p.v_sq))
            assert lhs == rhs


class TestEmbedding:
    """The product-tensor walk against the dense images of ``tests/oracles.py``."""

    def test_swap_without_negative_block(self):
        p = ModelParams.of(["1/2", "1/2"], ["1", "0"], [], 2)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        assert np.array_equal(oracles.generator_s(p, 1), swap)

    def test_generators_square_correctly(self):
        p = ORACLE_PARAMS["t_half_beta"]
        s1 = oracles.generator_s(p, 1)
        assert np.allclose(s1 @ s1, np.eye(p.d**p.slots))
        q = oracles.generator_eps1(p)
        assert np.allclose(q @ q, q)

    def test_epsilon_k_is_slot_projection(self):
        p = ORACLE_PARAMS["t_half_beta"]
        emb = TensorEmbedding(p)
        d, n = p.d, p.slots
        v = oracles.marked_vector(p)
        qmat = np.outer(v, v)
        for k in range(1, n + 1):
            direct = np.kron(
                np.kron(np.eye(d ** (k - 1)), qmat), np.eye(d ** (n - k))
            )
            walked = oracles.dense(p, emb.apply(idempotent([k]), oracles.basis_columns(p)))
            assert np.allclose(walked, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("twist", [True, False])
    def test_structured_images_match_dense_products(self, twist):
        # Every basis column of the d^N space, walked through every element of
        # R_3, against the product of the dense generator images.  t1_beta has
        # full support; without the twist the walk's negative block is cleared.
        for name in ("t_half_beta", "t1_beta"):
            p = ORACLE_PARAMS[name]
            emb = TensorEmbedding(p)
            if not twist:
                emb._neg = [False] * len(emb._neg)
            columns = oracles.basis_columns(p)
            assert len(columns) == emb.dim == 256
            for r in enumerate_rn(3):
                walked = oracles.dense(p, emb.apply(r, columns))
                dense = oracles.matrix(p, r, twist)
                assert np.allclose(walked, dense, rtol=0, atol=1e-12), (name, r.literal())

    def test_pair_value_applies_middles_in_order(self):
        # Reference: psi of the dense matrix() products.  t1_beta's product
        # state has full support; t_half_beta's vanishes on all but 2^4 of
        # its 4^4 columns, which image() and the values drop.
        x, y = parse_element("(1 2)e{1}"), parse_element("[2,_]")
        mids = (parse_element("(1 3)"), parse_element("(1 2 3)e{2}"))
        for name, support_size in (("t1_beta", 256), ("t_half_beta", 16)):
            p = ORACLE_PARAMS[name]
            emb = TensorEmbedding(p)
            support = np.flatnonzero(oracles.rho_vec(p))
            assert support.size == support_size == len(emb.image(identity()))
            for r in (x, y, *mids):
                full = oracles.matrix(p, r)
                image = oracles.dense(p, emb.image(r))
                assert np.allclose(image, full[:, support], rtol=0, atol=1e-14)
                assert emb.state_value(r) == pytest.approx(oracles.psi(p, full), abs=1e-14)
            tx, ty = emb.image(x), emb.image(y)
            mx, my = oracles.matrix(p, x), oracles.matrix(p, y)
            dense = my.T @ oracles.matrix(p, mids[0]) @ oracles.matrix(p, mids[1]) @ mx
            assert emb.pair_value(mids, tx, ty) == pytest.approx(oracles.psi(p, dense), abs=1e-14)
            a = [float(x) for x in p.a_diag]
            diag = oracles.slot_diag(p, 2, a)
            expected = oracles.psi(p, my.T @ np.diag(diag) @ mx)
            assert emb.pair_value_diag(2, tx, ty) == pytest.approx(expected, abs=1e-14)

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
        # d = 1 has one support column at every N; only MAX_SLOTS stops it.
        p = ModelParams.of(["1"], ["1"], [], tensor_model.MAX_SLOTS + 1)
        with pytest.raises(ResourceGuardError, match="MAX_SLOTS = 12"):
            TensorEmbedding(p)
        # a = (1, 0, 0, 0) at N = 12 has one support column of d^N = 4^12, so it passes.
        emb = TensorEmbedding(ModelParams.of(["1", "0", "0", "0"], ["1", "0", "0", "0"], [], 12))
        assert emb.dim == 4**12
        r = parse_element("(1 12)e{3}")
        assert phi_model(emb, r) == pytest.approx(float(phi_closed_form(emb.params, r)))
        # Four nonzero weights per slot at N = 7: 4^7 = 16384 columns.
        p = ModelParams.of(["1/4", "1/4", "-1/4", "-1/4"], ["1", "0", "0", "0"], [], 7)
        with pytest.raises(ResourceGuardError, match="16384 columns.*MAX_COLUMNS = 4096"):
            TensorEmbedding(p)

    def test_support_beyond_slots_rejected(self):
        emb = TensorEmbedding(ModelParams.of(["1", "0"], ["1", "0"], [], 2))
        with pytest.raises(ValueError):
            emb.image(idempotent([3]))


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
        crooked._neg = [False] * len(crooked._neg)
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
        # tensor model matches the closed form on plain cycles too.
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
