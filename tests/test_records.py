"""The immutable value records: copies, pickles, hashes and reprs of their values."""

import copy
import pickle
from fractions import Fraction

import pytest

from rookchar.elements import enumerate_rn, parse_element
from rookchar.errors import CheckReport
from rookchar.linalg import RationalMatrix, psd_certificate
from rookchar.quasicycles import QuasiCycle, QuasiCycleDecomposition, decompose
from rookchar.spherical import LimitReport, SphericalModel, spherical_limit_check
from rookchar.states import (
    FactorTypeVerdict, GramReport, ThomaParams, classify_factor_type, evaluate, gram_matrix,
    make_state)
from rookchar.tensor_model import ModelParams, OkounkovReport, TensorEmbedding, okounkov_check

RUNNING = parse_element("[2,3,_,4,_]")
MATRIX = RationalMatrix.from_rows([[1, Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 4)]])


def build_params():
    return ModelParams.of(["1/2", "-1/3", "0", "0"], ["1/2", "0", "1/2", "0"], [4], 4)


def build_state():
    return make_state(alpha=["1/2", "1/3"], beta=["1/6"], mark=(1, "1/2"))


PARAMS, STATE = build_params(), build_state()
# Each record with the name of one of its fields.
RECORDS = {
    "PartialBijection": (RUNNING, "images"),
    "QuasiCycle": (QuasiCycle("quasi", (1, 2, 3)), "orbit"),
    "QuasiCycleDecomposition": (decompose(RUNNING), "parts"),
    "ThomaParams": (ThomaParams.of(["1/2", "1/3"], ["1/6"]), "alpha"),
    "State": (STATE, "mark"),
    "FactorTypeVerdict": (classify_factor_type(STATE), "kind"),
    "GramReport": (gram_matrix(STATE, list(enumerate_rn(1))), "certificate"),
    "CheckReport": (CheckReport("gelfand", 3, 6, (), basis=34, distinct_products=4), "basis"),
    "SphericalModel": (SphericalModel(11, 5), "l"),
    "RationalMatrix": (MATRIX, "entries"),
    "PsdCertificate": (psd_certificate(MATRIX), "pivots"),
    "ModelParams": (PARAMS, "slots"),
    "OkounkovReport": (
        okounkov_check(TensorEmbedding(PARAMS), 3, parse_element("(1 2)"), parse_element("e{1}")),
        "values",
    ),
    "LimitReport": (spherical_limit_check(Fraction(1, 2), RUNNING, [8, 16]), "rows"),
}


@pytest.fixture(params=sorted(RECORDS))
def case(request):
    return RECORDS[request.param]


ROUNDTRIPS = pytest.mark.parametrize(
    "roundtrip", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)


@ROUNDTRIPS
def test_copies_equal_the_original(case, roundtrip):
    record, _ = case
    got = roundtrip(record)
    assert got == record and hash(got) == hash(record) and repr(got) == repr(record)


def test_fields_are_read_only(case):
    assert_read_only(*case)


def assert_read_only(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_pickled_state_evaluates():
    assert evaluate(pickle.loads(pickle.dumps(STATE)), RUNNING) == Fraction(1, 64)


@pytest.mark.parametrize("build", [build_state, build_params], ids=["State", "ModelParams"])
def test_table_is_not_a_field(build):
    one, two = build(), build()
    assert one.table is not two.table
    assert one == two and hash(one) == hash(two) and "table" not in repr(one)
    assert pickle.loads(pickle.dumps(one)).table(RUNNING) == two.table(RUNNING)


def test_default_constructor_takes_one_value_per_field():
    with pytest.raises(TypeError, match=r"^GramReport takes 4 values "
                                        r"\(elements, ordering, matrix, certificate\), got 3$"):
        GramReport(1, 2, 3)
    with pytest.raises(TypeError, match="^FactorTypeVerdict takes 2 values"):
        FactorTypeVerdict("II_1", "note", "extra")
    for cls in (QuasiCycleDecomposition, FactorTypeVerdict, GramReport, OkounkovReport, LimitReport):
        assert "__init__" not in vars(cls), cls.__name__


def test_element_hash_is_the_frozen_dataclass_hash():
    # Set iteration order (conjugacy_orbit, the order of printed sets) follows it.
    for literal in ("e", "[2,3,_,4,_]", "(1 2)e{3}", "[_,_,1]"):
        r = parse_element(literal)
        assert hash(r) == hash((r.images,))


def test_equality_is_by_class_and_values():
    assert QuasiCycle("cycle", (1, 2)) == QuasiCycle("cycle", (1, 2))
    assert QuasiCycle("cycle", (1, 2)) != QuasiCycle("cycle", (2, 1))
    assert ThomaParams.of(["1/2"]) != SphericalModel(1, 1)
    parts = (QuasiCycle("quasi", (1, 2, 3)), QuasiCycle("trivial", (5,)))
    assert decompose(RUNNING) == QuasiCycleDecomposition(parts)
    assert decompose(RUNNING) != decompose(parse_element("(2 3 4)e{4}e{1}"))
    limit = RECORDS["LimitReport"][0]
    assert limit == spherical_limit_check(Fraction(1, 2), RUNNING, [8, 16])
    assert limit != spherical_limit_check(Fraction(1, 3), RUNNING, [8, 16])


def test_repr_names_the_fields():
    assert repr(QuasiCycle("trivial", (5,))) == "QuasiCycle(kind='trivial', orbit=(5,))"
    assert repr(STATE).startswith("State(thoma=ThomaParams(alpha=(Fraction(1, 2),")
    assert "table" not in repr(STATE)
