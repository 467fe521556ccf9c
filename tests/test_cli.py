"""CLI surface: subcommands, exit codes, deterministic output."""

import csv
import json
import os
import pathlib
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

import rookchar
from rookchar import algebra, cli, elements, states, tensor_model
from rookchar.quasicycles import decompose
from rookchar.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, VERIFY_SUITES, main
from rookchar.elements import MAX_ENUMERATION_GROUND_SET, parse_element
from rookchar.states import MAX_PAIR_SWEEP_N
from rookchar.words import MAX_POPOVA_N
from conftest import SUITE_STATES

RUNNING_STATE = {
    "alpha": ["1/2", "1/3"],
    "beta": ["1/6"],
    "mark": {"i": 1, "t": "1/2"},
}
ORACLE_PARAMS = {
    "a_diag": ["2/3", "-1/3", "0", "0"],
    "v": ["sqrt(1/2)", "0", "sqrt(1/2)", "0"],
    "regular": [],
    "N": 3,
}
# The benchmark's oracle parameters: 16 support columns of d^N = 5^4 = 625.
BENCH_PARAMS = {
    "a_diag": ["2/3", "-1/3", "0", "0", "0"],
    "v": ["sqrt(1/2)", "0", "sqrt(1/2)", "0", "0"],
    "regular": [],
    "N": 4,
}


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(RUNNING_STATE))
    return str(path)


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(ORACLE_PARAMS))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "decompose", "[2,3,_,4,_]")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["parts"] == ["(1 2 3)e{3}", "e{5}"]
        assert data["invariant"] == {"quasi": [3], "cycles": [], "trivial": 1}

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "decompose", "e")
        assert code == EXIT_OK and json.loads(out)["parts"] == []

    def test_two_plain_cycles(self, capsys):
        code, out, _ = run(capsys, "decompose", "(1 2)(3 4 5)")
        assert code == EXIT_OK
        assert json.loads(out)["parts"] == ["(1 2)", "(3 4 5)"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "decompose", "[3,3,_]")
        assert code == EXIT_USAGE and "two points map to 3" in err

    def test_repeated_cycle_point_exits_2(self, capsys):
        code, out, err = run(capsys, "decompose", "(1 2 1)")
        assert (code, out) == (EXIT_USAGE, "")
        assert "cycle points must be distinct" in err

    def test_point_guard_exits_4(self, capsys):
        code, out, err = run(capsys, "decompose", "(1 4000000)")
        assert (code, out) == (EXIT_GUARD, "")
        assert "point 4000000" in err and "MAX_POINT = 65536" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "decompose", "[2,3,_,4,_]")
        _, out2, _ = run(capsys, "decompose", "[2,3,_,4,_]")
        assert out1 == out2


class TestEval:
    def test_running_example(self, capsys, state_file):
        code, out, _ = run(capsys, "eval", "--state", state_file, "--elem", "[2,3,_,4,_]")
        assert code == EXIT_OK and out.strip() == "1/64"

    def test_identity(self, capsys, state_file):
        code, out, _ = run(capsys, "eval", "--state", state_file, "--elem", "e")
        assert code == EXIT_OK and out.strip() == "1"

    def test_markless_state_on_idempotent(self, capsys, tmp_path):
        path = tmp_path / "sign.json"
        path.write_text(json.dumps({"alpha": [], "beta": ["1"], "mark": None}))
        code, out, _ = run(capsys, "eval", "--state", str(path), "--elem", "e{1}")
        assert code == EXIT_OK and out.strip() == "0"

    def test_the_longest_printable_cycle_prints(self, capsys):
        # 5,528 points is the longest cycle whose value has at most 4,300 digits.
        for n in (5527, 5528):
            code, out, _ = run(capsys, "eval", "--elem", cycle_literal(n))
            value = Fraction(1, 2**n) + Fraction(1, 3**n) + (-1) ** (n - 1) * Fraction(1, 6**n)
            assert (code, out) == (EXIT_OK, f"{value}\n"), n
        code, out, err = run(capsys, "eval", "--elem", cycle_literal(5529))
        assert (code, out) == (EXIT_GUARD, "") and "MAX_DIGITS = 4300" in err

    def test_a_long_cycle_of_unit_parameters_prints_at_once(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"alpha": ["1"]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--state", str(path), "--elem", cycle_literal(20000))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_OK, "1\n")

    def test_point_guard_exits_4(self, capsys):
        code, out, err = run(capsys, "eval", "--elem", "e{3000000}")
        assert (code, out) == (EXIT_GUARD, "")
        assert "point 3000000" in err and "MAX_POINT = 65536" in err

    def test_missing_state_file(self, capsys):
        code, _, err = run(capsys, "eval", "--state", "/nope.json", "--elem", "e")
        assert code == EXIT_USAGE and err


class TestGram:
    def test_r2_is_psd(self, capsys, state_file):
        code, out, _ = run(capsys, "gram", "--state", state_file, "--n", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["certificate"]["verdict"] == "PSD"
        assert data["ordering"] == "starJI"

    def test_orderings_agree(self, capsys, state_file):
        _, out1, _ = run(capsys, "gram", "--state", state_file, "--n", "2", "--ordering", "iStarJ")
        assert json.loads(out1)["certificate"]["verdict"] == "PSD"

    def test_elements_file(self, capsys, state_file, tmp_path):
        elems = tmp_path / "elems.txt"
        elems.write_text("e\ne{1}\n[2,_]\n")
        code, out, _ = run(capsys, "gram", "--state", state_file, "--elems", str(elems))
        assert code == EXIT_OK
        assert json.loads(out)["elements"] == ["e", "[_]", "[2,_]"]

    def test_non_state_yields_witness_and_exit_3(self, capsys, tmp_path):
        path = tmp_path / "overweight.json"
        path.write_text(
            json.dumps({"alpha": ["3/4", "3/4"], "beta": [], "mark": {"i": 1, "t": "1"}})
        )
        code, out, _ = run(
            capsys, "gram", "--state", str(path), "--n", "2", "--unchecked"
        )
        assert code == EXIT_VIOLATION
        data = json.loads(out)
        assert data["certificate"]["verdict"] == "NotPSD"
        assert data["certificate"]["witness"] is not None

    def test_dense_route_guard_exits_4_at_once(self, capsys):
        # R_5 has 1546 elements, over the guard of 1024 that admits R_4's 209.
        start = time.perf_counter()
        code, out, err = run(capsys, "gram", "--n", "5")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_GUARD, "")
        assert "1546 elements" in err and "MAX_GRAM_ELEMENTS = 1024" in err

    def test_guard_trips_before_listing_r_n(self, capsys, monkeypatch):
        # R_7 has 130,922 elements; counting them must be enough to refuse.
        def refuse(n):
            raise AssertionError(f"enumerate_rn({n}) called")

        monkeypatch.setattr(cli, "enumerate_rn", refuse)
        monkeypatch.setattr(elements, "enumerate_rn", refuse)
        code, out, err = run(capsys, "gram", "--n", "7")
        assert (code, out) == (EXIT_GUARD, "")
        assert "130922 elements" in err and "MAX_GRAM_ELEMENTS = 1024" in err

    def test_elements_file_is_counted_before_any_line_is_parsed(self, capsys, tmp_path, monkeypatch):
        def refuse(text):
            raise AssertionError(f"parse_element({text!r}) called")

        elems = tmp_path / "elems.txt"
        # 1025 nonblank lines with a blank line after each: blanks do not count.
        elems.write_text("\n\n".join(f"(1 {k})" for k in range(2, 1027)) + "\n\n")
        monkeypatch.setattr(cli, "parse_element", refuse)
        code, out, err = run(capsys, "gram", "--elems", str(elems))
        assert (code, out) == (EXIT_GUARD, "")
        assert "1025 elements" in err and "MAX_GRAM_ELEMENTS = 1024" in err

    def test_padded_products_guard_exits_4_at_once(self, capsys, tmp_path):
        # 30 elements padded to 65535 points: 30^2 * 65535 is over the
        # budget MAX_GRAM_ELEMENTS^2 * MAX_ENUMERATION_GROUND_SET.
        elems = tmp_path / "elems.txt"
        elems.write_text("".join(f"(1 {65535 - k})\n" for k in range(30)))
        start = time.perf_counter()
        code, out, err = run(capsys, "gram", "--elems", str(elems))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_GUARD, "")
        assert "30 elements padded to 65535 points" in err
        assert f"MAX_GRAM_IMAGES = {1024**2 * MAX_ENUMERATION_GROUND_SET}" in err

    def test_padded_products_are_bounded_before_any_line_is_parsed(
        self, capsys, tmp_path, monkeypatch
    ):
        # Parsed, 100 such lines took about a second and 269 MB to refuse.
        def refuse(text):
            raise AssertionError(f"parse_element({text!r}) called")

        elems = tmp_path / "elems.txt"
        elems.write_text("".join(f"(1 {65535 - k})\n" for k in range(100)))
        monkeypatch.setattr(cli, "parse_element", refuse)
        code, out, err = run(capsys, "gram", "--elems", str(elems))
        assert (code, out) == (EXIT_GUARD, "")
        assert err == (
            "resource guard: 100 elements padded to 65535 points exceed the Gram guard "
            f"m^2 w <= MAX_GRAM_IMAGES = {1024**2 * MAX_ENUMERATION_GROUND_SET}\n"
        )

    def test_padded_products_guard_bounds_m_squared_w(self, capsys, monkeypatch):
        # R_3: m = 34 elements of largest bound w = 3, so m^2 w = 3468.
        monkeypatch.setattr(states, "MAX_GRAM_IMAGES", 34**2 * 3)
        code, out, _ = run(capsys, "gram", "--n", "3")
        assert code == EXIT_OK and len(json.loads(out)["elements"]) == 34
        monkeypatch.setattr(states, "MAX_GRAM_IMAGES", 34**2 * 3 - 1)
        code, out, err = run(capsys, "gram", "--n", "3")
        assert (code, out) == (EXIT_GUARD, "")
        assert "34 elements padded to 3 points" in err

    def test_unchecked_mark_out_of_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad_mark.json"
        path.write_text(json.dumps({"alpha": ["3/4"], "beta": [], "mark": {"i": 3, "t": "1"}}))
        code, _, err = run(capsys, "gram", "--state", str(path), "--n", "2", "--unchecked")
        assert code == EXIT_USAGE
        assert "marked index 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--elem", "e", "--state"],
        ["gram", "--elems"],
        ["oracle", "--params"],
    ],
    ids=["state", "elems", "params"],
)
def test_directory_input_exits_2(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rookchar.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "rookchar.cli", *argv, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith("error: [Errno 21] Is a directory:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, data",
    [
        (["eval", "--elem", "(1 2)", "--state"], {"alpha": ["1e-10000000"]}),
        (["oracle", "--params"], dict(ORACLE_PARAMS, v=["sqrt(1e-99999999)", "0", "sqrt(1/2)", "0"])),
    ],
    ids=["state", "params"],
)
def test_huge_decimal_exponent_exits_2_at_once(tmp_path, argv, data):
    # Fraction("1e-N") builds 10^N: seconds at N = 10^7, minutes at N = 10^8.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rookchar.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "rookchar.cli", *argv, str(path)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert "exponent" in proc.stderr or "bad vector entry" in proc.stderr
    assert "Traceback" not in proc.stderr


def cycle_literal(n):
    return "(" + " ".join(map(str, range(1, n + 1))) + ")"


@pytest.mark.parametrize(
    "argv, files",
    [
        (["eval", "--elem", cycle_literal(5530)], {}),
        (["gram", "--elems", "{elems}"], {"elems": "e\n" + cycle_literal(3000) + "\n"}),
        (["eval", "--elem", "(1 2)", "--state", "{state}"], {"state": '{"alpha": ["1e-4300"]}'}),
        (["oracle", "--n", "2", "--params", "{params}"],
         {"params": json.dumps(dict(ORACLE_PARAMS, a_diag=["1/2", "1e-4300", "0", "0"], regular=[4]))}),
    ],
    ids=["eval-5530-cycle", "gram-3000-cycle-pivot", "eval-tiny-alpha", "oracle-tiny-eigenvalue"],
)
def test_a_value_too_long_to_print_exits_4_at_once(tmp_path, argv, files):
    # Python turns no integer of more than 4,300 digits into text; the value
    # 1/6^5530 + ..., the pivot 1 - f(c)^2 and the power 10^-8600 each have more.
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rookchar.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rookchar.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_GUARD, "")
    assert proc.stderr.startswith("resource guard: ") and "MAX_DIGITS = 4300" in proc.stderr



class TestVerify:
    def test_popova(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "popova", "--n", "5")
        assert code == EXIT_OK and json.loads(out)["ok"]

    def test_gelfand(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "gelfand", "--n", "3")
        assert code == EXIT_OK and json.loads(out)["ok"]

    def test_centrality_with_default_state(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "centrality", "--n", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["ok"] and data["checked"] == 34 * 6

    def test_star_suite(self, capsys, state_file):
        code, out, _ = run(
            capsys, "verify", "--suite", "star", "--n", "3", "--state", state_file
        )
        assert code == EXIT_OK and json.loads(out)["ok"]

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "frobnicate", "--n", "3")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("suite", ["star", "centrality", "conjugation", "multiplicativity"])
    def test_state_sweeps_build_no_decomposition(self, capsys, suite):
        # Values come from the image tuple's orbit lengths, not from parts.
        decompose.cache_clear()
        code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "4")
        assert code == EXIT_OK and json.loads(out)["ok"]
        assert decompose.cache_info().currsize == 0


# Exact stdout of each suite at small n, with the built-in state.
VERIFY_GOLDEN = {
    ("popova", "3"): '{"checked": 9, "n": 3, "ok": true, "suite": "popova", "violations": []}',
    ("popova", "5"): '{"checked": 18, "n": 5, "ok": true, "suite": "popova", "violations": []}',
    ("gelfand", "2"): (
        '{"basis": 7, "checked": 3, "distinct_products": 3, "n": 2, "ok": true, '
        '"suite": "gelfand", "violations": []}'
    ),
    ("gelfand", "3"): (
        '{"basis": 34, "checked": 6, "distinct_products": 4, "n": 3, "ok": true, '
        '"suite": "gelfand", "violations": []}'
    ),
    ("centrality", "2"): (
        '{"checked": 14, "n": 2, "ok": true, "suite": "centrality", "violations": []}'
    ),
    ("multiplicativity", "3"): (
        '{"checked": 49, "n": 3, "ok": true, "suite": "multiplicativity", "violations": []}'
    ),
    ("star", "3"): (
        '{"checked": 34, "n": 3, "ok": true, "suite": "star-symmetry", "violations": []}'
    ),
    ("conjugation", "2"): (
        '{"checked": 14, "n": 2, "ok": true, "suite": "conjugation-invariance", "violations": []}'
    ),
}
VERIFY_HELP = """\
usage: rookchar verify [-h] --suite
                       {centrality,multiplicativity,gelfand,popova,star,conjugation}
                       --n N [--state STATE]

options:
  -h, --help            show this help message and exit
  --suite {centrality,multiplicativity,gelfand,popova,star,conjugation}
  --n N
  --state STATE
"""


class TestVerifyGolden:
    @pytest.mark.parametrize("suite, n", sorted(VERIFY_GOLDEN), ids="-".join)
    def test_stdout_bytes(self, capsys, suite, n):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert (code, out, err) == (EXIT_OK, VERIFY_GOLDEN[suite, n] + "\n", "")

    def test_help_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(capsys, "verify", "--help")
        assert (code, out) == (EXIT_OK, VERIFY_HELP)

    @pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
    def test_negative_n_exits_2(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "-3")
        assert (code, out, err) == (EXIT_USAGE, "", "error: n must be nonnegative\n")

    def test_popova_over_the_cap_exits_4(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "popova", "--n", str(MAX_POPOVA_N + 1))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (EXIT_GUARD, "")
        assert f"MAX_POPOVA_N = {MAX_POPOVA_N}" in err

    @pytest.mark.parametrize("suite", ["centrality", "conjugation", "multiplicativity"])
    def test_pair_sweeps_over_the_cap_exit_4(self, capsys, monkeypatch, suite):
        def refuse(n):
            raise AssertionError(f"a sweep enumerated at n = {n}")

        # The sweeps list R_n through padded_rn; every other listing is
        # refused as well, so nothing at all is listed before the guard.
        monkeypatch.setattr(states, "padded_rn", refuse)
        monkeypatch.setattr(elements, "enumerate_rn", refuse)
        monkeypatch.setattr(elements, "padded_rn", refuse)
        monkeypatch.setattr(elements, "symmetric_group", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(MAX_PAIR_SWEEP_N + 1))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (EXIT_GUARD, "")
        assert f"MAX_PAIR_SWEEP_N = {MAX_PAIR_SWEEP_N}" in err

    def test_gelfand_over_the_cap_exits_4(self, capsys, monkeypatch):
        # The check lists R_n once, through padded_rn, whose guard stops n = 8
        # before the first element.
        listing, listed = elements.padded_rn, []

        def recorded(n):
            for images in listing(n):
                listed.append(images)
                yield images

        monkeypatch.setattr(algebra, "padded_rn", recorded)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "gelfand", "--n", str(MAX_ENUMERATION_GROUND_SET + 1))
        assert time.perf_counter() - start < 0.5
        assert (code, out, listed) == (EXIT_GUARD, "", [])
        assert f"MAX_ENUMERATION_GROUND_SET = {MAX_ENUMERATION_GROUND_SET}" in err

    def test_star_over_the_enumeration_guard_exits_4(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "star", "--n", "8")
        assert (code, out) == (EXIT_GUARD, "")
        assert "R_8 has 1441729 elements" in err and "MAX_ENUMERATION_GROUND_SET = 7" in err

    def test_star_sweep_runs_past_the_pair_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "star", "--n", str(MAX_PAIR_SWEEP_N + 1))
        assert code == EXIT_OK
        assert json.loads(out)["checked"] == elements.rn_size(MAX_PAIR_SWEEP_N + 1)

    def test_stateless_suites_ignore_state(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "popova", "--n", "3", "--state", "/nope")
        assert (code, out) == (EXIT_OK, VERIFY_GOLDEN["popova", "3"] + "\n")

    def test_state_suites_read_state(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "star", "--n", "3", "--state", "/nope")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ")


# Well-formed JSON of the wrong shape, or a literal with a zero denominator.
MALFORMED_JSON = [
    ("eval", "--state", {"alpha": 5}),
    ("eval", "--state", [1, 2]),
    ("eval", "--state", {"alpha": [None]}),
    ("eval", "--state", {"alpha": ["1/0"]}),
    ("gram", "--state", {"alpha": ["1/2"], "mark": 5}),
    ("oracle", "--params", {"a_diag": 5, "v": [], "N": 2}),
    ("oracle", "--params", {"a_diag": ["1/0"], "v": ["1"], "N": 2}),
    # Non-integral integer fields: never truncated by int().
    ("eval", "--state", dict(RUNNING_STATE, mark={"i": 1.9, "t": "1/2"})),
    ("eval", "--state", dict(RUNNING_STATE, mark={"i": True, "t": "1/2"})),
    ("eval", "--state", dict(RUNNING_STATE, mark={"i": "1/2", "t": "1/2"})),
    ("oracle", "--params", dict(ORACLE_PARAMS, N=3.9)),
    ("oracle", "--params", dict(ORACLE_PARAMS, N=True)),
    ("oracle", "--params", dict(ORACLE_PARAMS, regular=[1.5])),
]
COMMAND_TAIL = {
    "eval": ["--elem", "e"],
    "gram": ["--n", "2"],
    "oracle": ["--n", "2"],
    "okounkov": ["--k", "1", "--x", "e", "--y", "e"],
}


@pytest.mark.parametrize(
    "command, flag, data",
    MALFORMED_JSON,
    ids=[f"{command} {json.dumps(data)}" for command, _, data in MALFORMED_JSON],
)
def test_malformed_json_exits_2(capsys, tmp_path, command, flag, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, flag, str(path), *COMMAND_TAIL[command])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ")


# A missing required key names the field, not just the bare key.
MISSING_FIELD = [
    ("eval", "--state", dict(RUNNING_STATE, mark={"t": "1/2"}),
     "error: malformed state JSON: mark needs 'i'\n"),
    ("eval", "--state", dict(RUNNING_STATE, mark={"i": 1}),
     "error: malformed state JSON: mark needs 't'\n"),
    ("oracle", "--params", {k: v for k, v in ORACLE_PARAMS.items() if k != "N"},
     "error: malformed model parameters: missing 'N'\n"),
    ("oracle", "--params", {k: v for k, v in ORACLE_PARAMS.items() if k != "a_diag"},
     "error: malformed model parameters: missing 'a_diag'\n"),
    ("oracle", "--params", {k: v for k, v in ORACLE_PARAMS.items() if k != "v"},
     "error: malformed model parameters: missing 'v'\n"),
]


@pytest.mark.parametrize(
    "command, flag, data, message",
    MISSING_FIELD,
    ids=[f"{command} {json.dumps(data)}" for command, _, data, _ in MISSING_FIELD],
)
def test_missing_field_is_named(capsys, tmp_path, command, flag, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, flag, str(path), *COMMAND_TAIL[command])
    assert (code, out, err) == (EXIT_USAGE, "", message)


# A JSON boolean is not a rational, though Fraction(True) is 1.
JSON_BOOLEANS = [
    ("eval", "--state", dict(RUNNING_STATE, alpha=[True]), "alpha entry", True),
    ("eval", "--state", dict(RUNNING_STATE, beta=[False]), "beta entry", False),
    ("eval", "--state", dict(RUNNING_STATE, mark={"i": 1, "t": False}), "mark 't'", False),
    ("oracle", "--params", dict(ORACLE_PARAMS, a_diag=[True, "0", "0", "0"]), "a_diag entry", True),
    ("oracle", "--params", dict(ORACLE_PARAMS, v=[True, 0, 0, 0]), "v entry", True),
]


@pytest.mark.parametrize(
    "command, flag, data, field, value",
    JSON_BOOLEANS,
    ids=[f"{command} {json.dumps(data)}" for command, _, data, _, _ in JSON_BOOLEANS],
)
def test_json_booleans_are_not_rationals(capsys, tmp_path, command, flag, data, field, value):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, flag, str(path), *COMMAND_TAIL[command])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: malformed ")
    assert err.endswith(f": {field} must be a rational number, got {value}\n")


# A string or an object where a list belongs was iterated: "10" read as
# a_diag = (1, 0), {"a": 1} as one alpha entry "a".  A top level that is not
# an object failed with an internal message.
JSON_SHAPES = [
    ("oracle", "--params", {"a_diag": "10", "v": ["1", "0"], "N": 2},
     "malformed model parameters: a_diag must be a JSON array, got '10'"),
    ("oracle", "--params", dict(ORACLE_PARAMS, v="1"),
     "malformed model parameters: v must be a JSON array, got '1'"),
    ("oracle", "--params", dict(ORACLE_PARAMS, regular="4"),
     "malformed model parameters: regular must be a JSON array, got '4'"),
    ("oracle", "--params", [],
     "malformed model parameters: the top level must be a JSON object, got list"),
    ("eval", "--state", {"alpha": "1"},
     "malformed state JSON: alpha must be a JSON array, got '1'"),
    ("eval", "--state", {"beta": "1"},
     "malformed state JSON: beta must be a JSON array, got '1'"),
    ("eval", "--state", {"alpha": {"a": 1}},
     "malformed state JSON: alpha must be a JSON array, got {'a': 1}"),
    ("eval", "--state", [],
     "malformed state JSON: the top level must be a JSON object, got list"),
    # A null entry or a mark that is not an object failed with an internal
    # message that named no field, and Infinity with a traceback.
    ("eval", "--state", {"alpha": [None]},
     "malformed state JSON: alpha entry must be a rational number, got None"),
    ("eval", "--state", {"alpha": [float("inf")]},
     "malformed state JSON: alpha entry must be a rational number, got inf"),
    ("eval", "--state", {"alpha": ["1/2"], "mark": 5},
     "malformed state JSON: mark must be a JSON object, got int"),
    ("eval", "--state", {"alpha": ["1/2"], "mark": [1, "1/2"]},
     "malformed state JSON: mark must be a JSON object, got list"),
    ("oracle", "--params", {"a_diag": [None], "v": ["1"], "N": 2},
     "malformed model parameters: a_diag entry must be a rational number, got None"),
    # A key outside the format was ignored: "alpah" read as no alpha at all.
    ("eval", "--state", {"alpah": ["1/2"], "beta": ["1/4"]},
     "malformed state JSON: the top level has unknown key 'alpah'; "
     "allowed keys are alpha, beta, mark"),
    ("eval", "--state", {"alpha": ["1/2"], "Mark": {"i": 1, "t": "1/2"}},
     "malformed state JSON: the top level has unknown key 'Mark'; "
     "allowed keys are alpha, beta, mark"),
    ("eval", "--state", {"alpha": ["1/2"], "mark": {"i": 1, "t": "1/2", "weight": "1/4"}},
     "malformed state JSON: mark has unknown key 'weight'; allowed keys are i, t"),
    ("oracle", "--params", dict(ORACLE_PARAMS, slots=9),
     "malformed model parameters: the top level has unknown key 'slots'; "
     "allowed keys are a_diag, v, regular, N"),
    ("gram", "--state", ORACLE_PARAMS,
     "malformed state JSON: the top level has unknown keys 'a_diag', 'v', 'regular', 'N'; "
     "allowed keys are alpha, beta, mark"),
    ("oracle", "--params", dict(ORACLE_PARAMS, v=["sqrt(x)", "0", "sqrt(1/2)", "0"]),
     "malformed model parameters: bad vector entry 'sqrt(x)'"),
]


@pytest.mark.parametrize(
    "command, flag, data, message",
    JSON_SHAPES,
    ids=[f"{command} {json.dumps(data)}" for command, _, data, _ in JSON_SHAPES],
)
def test_json_shapes_are_checked(capsys, tmp_path, command, flag, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, flag, str(path), *COMMAND_TAIL[command])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_unchecked_state_shape_is_checked(capsys, tmp_path):
    path = tmp_path / "state.json"
    for data, message in [
        ({"alpha": "3/4"}, "alpha must be a JSON array, got '3/4'"),
        ({"alpah": ["3/4"]},
         "the top level has unknown key 'alpah'; allowed keys are alpha, beta, mark"),
    ]:
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "gram", "--n", "2", "--state", str(path), "--unchecked")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: malformed state JSON: {message}\n"


def test_numeric_v_entries_are_squared(capsys, tmp_path):
    # "v": [1, 0] failed with "'int' object has no attribute 'strip'".
    outputs = []
    for v in (["1/2", "1/2", "1/2", "1/2"], [0.5, 0.5, 0.5, "1/2"], ["sqrt(1/4)"] * 4):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"a_diag": ["1/4"] * 4, "v": v, "N": 2}))
        code, out, _ = run(capsys, "oracle", "--params", str(path), "--n", "2")
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("mark_i, slots", [(1.0, 3.0), ("1", "3")])
def test_integral_json_numbers_still_accepted(capsys, tmp_path, mark_i, slots):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(dict(RUNNING_STATE, mark={"i": mark_i, "t": "1/2"})))
    code, out, _ = run(capsys, "eval", "--state", str(state), "--elem", "e{1}")
    assert (code, out) == (EXIT_OK, "1/4\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(dict(ORACLE_PARAMS, N=slots)))
    code, out, _ = run(capsys, "oracle", "--params", str(params), "--n", "1")
    assert code == EXIT_OK and len(json.loads(out)["rows"]) == 2


# Parameters each tensor-oracle guard refuses, with the guard it names.
GUARDED_PARAMS = [
    # d = 1: one support column at every N, so only the slot guard stops it.
    ({"a_diag": ["1"], "v": ["1"], "regular": [], "N": 13}, "MAX_SLOTS = 12"),
    # Checked before d^N, a number of ~18 million digits, is formed.
    (dict(BENCH_PARAMS, N=30000000), "MAX_SLOTS = 12"),
    # Four nonzero weights per slot: 4^7 = 16384 support columns.
    (
        {"a_diag": ["1/4", "1/4", "-1/4", "-1/4"], "v": ["1", "0", "0", "0"], "N": 7},
        "MAX_COLUMNS = 4096",
    ),
]


def assert_finite_t1_oracle_passes(capsys, tmp_path, slots):
    """``oracle --n 3`` on finite_t1 bridged at ``slots`` slots agrees with the closed form."""
    params = tensor_model.model_from_state(SUITE_STATES["finite_t1"], slots)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params.to_json()))
    code, out, _ = run(capsys, "oracle", "--params", str(path), "--n", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert float(data["max_diff"]) <= 1e-10
    assert len(data["rows"]) == 34


class TestOracle:
    def test_agreement_table(self, capsys, params_file):
        code, out, _ = run(capsys, "oracle", "--params", params_file, "--n", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert float(data["max_diff"]) <= 1e-10
        assert len(data["rows"]) == 34

    def test_spectral_mass_below_one_within_default_guard(self, capsys, tmp_path):
        # finite_t1 (Tr|A| = 7/8) bridges to d = 3 + N with one regular
        # coordinate per slot, so each slot has 4 nonzero weights: |S| = 4^4 =
        # 256 support columns at N = 4, within MAX_COLUMNS = 4096.
        assert_finite_t1_oracle_passes(capsys, tmp_path, 4)

    def test_support_columns_not_dimension_bound_the_walk(self, capsys, tmp_path):
        # At N = 5, d^N = 8^5 = 32768, but |S| = 4^5 = 1024 columns.
        assert_finite_t1_oracle_passes(capsys, tmp_path, 5)

    def test_csv_format(self, capsys, params_file):
        code, out, _ = run(
            capsys, "oracle", "--params", params_file, "--n", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "closed_form,diff,element,model"

    def test_resource_guard_exits_4(self, capsys, tmp_path, monkeypatch):
        def refuse(*slot_weights):
            raise AssertionError("a support column was built")

        monkeypatch.setattr(tensor_model, "itertools", types.SimpleNamespace(product=refuse))
        path = tmp_path / "params.json"
        for params, guard in GUARDED_PARAMS:
            path.write_text(json.dumps(params))
            for command in ("oracle", "okounkov"):
                start = time.perf_counter()
                code, out, err = run(capsys, command, "--params", str(path), *COMMAND_TAIL[command])
                assert time.perf_counter() - start < 0.5, (params, command)
                assert (code, out) == (EXIT_GUARD, ""), (params, command)
                assert guard in err

    def test_environment_is_not_read(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(BENCH_PARAMS))
        monkeypatch.delenv("ROOKCHAR_MAX_DIM", raising=False)
        plain = run(capsys, "oracle", "--params", str(path), "--n", "3")
        monkeypatch.setenv("ROOKCHAR_MAX_DIM", "1")
        assert run(capsys, "oracle", "--params", str(path), "--n", "3") == plain
        assert plain[0] == EXIT_OK


class TestSpherical:
    def test_all_idempotents_match(self, capsys):
        code, out, _ = run(capsys, "spherical", "--n", "4", "--l", "2", "--all-idempotents")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["all_match"]
        assert len(data["rows"]) == 15  # nonempty subsets of a 4-set

    def test_single_element(self, capsys):
        code, out, _ = run(capsys, "spherical", "--n", "6", "--l", "3", "--elem", "e{1,2}")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["coefficient"] == "1/5"  # (3*2)/(6*5)

    def test_row_guard_admits_n_14(self, capsys):
        # 2^14 - 1 = 16,383 rows are under the guard of 20,000.
        code, out, _ = run(capsys, "spherical", "--n", "14", "--l", "0", "--all-idempotents")
        assert code == EXIT_OK and len(json.loads(out)["rows"]) == 16383

    @pytest.mark.parametrize("n", ["15", "17"])
    def test_row_guard_exits_4_before_listing(self, capsys, monkeypatch, n):
        def refuse(points):
            raise AssertionError("an idempotent was built")

        monkeypatch.setattr(cli, "idempotent", refuse)
        code, out, err = run(capsys, "spherical", "--n", n, "--l", "1", "--all-idempotents")
        assert (code, out) == (EXIT_GUARD, "")
        assert f"2^{n} - 1 rows" in err and "MAX_BASIS = 20000" in err

    @pytest.mark.parametrize("l, text", [("65536", "e{1}"), ("0", "e")])
    def test_largest_ground_set_exits_0_quickly(self, capsys, l, text):
        # C(65536, l) = 1: one basis label, but a one-line form of 65,536 points.
        start = time.perf_counter()
        code, out, _ = run(capsys, "spherical", "--n", "65536", "--l", l, "--elem", text)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["coefficient"] == "1"

    def test_ground_set_guard_exits_4(self, capsys):
        code, out, err = run(capsys, "spherical", "--n", "2000000", "--l", "0", "--elem", "e")
        assert (code, out) == (EXIT_GUARD, "")
        assert "n = 2000000" in err and "MAX_POINT = 65536" in err

    def test_basis_guard_exits_4(self, capsys):
        # The least l with C(14292, l) >= 10^4300.
        code, out, err = run(capsys, "spherical", "--n", "14292", "--l", "7098", "--elem", "e")
        assert (code, out) == (EXIT_GUARD, "")
        assert "C(14292,7098) >= 2^14284" in err and "MAX_DIGITS = 4300" in err

    @pytest.mark.parametrize("n, l, bits", [("20000", "10000", 19992), ("65536", "32768", 65527)])
    def test_basis_guard_names_a_huge_size_by_bit_length(self, capsys, n, l, bits):
        # C(n, l) has more than the 4,300 digits Python prints.
        code, out, err = run(capsys, "spherical", "--n", n, "--l", l, "--elem", "e")
        assert (code, out) == (EXIT_GUARD, "")
        assert f"C({n},{l}) >= 2^{bits}" in err and "MAX_DIGITS = 4300" in err

    def test_a_model_past_the_old_basis_cap_prints(self, capsys):
        # C(30, 15) = 155,117,520, over the former cap of 20,000 on C(n, l).
        code, out, _ = run(capsys, "spherical", "--n", "30", "--l", "15", "--elem", "e")
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == [{"coefficient": "1", "element": "e", "killed": 0}]

    def test_model_guard_comes_before_the_row_guard(self, capsys):
        code, out, err = run(capsys, "spherical", "--n", "20000", "--l", "10000", "--all-idempotents")
        assert (code, out) == (EXIT_GUARD, "")
        assert "MAX_DIGITS = 4300" in err and "MAX_BASIS" not in err

    def test_needs_target(self, capsys):
        code, _, err = run(capsys, "spherical", "--n", "4", "--l", "2")
        assert code == EXIT_USAGE and err

    def test_csv_bytes(self, capsys):
        code, out, err = run(
            capsys, "spherical", "--n", "4", "--l", "2", "--all-idempotents", "--format", "csv"
        )
        assert (code, out, err) == (EXIT_OK, SPHERICAL_CSV_N4_L2, "")

    def test_rows_print_each_coefficient_once(self, capsys):
        code, out, _ = run(capsys, "spherical", "--n", "5", "--l", "2", "--all-idempotents")
        data = json.loads(out)
        assert code == EXIT_OK and data["all_match"] is True and len(data["rows"]) == 31
        assert all(set(row) == {"coefficient", "element", "killed"} for row in data["rows"])

    def test_json_bytes(self, capsys):
        code, out, err = run(capsys, "spherical", "--n", "6", "--l", "3", "--elem", "e{1,2}")
        assert (code, out, err) == (EXIT_OK, SPHERICAL_JSON_N6_L3 + "\n", "")


@pytest.mark.parametrize("command", ["spherical", "oracle"])
def test_csv_rows_have_one_cell_per_column(capsys, params_file, command):
    # An element cell such as [1,_] holds commas; unquoted, csv.reader split
    # it into more cells than the header names.
    argv = {
        "spherical": ["spherical", "--n", "4", "--l", "2", "--all-idempotents"],
        "oracle": ["oracle", "--params", params_file, "--n", "2"],
    }[command]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    header, *rows = csv.reader(out.splitlines())
    assert code == EXIT_OK and rows
    column = header.index("element")
    for row in rows:
        assert len(row) == len(header), row
        assert parse_element(row[column]).literal() == row[column]


SPHERICAL_CSV_N4_L2 = """\
coefficient,element,killed
1/2,[_],1
1/2,"[1,_]",1
1/2,"[1,2,_]",1
1/2,"[1,2,3,_]",1
1/6,"[_,_]",2
1/6,"[_,2,_]",2
1/6,"[_,2,3,_]",2
1/6,"[1,_,_]",2
1/6,"[1,_,3,_]",2
1/6,"[1,2,_,_]",2
0,"[_,_,_]",3
0,"[_,_,3,_]",3
0,"[_,2,_,_]",3
0,"[1,_,_,_]",3
0,"[_,_,_,_]",4
"""
SPHERICAL_JSON_N6_L3 = (
    '{"all_match": true, "l": 3, "n": 6, "rows": [{"coefficient": "1/5", '
    '"element": "[_,_]", "killed": 2}]}'
)


class TestOkounkov:
    def test_stabilization_report(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(ORACLE_PARAMS, N=4)))
        code, out, _ = run(
            capsys, "okounkov", "--params", str(path), "--k", "1", "--x", "e", "--y", "e"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert float(data["max_deviation"]) <= 1e-12

    @pytest.mark.parametrize("k", ["0", "-1", "-4"])
    def test_slot_below_one_exits_2(self, capsys, tmp_path, k):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(ORACLE_PARAMS, N=4)))
        code, out, err = run(capsys, "okounkov", "--params", str(path), "--k", k)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"slot index {k} out of range" in err


@pytest.mark.parametrize("command", ["oracle", "okounkov"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc", "0"])
def test_tolerance_is_finite_and_nonnegative(capsys, params_file, command, tol):
    # NaN and a negative tolerance reported a violation (exit 3); inf passed anything.
    # A value float() cannot read is refused the same way.
    code, out, err = run(capsys, command, "--params", params_file, *COMMAND_TAIL[command], "--tol", tol)
    if tol == "0":
        assert code in (EXIT_OK, EXIT_VIOLATION) and json.loads(out)["tolerance"] == 0.0
    else:
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK


# The package's public names, which it serves lazily, by the submodule that
# defines them.
PUBLIC_NAMES = {
    "elements": (
        "PartialBijection",
        "compose",
        "cycle",
        "enumerate_rn",
        "from_orbits",
        "idempotent",
        "identity",
        "parse_element",
        "rn_size",
        "symmetric_group",
        "transposition",
    ),
    "errors": ("CheckReport", "ParseError", "ResourceGuardError"),
    "quasicycles": (
        "QuasiCycle",
        "QuasiCycleDecomposition",
        "conjugacy_invariant",
        "decompose",
        "find_conjugator",
    ),
    "algebra": ("check_gelfand_pair",),
    "words": ("EPS1", "S", "element_to_word", "verify_popova_relations", "word_to_element"),
    "linalg": ("PsdCertificate", "RationalMatrix", "psd_certificate", "verify_certificate"),
    "states": (
        "GramReport",
        "State",
        "ThomaParams",
        "check_centrality",
        "check_conjugation_invariance",
        "check_multiplicativity",
        "check_star_symmetry",
        "classify_factor_type",
        "evaluate",
        "gram_matrix",
        "make_state",
        "thoma_character",
    ),
    "spherical": (
        "SphericalModel",
        "infinite_spherical_value",
        "spherical_coeff",
        "spherical_coeff_closed_form",
        "spherical_limit_check",
    ),
    "tensor_model": (
        "ModelParams",
        "TensorEmbedding",
        "model_from_state",
        "okounkov_check",
        "okounkov_projection_check",
        "phi_closed_form",
        "phi_model",
    ),
}
TENSOR_NAMES = PUBLIC_NAMES["tensor_model"]
RUN_MAIN = """
import contextlib, io, sys
from rookchar.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


# Runs rookchar.cli as ``python -m`` does (runpy) and prints the exit code,
# whether dataclasses was imported, and each rookchar module body that ran.
# A trace hook sees the bodies run, so looking loads no lazily registered module.
RUN_AS_MAIN = """
import contextlib, io, os, runpy, sys
ran = []
def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "<module>":
        ran.append(frame.f_code.co_filename)
sys.settrace(watch)
sys.argv = ["rookchar", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("rookchar.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
sys.settrace(None)
package = os.path.dirname(sys.modules["rookchar"].__file__)
bodies = [os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package]
print(code, "dataclasses" in sys.modules, *sorted(bodies))
"""


def fresh_python(script, *args):
    """Stdout of ``script`` run in a new interpreter that imports this rookchar."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rookchar.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestImportBoundary:
    @pytest.mark.parametrize("module", ["rookchar", "rookchar.cli"])
    def test_import_leaves_numpy_out(self, module):
        # The oracle module is registered, unexecuted, for code that patches it
        # through sys.modules (perfbench/tracing.py).
        script = (
            f"import sys, {module}\n"
            "print('numpy' in sys.modules, 'rookchar.tensor_model' in sys.modules)\n"
        )
        assert fresh_python(script) == ["False", "True"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["decompose", "[2,3,_,4,_]"],
            ["eval", "--elem", "(1 2)e{1}"],
            ["verify", "--suite", "centrality", "--n", "3"],
            ["gram", "--n", "2"],
            ["spherical", "--n", "5", "--l", "2", "--all-idempotents"],
            ["oracle", "--params", "PARAMS", "--n", "2"],
            ["okounkov", "--params", "PARAMS", "--k", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exact_commands_leave_numpy_out(self, argv, params_file):
        argv = [params_file if arg == "PARAMS" else arg for arg in argv]
        assert fresh_python(RUN_MAIN, *argv) == ["0", "False"]

    def test_oracle_commands_run_without_site_packages(self, tmp_path):
        # python -S leaves site-packages, where numpy lives, off sys.path.
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dict(ORACLE_PARAMS, N=4)))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rookchar.__file__).parent.parent))
        for argv in (["oracle", "--n", "3"], ["okounkov", "--k", "3"]):
            proc = subprocess.run(
                [sys.executable, "-S", "-c", RUN_MAIN, argv[0], "--params", str(params), *argv[1:]],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stdout.split()) == (0, ["0", "False"]), proc.stderr

    def test_import_leaves_dataclasses_out(self):
        assert fresh_python("import sys, rookchar.cli\nprint('dataclasses' in sys.modules)") == [
            "False"
        ]

    def test_cli_body_runs_once_as_main(self):
        code, _, *bodies = fresh_python(RUN_AS_MAIN, "--help")
        assert (code, bodies.count("cli")) == ("0", 1)

    @pytest.mark.parametrize(
        "suite, ran, skipped",
        [
            ("centrality", {"states", "quasicycles"}, {"linalg", "spherical", "algebra", "words"}),
            ("gelfand", {"algebra"}, {"states", "linalg"}),
        ],
    )
    def test_verify_runs_only_the_modules_it_uses(self, suite, ran, skipped):
        code, dataclasses, *bodies = fresh_python(RUN_AS_MAIN, "verify", "--suite", suite, "--n", "3")
        assert (code, dataclasses) == ("0", "False")
        assert ran <= set(bodies) and not skipped & set(bodies)

    def test_gram_leaves_dataclasses_out(self):
        code, dataclasses, *bodies = fresh_python(RUN_AS_MAIN, "gram", "--n", "2")
        assert (code, dataclasses) == ("0", "False")
        assert {"quasicycles", "states", "linalg"} <= set(bodies)
        assert not {"spherical", "algebra", "words", "tensor_model"} & set(bodies)

    @pytest.mark.parametrize(
        "argv", [["oracle", "--n", "2"], ["okounkov", "--k", "2"]], ids=lambda argv: argv[0]
    )
    def test_oracle_commands_leave_dataclasses_and_states_out(self, params_file, argv):
        command, *rest = argv
        code, dataclasses, *bodies = fresh_python(RUN_AS_MAIN, command, "--params", params_file, *rest)
        assert (code, dataclasses) == ("0", "False")
        assert {"tensor_model", "quasicycles", "words"} <= set(bodies)
        assert "states" not in bodies

    def test_lazy_names_are_the_oracle_objects(self):
        # Every public name, each the object its defining module holds.
        script = (
            "import importlib, sys, rookchar\n"
            "pairs = [arg.split(':') for arg in sys.argv[1:]]\n"
            "names = [name for _, name in pairs]\n"
            "print(sorted(rookchar.__all__) == sorted(names), set(names) <= set(dir(rookchar)))\n"
            "got = [getattr(rookchar, name) for name in names]\n"
            "print('numpy' in sys.modules)\n"
            "print(all(g is getattr(importlib.import_module('rookchar.' + m), n)\n"
            "          for g, (m, n) in zip(got, pairs)))\n"
        )
        pairs = [f"{module}:{name}" for module, names in PUBLIC_NAMES.items() for name in names]
        assert len(pairs) == 53
        assert fresh_python(script, *pairs) == ["True", "True", "False", "True"]

    def test_import_registers_every_module_but_cli(self):
        # The tracer (perfbench/tracing.py) patches each module through
        # sys.modules; cli stays out so that ``python -m`` runs its body once.
        script = (
            "import sys, rookchar\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rookchar'))\n"
        )
        package = pathlib.Path(rookchar.__file__).parent
        expected = sorted(
            f"rookchar.{p.stem}" for p in package.glob("*.py") if p.stem not in ("__init__", "cli")
        )
        assert fresh_python(script) == ["rookchar", *expected]

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "[2,3,_,4,_]"],
            ["eval", "--elem", "(1 2)e{1}"],
            *(["verify", "--suite", suite, "--n", "3"] for suite in VERIFY_SUITES),
            ["gram", "--n", "2"],
            ["spherical", "--n", "5", "--l", "2", "--all-idempotents"],
            ["oracle", "--params", "PARAMS", "--n", "2"],
            ["okounkov", "--params", "PARAMS", "--k", "2"],
        ],
        ids=lambda argv: f"verify-{argv[2]}" if argv[0] == "verify" else argv[0],
    )
    def test_every_command_leaves_numpy_and_dataclasses_out(self, argv, params_file):
        argv = [params_file if arg == "PARAMS" else arg for arg in argv]
        script = RUN_AS_MAIN + "print('numpy' in sys.modules)\n"
        code, dataclasses, *_, numpy = fresh_python(script, *argv)
        assert (code, dataclasses, numpy) == ("0", "False", "False")

    def test_star_import_loads_the_lazy_names(self):
        script = (
            "import sys\n"
            "from rookchar import *\n"
            "print(all(name in globals() for name in sys.argv[1:]), 'numpy' in sys.modules)\n"
        )
        assert fresh_python(script, *TENSOR_NAMES) == ["True", "False"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            rookchar.no_such_name
        assert not hasattr(rookchar, "quasicycle_decompose")
        assert not hasattr(rookchar, "StateSpec")
        for name in ("algebra_product", "render", "star", "support", "FormalSum", "symmetrizer"):
            assert not hasattr(rookchar, name)
        assert not hasattr(rookchar.algebra, "FormalSum") and not hasattr(rookchar.algebra, "symmetrizer")
        assert not hasattr(rookchar.errors, "MAX_GELFAND_N")
        assert not hasattr(rookchar.RationalMatrix, "is_symmetric")
        assert not hasattr(rookchar.elements, "permutation_from_images")
        # One checked constructor builds every element, and words walk one image list.
        for name in ("from_images", "_canonical"):
            assert not hasattr(rookchar.PartialBijection, name)
        assert not hasattr(rookchar.words, "letter_element")
        assert not hasattr(rookchar.states, "load_state")
        assert not hasattr(rookchar.RationalMatrix, "from_json_rows")
        assert not hasattr(tensor_model, "ModelValidation")
        for name in ("validate_params", "_require_valid"):
            assert not hasattr(tensor_model, name) and not hasattr(rookchar, name)
        assert not hasattr(tensor_model.OkounkovReport, "stabilized")
        # Test-only references live in tests/oracles.py and tests/conftest.py,
        # and the oracle binds no numpy.
        for name in ("marked_cycle_value", "np"):
            assert not hasattr(tensor_model, name) and not hasattr(rookchar, name)
        assert not hasattr(rookchar.PartialBijection, "is_permutation")
        assert not hasattr(rookchar.quasicycles, "conjugacy_orbit")
        assert not hasattr(rookchar.spherical, "slot_coefficient_table")
        # The tensor oracle's guards are constants: no environment knob.
        for name in ("DEFAULT_MAX_DIM", "MAX_DIM_ENV"):
            assert not hasattr(rookchar.errors, name) and not hasattr(tensor_model, name)
        assert not hasattr(tensor_model, "_max_dim")
        # One entry point per operation: a value function is read with
        # table(r), the identity is elements.identity(), and the CLI reads files.
        assert not hasattr(states.State, "value")
        assert not hasattr(rookchar.quasicycles.ClassFunction, "value")
        assert not hasattr(rookchar.PartialBijection, "identity")
        assert not hasattr(tensor_model, "load_params")
        # One class key, the orbit-length tuple, and one table type, ClassFunction.
        assert not hasattr(rookchar, "ConjugacyInvariant")
        assert not hasattr(rookchar.quasicycles, "ConjugacyInvariant")
        assert not hasattr(states, "ValueTable")
        assert not hasattr(rookchar.QuasiCycleDecomposition, "invariant")
        # Each guard lives in the one module that reads it.
        for name in ("MAX_POPOVA_N", "MAX_PAIR_SWEEP_N"):
            assert not hasattr(rookchar.errors, name)


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


class TestTracerCoverage:
    """The benchmark's tracer patches module globals, so the sweeps must be
    looked up at call time for ``--trace 1`` to time them."""

    @pytest.fixture
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracing

        return tracing

    def test_verify_sweeps_are_traced(self, capsys, tracing):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert main(["verify", "--suite", "centrality", "--n", "2"]) == EXIT_OK
            assert main(["verify", "--suite", "gelfand", "--n", "3"]) == EXIT_OK
        capsys.readouterr()
        assert tracer.stats["states.check_centrality"].calls == 1
        assert tracer.stats["algebra.check_gelfand_pair"].calls == 1
        assert tracer.values["algebra.distinct_products"] == [4]
