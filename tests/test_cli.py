"""CLI surface: subcommands, exit codes, deterministic output."""

import json

import pytest

from rookchar.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

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

    def test_unchecked_mark_out_of_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad_mark.json"
        path.write_text(json.dumps({"alpha": ["3/4"], "beta": [], "mark": {"i": 3, "t": "1"}}))
        code, _, err = run(capsys, "gram", "--state", str(path), "--n", "2", "--unchecked")
        assert code == EXIT_USAGE
        assert "marked index 3" in err


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


class TestOracle:
    def test_agreement_table(self, capsys, params_file):
        code, out, _ = run(capsys, "oracle", "--params", params_file, "--n", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert float(data["max_diff"]) <= 1e-10
        assert len(data["rows"]) == 34

    def test_csv_format(self, capsys, params_file):
        code, out, _ = run(
            capsys, "oracle", "--params", params_file, "--n", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "closed_form,diff,element,model"

    def test_resource_guard_exits_4(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        params = dict(ORACLE_PARAMS, N=12)
        path.write_text(json.dumps(params))
        code, _, err = run(capsys, "oracle", "--params", path.as_posix(), "--n", "2")
        assert code == EXIT_GUARD and "guard" in err


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

    def test_needs_target(self, capsys):
        code, _, err = run(capsys, "spherical", "--n", "4", "--l", "2")
        assert code == EXIT_USAGE and err


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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
