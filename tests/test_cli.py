"""CLI surface: subcommands, exit codes, deterministic output."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rookchar
from rookchar import tensor_model
from rookchar.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
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


# Exact stdout of each suite at small n, with the built-in state.
VERIFY_GOLDEN = {
    ("popova", "3"): '{"checked": 9, "n": 3, "ok": true, "suite": "popova", "violations": []}',
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
COMMAND_TAIL = {"eval": ["--elem", "e"], "gram": ["--n", "2"], "oracle": ["--n", "2"]}


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


class TestOracle:
    def test_agreement_table(self, capsys, params_file):
        code, out, _ = run(capsys, "oracle", "--params", params_file, "--n", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert float(data["max_diff"]) <= 1e-10
        assert len(data["rows"]) == 34

    def test_spectral_mass_below_one_within_default_guard(self, capsys, tmp_path, monkeypatch):
        # finite_t1 (Tr|A| = 7/8) bridges to d = 7 with one regular
        # coordinate per slot: dim 2401 passes the default guard of 4096.
        monkeypatch.delenv("ROOKCHAR_MAX_DIM", raising=False)
        params = tensor_model.model_from_state(SUITE_STATES["finite_t1"])
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params.to_json()))
        code, out, _ = run(capsys, "oracle", "--params", str(path), "--n", "3")
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

    def test_guard_reads_environment(self, capsys, params_file, monkeypatch):
        # d^N = 4^3 = 64 passes the default guard but not a bound of 63.
        monkeypatch.setenv("ROOKCHAR_MAX_DIM", "63")
        code, _, err = run(capsys, "oracle", "--params", params_file, "--n", "2")
        assert code == EXIT_GUARD and "ROOKCHAR_MAX_DIM" in err


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

    def test_help_prints_the_oracle_guard_default(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert f"(default {tensor_model.DEFAULT_MAX_DIM})" in " ".join(out.split())


# Only the tensor oracle needs numpy; everything else must start without it.
TENSOR_NAMES = (
    "ModelParams",
    "TensorEmbedding",
    "marked_cycle_value",
    "model_from_state",
    "okounkov_check",
    "okounkov_projection_check",
    "phi_closed_form",
    "phi_model",
    "validate_params",
)
RUN_MAIN = """
import contextlib, io, sys
from rookchar.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
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
        ],
        ids=lambda argv: argv[0],
    )
    def test_exact_commands_leave_numpy_out(self, argv):
        assert fresh_python(RUN_MAIN, *argv) == ["0", "False"]

    def test_oracle_loads_numpy(self, params_file):
        argv = ["oracle", "--params", params_file, "--n", "2"]
        assert fresh_python(RUN_MAIN, *argv) == ["0", "True"]

    def test_lazy_names_are_the_oracle_objects(self):
        script = (
            "import sys, rookchar\n"
            "names = sys.argv[1:]\n"
            "listed = set(names) <= set(dir(rookchar)) and set(names) <= set(rookchar.__all__)\n"
            "print(listed, 'numpy' in sys.modules)\n"
            "got = [getattr(rookchar, name) for name in names]\n"
            "from rookchar import tensor_model\n"
            "print(all(g is getattr(tensor_model, n) for g, n in zip(got, names)))\n"
        )
        assert fresh_python(script, *TENSOR_NAMES) == ["True", "False", "True"]

    def test_star_import_loads_the_lazy_names(self):
        script = (
            "import sys\n"
            "from rookchar import *\n"
            "print(all(name in globals() for name in sys.argv[1:]), 'numpy' in sys.modules)\n"
        )
        assert fresh_python(script, *TENSOR_NAMES) == ["True", "True"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            rookchar.no_such_name
        assert not hasattr(rookchar, "quasicycle_decompose")
        assert not hasattr(rookchar, "StateSpec")
        for name in ("algebra_product", "render", "star", "support"):
            assert not hasattr(rookchar, name)
        assert not hasattr(rookchar.elements, "permutation_from_images")
        assert not hasattr(rookchar.states, "load_state")
        assert not hasattr(rookchar.RationalMatrix, "from_json_rows")
        assert not hasattr(tensor_model.ModelValidation, "to_json")
        assert not hasattr(tensor_model.OkounkovReport, "stabilized")


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
