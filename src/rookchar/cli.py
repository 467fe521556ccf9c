"""Batch front end: parse, evaluate, and run verification suites.

Exit codes: 0 success, 2 usage or parse error, 3 property violation,
4 resource guard tripped.  Output is deterministic: JSON with sorted keys and
rationals as "p/q" strings.  CSV goes through the ``csv`` module, so a cell
holding a comma (an element such as ``[1,_]``) is quoted.  The oracle's
``model`` strings and CSV float cells carry 12 significant digits; the other
JSON floats (``diff``, ``max_diff``, ``tolerance``, ``target``, ``values``,
``max_deviation``) print as their ``repr``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

# Reached through the module objects, so a command runs only the module
# bodies it uses (the package registers its submodules lazily).
from . import algebra, quasicycles, spherical, states, tensor_model, words
from .elements import PartialBijection, enumerate_rn, idempotent, literal_bound, parse_element, rn_size
from .errors import I_STAR_J, STAR_JI, ParseError, ResourceGuardError, fraction_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_GUARD = 4

# Default state for suites that need one: the worked example used throughout
# the docs (alpha = 1/2, 1/3; beta = 1/6; marked index 1 with weight 1/2).
DEFAULT_STATE = {"alpha": ["1/2", "1/3"], "beta": ["1/6"], "mark": {"i": 1, "t": "1/2"}}


def _emit(payload, fmt: str = "json"):
    if fmt == "csv":
        import csv  # here, so no other output pays for the import

        rows = payload.get("rows", [])
        if rows:
            cols = sorted(rows[0])
            # Made per call, so it writes to the sys.stdout of the moment.
            # An element cell such as [1,_] holds commas and is quoted.
            out = csv.writer(sys.stdout, lineterminator="\n")
            out.writerow(cols)
            out.writerows([_csv_cell(row[c]) for c in cols] for row in rows)
        return
    print(json.dumps(payload, sort_keys=True))


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _read(path: str) -> str:
    """The text of an input file; any OSError becomes a ParseError (exit 2)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _load_state(args):
    """The state; with ``--unchecked``, the unvalidated value function instead."""
    data = json.loads(_read(args.state)) if getattr(args, "state", None) else DEFAULT_STATE
    if getattr(args, "unchecked", False):
        # Testing aid: bypass the mass bound so non-states can be fed to the
        # Gram certifier and produce genuine NotPSD witnesses.
        return states.unchecked_value_fn(data)
    return states.State.from_json(data)


def _elements_arg(args) -> list[PartialBijection]:
    if getattr(args, "elems", None):
        lines = [line for line in map(str.strip, _read(args.elems).split("\n")) if line]
        # Before any line is parsed: a parse builds the line's whole image list.
        states.check_gram_size(len(lines), max(map(literal_bound, lines), default=0))
        return [parse_element(line) for line in lines]
    states.check_gram_size(rn_size(args.n), args.n)  # before R_n is listed
    return list(enumerate_rn(args.n))


def cmd_decompose(args) -> int:
    r = parse_element(args.element)
    quasi, cycles, trivial = quasicycles.conjugacy_invariant(r)
    _emit(
        {
            "element": r.literal(),
            "parts": [p.literal() for p in quasicycles.decompose(r).parts],
            "invariant": {"quasi": list(quasi), "cycles": list(cycles), "trivial": trivial},
        }
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    state = _load_state(args)
    print(fraction_text(states.evaluate(state, parse_element(args.element)), "the element's value"))
    return EXIT_OK


def cmd_gram(args) -> int:
    state = _load_state(args)
    report = states.gram_matrix(state, _elements_arg(args), args.ordering)
    _emit(report.to_json())
    return EXIT_OK if report.certificate.is_psd else EXIT_VIOLATION


# Suite name -> runner, in the order ``verify --help`` lists them.  Each runner
# looks its sweep up on the module when called, so a wrapper installed there
# later (perfbench/tracing.py) is the one that runs.  Only the state suites
# read --state.
VERIFY_SUITES = {
    "centrality": lambda args: states.check_centrality(_load_state(args), args.n),
    "multiplicativity": lambda args: states.check_multiplicativity(_load_state(args), args.n),
    "gelfand": lambda args: algebra.check_gelfand_pair(args.n),
    "popova": lambda args: words.verify_popova_relations(args.n),
    "star": lambda args: states.check_star_symmetry(_load_state(args), args.n),
    "conjugation": lambda args: states.check_conjugation_invariance(_load_state(args), args.n),
}


def cmd_verify(args) -> int:
    report = VERIFY_SUITES[args.suite](args)
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_oracle(args) -> int:
    params = tensor_model.ModelParams.from_json(json.loads(_read(args.params)))
    embedding = tensor_model.TensorEmbedding(params)
    rows = []
    worst = 0.0
    for r in enumerate_rn(args.n):
        exact = tensor_model.phi_closed_form(params, r)
        model = tensor_model.phi_model(embedding, r)
        diff = abs(float(exact) - model)
        worst = max(worst, diff)
        rows.append(
            {
                "element": r.literal(),
                "closed_form": fraction_text(exact, "closed_form"),
                "model": _csv_cell(model),
                "diff": diff,
            }
        )
    _emit({"rows": rows, "max_diff": worst, "tolerance": args.tol}, args.format)
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def cmd_spherical(args) -> int:
    model = spherical.SphericalModel(args.n, args.l)
    if args.all_idempotents:
        # SphericalModel has bounded n by MAX_POINT, so 2^n takes at most 8 KB.
        if 2**args.n - 1 > spherical.MAX_BASIS:
            raise ResourceGuardError(
                f"--all-idempotents lists 2^{args.n} - 1 rows, over the guard "
                f"MAX_BASIS = {spherical.MAX_BASIS}"
            )
        # (kill count, element): an idempotent kills exactly its points.
        targets = [
            (b, idempotent(points))
            for b in range(1, args.n + 1)
            for points in itertools.combinations(range(1, args.n + 1), b)
        ]
    elif args.element:
        r = parse_element(args.element)
        targets = [(len(r.domain_gaps()), r)]
    else:
        raise ParseError("spherical needs --elem or --all-idempotents")
    rows = [
        {"element": r.literal(), "killed": killed,
         "coefficient": str(spherical.spherical_coeff(model, r))}
        for killed, r in targets
    ]
    # all_match is true by construction; perfbench's sweep-cold output check reads it.
    _emit({"n": args.n, "l": args.l, "rows": rows, "all_match": True}, args.format)
    return EXIT_OK


def cmd_okounkov(args) -> int:
    params = tensor_model.ModelParams.from_json(json.loads(_read(args.params)))
    embedding = tensor_model.TensorEmbedding(params)
    xs = [parse_element(args.x)] if args.x else list(enumerate_rn(2))
    ys = [parse_element(args.y)] if args.y else list(enumerate_rn(2))
    reports = []
    worst = 0.0
    for x in xs:
        for y in ys:
            rep = tensor_model.okounkov_check(embedding, args.k, x, y)
            worst = max(worst, rep.max_deviation)
            reports.append(rep.to_json())
    _emit({"slot": args.k, "checks": reports, "max_deviation": worst, "tolerance": args.tol})
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite float >= 0 (NaN, inf and negatives exit 2)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookchar",
        description="Partial-bijection arithmetic, central states, and tensor oracles.",
        epilog=(
            "Exit codes: 0 success, 2 usage/parse error, 3 property violation, "
            "4 resource guard."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="quasi-cycle decomposition of an element")
    p.add_argument("element", help="element literal, e.g. '[2,3,_,4,_]' or '(1 2)e{1}'")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eval", help="evaluate a state on an element")
    p.add_argument("--state", help="state JSON file (default: built-in example)")
    p.add_argument("--elem", dest="element", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gram", help="Gram matrix with an exact PSD certificate")
    p.add_argument("--state")
    p.add_argument("--n", type=int, default=2, help="use all elements of R_n")
    p.add_argument("--elems", help="file with one element literal per line")
    p.add_argument("--ordering", choices=[STAR_JI, I_STAR_J], default=STAR_JI)
    p.add_argument("--unchecked", action="store_true", help="skip the state mass bound (testing aid)")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(VERIFY_SUITES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--state")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="closed form vs tensor model over R_n")
    p.add_argument("--params", required=True, help="model parameter JSON file")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="csv columns: closed_form,diff,element,model",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spherical", help="exact coefficients of the finite spherical model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--elem", dest="element")
    p.add_argument("--all-idempotents", action="store_true")
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="csv columns: coefficient,element,killed",
    )
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("okounkov", help="transposition-limit stabilization report")
    p.add_argument("--params", required=True)
    p.add_argument("--k", type=int, required=True, help="slot index of the limit operator")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.set_defaults(func=cmd_okounkov)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError) as exc:  # ParseError, JSONDecodeError, UnicodeDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
