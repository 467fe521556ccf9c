"""Batch front end: parse, evaluate, and run verification suites.

Exit codes: 0 success, 2 usage or parse error, 3 property violation,
4 resource guard tripped.  Output is deterministic: JSON with sorted keys,
rationals as "p/q" strings, floats with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra, spherical, states, tensor_model, words
from .elements import PartialBijection, enumerate_rn, idempotent, parse_element
from .errors import ParseError, ResourceGuardError
from .quasicycles import conjugacy_invariant, decompose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_GUARD = 4

# Default state for suites that need one: the worked example used throughout
# the docs (alpha = 1/2, 1/3; beta = 1/6; marked index 1 with weight 1/2).
DEFAULT_STATE = {"alpha": ["1/2", "1/3"], "beta": ["1/6"], "mark": {"i": 1, "t": "1/2"}}


def _emit(payload, fmt: str = "json"):
    if fmt == "csv":
        rows = payload.get("rows", [])
        if rows:
            cols = sorted(rows[0])
            print(",".join(cols))
            for row in rows:
                print(",".join(_csv_cell(row[c]) for c in cols))
        return
    print(json.dumps(payload, sort_keys=True, default=_json_default))


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_default(value):
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"not serializable: {value!r}")


def _float(value: float) -> str:
    return format(value, ".12g")


def _load_state(args):
    """The state; with ``--unchecked``, the unvalidated value function instead."""
    if getattr(args, "state", None):
        with open(args.state, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = DEFAULT_STATE
    if getattr(args, "unchecked", False):
        # Testing aid: bypass the mass bound so non-states can be fed to the
        # Gram certifier and produce genuine NotPSD witnesses.
        return states.unchecked_value_fn(data)
    return states.State.from_json(data)


def _elements_arg(args) -> list[PartialBijection]:
    if getattr(args, "elems", None):
        with open(args.elems, encoding="utf-8") as fh:
            return [parse_element(line.strip()) for line in fh if line.strip()]
    return list(enumerate_rn(args.n))


def cmd_decompose(args) -> int:
    r = parse_element(args.element)
    d = decompose(r)
    inv = conjugacy_invariant(r)
    _emit(
        {
            "element": r.literal(),
            "parts": [p.literal() for p in d.parts],
            "invariant": {
                "quasi": list(inv.q_partition),
                "cycles": list(inv.c_partition),
                "trivial": inv.trivial_count,
            },
        }
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    state = _load_state(args)
    print(states.evaluate(state, parse_element(args.element)))
    return EXIT_OK


def cmd_gram(args) -> int:
    state = _load_state(args)
    report = states.gram_matrix(state, _elements_arg(args), args.ordering)
    _emit(report.to_json())
    return EXIT_OK if report.certificate.is_psd else EXIT_VIOLATION


def cmd_verify(args) -> int:
    if args.suite == "popova":
        rep = words.verify_popova_relations(args.n)
        payload = {
            "suite": "popova",
            "n": args.n,
            "checked": rep.checked,
            "ok": rep.ok,
            "violations": list(rep.violations[:20]),
        }
        _emit(payload)
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    if args.suite == "gelfand":
        rep = algebra.check_gelfand_pair(args.n)
        payload = {
            "suite": "gelfand",
            "n": args.n,
            "basis": rep.basis_size,
            "distinct_products": rep.distinct_products,
            "checked": rep.pairs_checked,
            "ok": rep.ok,
            "violations": list(rep.violations[:20]),
        }
        _emit(payload)
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    state = _load_state(args)
    check = {
        "centrality": states.check_centrality,
        "multiplicativity": states.check_multiplicativity,
        "star": states.check_star_symmetry,
        "conjugation": states.check_conjugation_invariance,
    }[args.suite]
    rep = check(state, args.n)
    _emit(rep.to_json())
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_oracle(args) -> int:
    params = tensor_model.load_params(args.params)
    embedding = tensor_model.TensorEmbedding(params)
    rows = []
    worst = 0.0
    for r in enumerate_rn(args.n):
        exact = tensor_model.phi_closed_form(params, r)
        dense = tensor_model.phi_model(params, r, embedding)
        diff = abs(float(exact) - dense)
        worst = max(worst, diff)
        rows.append(
            {
                "element": r.literal(),
                "closed_form": str(exact),
                "model": _float(dense),
                "diff": diff,
            }
        )
    _emit({"rows": rows, "max_diff": worst, "tolerance": args.tol}, args.format)
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def cmd_spherical(args) -> int:
    model = spherical.SphericalModel(args.n, args.l)
    if args.all_idempotents:
        import itertools

        targets = [
            idempotent(points)
            for b in range(1, args.n + 1)
            for points in itertools.combinations(range(1, args.n + 1), b)
        ]
    elif args.element:
        targets = [parse_element(args.element)]
    else:
        raise ParseError("spherical needs --elem or --all-idempotents")
    rows = []
    exact = True
    for r in targets:
        killed = len(r.domain_gaps())
        got = spherical.spherical_coeff(model, r)
        want = spherical.spherical_coeff_closed_form(args.n, args.l, killed)
        exact = exact and got == want
        rows.append(
            {
                "element": r.literal(),
                "killed": killed,
                "coefficient": str(got),
                "closed_form": str(want),
                "match": got == want,
            }
        )
    _emit({"n": args.n, "l": args.l, "rows": rows, "all_match": exact}, args.format)
    return EXIT_OK if exact else EXIT_VIOLATION


def cmd_okounkov(args) -> int:
    params = tensor_model.load_params(args.params)
    embedding = tensor_model.TensorEmbedding(params)
    xs = [parse_element(args.x)] if args.x else list(enumerate_rn(2))
    ys = [parse_element(args.y)] if args.y else list(enumerate_rn(2))
    reports = []
    worst = 0.0
    for x in xs:
        for y in ys:
            rep = tensor_model.okounkov_check(params, args.k, x, y, embedding)
            worst = max(worst, rep.max_deviation)
            reports.append(rep.to_json())
    _emit({"slot": args.k, "checks": reports, "max_deviation": worst, "tolerance": args.tol})
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookchar",
        description="Partial-bijection arithmetic, central states, and tensor oracles.",
        epilog=(
            "Exit codes: 0 success, 2 usage/parse error, 3 property violation, "
            "4 resource guard. The ROOKCHAR_MAX_DIM environment variable bounds "
            f"the dense tensor dimension d^N (default {tensor_model.DEFAULT_MAX_DIM})."
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
    p.add_argument("--ordering", choices=[states.STAR_JI, states.I_STAR_J], default=states.STAR_JI)
    p.add_argument("--unchecked", action="store_true", help="skip the state mass bound (testing aid)")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=["centrality", "multiplicativity", "gelfand", "popova", "star", "conjugation"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--state")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="closed form vs dense tensor model over R_n")
    p.add_argument("--params", required=True, help="model parameter JSON file")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="csv columns: closed_form,diff,element,model",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spherical", help="finite spherical coefficients vs closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--elem", dest="element")
    p.add_argument("--all-idempotents", action="store_true")
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="csv columns: closed_form,coefficient,element,killed,match",
    )
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("okounkov", help="transposition-limit stabilization report")
    p.add_argument("--params", required=True)
    p.add_argument("--k", type=int, required=True, help="slot index of the limit operator")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--tol", type=float, default=1e-12)
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
    except (ParseError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
