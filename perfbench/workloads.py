"""The four benchmark workloads: their commands, generated inputs and output checks.

Each workload is a fixed list of ``rookchar`` CLI commands.  Inputs are
written by this module into a work directory.  The only seed-dependent input
is the order of the Gram elements, which no check depends on; each round of
a run takes its own order from the seed and the round index, so the median
over a run's rounds does not hinge on one order's elimination path.  Every check
takes the command's exit code and stdout and returns an error string, or
``None`` when the output is right.  Exact fields are compared exactly; float
fields are compared against the command's own ``--tol``, never as bytes,
because BLAS reduction order varies.

Why each workload exists is recorded in ``NOTES.md``; the one-line reasons
are repeated in ``WHY`` below and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``label`` names its time metric (``<label>_s``)."""

    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Labels of the two commands reported as the end-to-end cmd1_s and cmd2_s.
    primary: tuple[str, str]


WHY = {
    "sweep-hot": "R_4 centrality and conjugation sweeps plus the R_3 Gelfand check: "
    "209 elements re-evaluated ~48 times each, so decompose's cache hits; compose and evaluate carry the cost",
    "sweep-cold": "star sweep over the 13,327 elements of R_6, each new to decompose's cache, "
    "and 2,047 spherical coefficients that each allocate a 462x462 matrix: the miss-side counterpart",
    "certify": "exact PSD certificates of two 72x72 Grams over R_4: full rank with ~300-bit pivots "
    "versus rank 24 with early stop; the only workload where linalg works",
    "oracle": "dense tensor oracle and Okounkov check at d^N = 625: one matmul per word letter, "
    "pair_value products and the unbounded element cache; the exact layers are idle",
}

# --- pinned facts -------------------------------------------------------------

# |R_4| * |S_4| pairs for the two R_4 sweeps, and |R_6| for the star sweep.
R4_SWEEP_CHECKED = 209 * 24
R6_SIZE = 13327

# Gelfand check on R_3: basis size, distinct sandwiches p a p, pairs compared.
GELFAND_R3 = {"basis": 34, "distinct_products": 4, "checked": 6}

# The spherical model pi^(11,5) on all 2^11 - 1 nonempty kill sets.
SPHERICAL_N, SPHERICAL_L = 11, 5

# Gram elements: the 72 elements of R_4 whose domain holds 1, 2 and at least
# one of 3, 4.  Determinants are products of the nonzero pivots; they do not
# depend on the element order, which the seed permutes.
GRAM_FULL_RANK = 72
GRAM_FULL_DET = Fraction(
    "3163533042399017307240237921109636166244237442822542641958390522472783054257484375/"
    "188394925735594199605160269812340973028926619151656175891670565891349859923934692"
    "3354628819035336577412801193722478890986766336"
)
GRAM_LOWRANK_RANK = 24
GRAM_LOWRANK_DET = Fraction(
    "411044587746357653228759696400063569106143094734624065921/"
    "6277101735386680763835789423207666416102355444464034512896"
)

# A state with no mark: it vanishes on every non-permutation, so only the
# 24 permutations carry rank.
ZERO_EXTENSION_STATE = {"alpha": ["1/2"], "beta": ["1/4"], "mark": None}

# Full-mass model parameters (closed form and dense trace agree exactly):
# spectrum (2/3, -1/3, 0, 0, 0), v^2 = (1/2, 0, 1/2, 0, 0), N = 4 slots.
ORACLE_PARAMS = {
    "a_diag": ["2/3", "-1/3", "0", "0", "0"],
    "v": ["sqrt(1/2)", "0", "sqrt(1/2)", "0", "0"],
    "regular": [],
    "N": 4,
}
ORACLE_TOL, OKOUNKOV_TOL = "1e-10", "1e-12"
R3_SIZE = 34
R2_SIZE = 7


# --- inputs -------------------------------------------------------------------


def _literal(images: list[int | None]) -> str:
    """Canonical image-list literal: trailing fixed points trimmed, ``e`` if empty."""
    while images and images[-1] == len(images):
        images.pop()
    if not images:
        return "e"
    return "[" + ",".join("_" if y is None else str(y) for y in images) + "]"


def gram_elements() -> list[str]:
    """The 72 Gram elements of R_4, in a fixed order."""
    out = []
    for domain in ((1, 2, 3, 4), (1, 2, 3), (1, 2, 4)):
        for image in itertools.permutations(range(1, 5), len(domain)):
            images: list[int | None] = [None] * 4
            for x, y in zip(domain, image):
                images[x - 1] = y
            out.append(_literal(images))
    return out


def shuffled_gram_elements(seed: int, round_index: int) -> list[str]:
    elems = gram_elements()
    random.Random(f"{seed}/{round_index}").shuffle(elems)
    return elems


# --- checks -------------------------------------------------------------------


def _payload(code: int, out: str) -> dict:
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def check_sweep(suite: str, checked: int) -> Check:
    def check(code: int, out: str) -> str | None:
        data = _payload(code, out)
        return _expect(
            data["suite"] == suite and data["ok"] is True and data["checked"] == checked
            and data["violations"] == [],
            f"{suite}: ok={data['ok']} checked={data['checked']} (want {checked})",
        )

    return check


def check_gelfand(code: int, out: str) -> str | None:
    data = _payload(code, out)
    got = {key: data[key] for key in GELFAND_R3}
    return _expect(data["ok"] is True and got == GELFAND_R3, f"gelfand: {got}")


def _falling_ratio(n: int, l: int, b: int) -> Fraction:
    if b > l:
        return Fraction(0)
    return Fraction(math.perm(l, b), math.perm(n, b))


def check_spherical(code: int, out: str) -> str | None:
    data = _payload(code, out)
    rows = data["rows"]
    if data["all_match"] is not True or len(rows) != 2**SPHERICAL_N - 1:
        return f"spherical: all_match={data['all_match']} rows={len(rows)}"
    if len({row["element"] for row in rows}) != len(rows):
        return "spherical: repeated elements"
    for row in rows:
        killed = row["element"].count("_")
        want = _falling_ratio(SPHERICAL_N, SPHERICAL_L, killed)
        if row["killed"] != killed or Fraction(row["coefficient"]) != want:
            return f"spherical: {row['element']} gave {row['coefficient']}, want {want}"
    return None


def check_gram(elements: list[str], rank: int, det: Fraction) -> Check:
    def check(code: int, out: str) -> str | None:
        data = _payload(code, out)
        cert = data["certificate"]
        if data["elements"] != elements:
            return "gram: element order differs from the input"
        if cert["verdict"] != "PSD":
            return f"gram: verdict {cert['verdict']}"
        nonzero = [Fraction(p) for p in cert["pivots"] if Fraction(p)]
        got = math.prod(nonzero, start=Fraction(1))
        if len(nonzero) != rank or got != det:
            return f"gram: rank {len(nonzero)} (want {rank}), determinant mismatch={got != det}"
        return None

    return check


def check_float_report(field: str, tol: str, count_key: str, count: int) -> Check:
    def check(code: int, out: str) -> str | None:
        data = _payload(code, out)
        worst = float(data[field])
        return _expect(
            worst <= float(tol) and len(data[count_key]) == count,
            f"{field}={worst!r} (tol {tol}), {len(data[count_key])} {count_key} (want {count})",
        )

    return check


def run_check(check: Check, code: int, out: str) -> str | None:
    """Apply a check; malformed output counts as a failed check."""
    try:
        return check(code, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


# --- workloads ----------------------------------------------------------------


def build(name: str, seed: int, round_index: int, workdir: Path) -> Workload:
    """Write the inputs of one round of workload ``name`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "sweep-hot":
        return Workload(
            name,
            (
                Command("centrality", ("verify", "--suite", "centrality", "--n", "4"),
                        check_sweep("centrality", R4_SWEEP_CHECKED)),
                Command("conjugation", ("verify", "--suite", "conjugation", "--n", "4"),
                        check_sweep("conjugation-invariance", R4_SWEEP_CHECKED)),
                Command("gelfand", ("verify", "--suite", "gelfand", "--n", "3"), check_gelfand),
            ),
            ("centrality", "conjugation"),
        )
    if name == "sweep-cold":
        return Workload(
            name,
            (
                Command("star", ("verify", "--suite", "star", "--n", "6"),
                        check_sweep("star-symmetry", R6_SIZE)),
                Command("spherical", ("spherical", "--n", str(SPHERICAL_N), "--l",
                                      str(SPHERICAL_L), "--all-idempotents"), check_spherical),
            ),
            ("star", "spherical"),
        )
    if name == "certify":
        elems = shuffled_gram_elements(seed, round_index)
        elems_file = workdir / "gram_elements.txt"
        elems_file.write_text("\n".join(elems) + "\n", encoding="utf-8")
        state_file = workdir / "zero_extension.json"
        state_file.write_text(json.dumps(ZERO_EXTENSION_STATE), encoding="utf-8")
        return Workload(
            name,
            (
                Command("gram_full", ("gram", "--elems", str(elems_file)),
                        check_gram(elems, GRAM_FULL_RANK, GRAM_FULL_DET)),
                Command("gram_lowrank", ("gram", "--elems", str(elems_file), "--state",
                                         str(state_file)),
                        check_gram(elems, GRAM_LOWRANK_RANK, GRAM_LOWRANK_DET)),
            ),
            ("gram_full", "gram_lowrank"),
        )
    if name == "oracle":
        params_file = workdir / "params.json"
        params_file.write_text(json.dumps(ORACLE_PARAMS), encoding="utf-8")
        return Workload(
            name,
            (
                Command("oracle", ("oracle", "--params", str(params_file), "--n", "3",
                                   "--tol", ORACLE_TOL),
                        check_float_report("max_diff", ORACLE_TOL, "rows", R3_SIZE)),
                Command("okounkov", ("okounkov", "--params", str(params_file), "--k", "3",
                                     "--tol", OKOUNKOV_TOL),
                        check_float_report("max_deviation", OKOUNKOV_TOL, "checks",
                                           R2_SIZE * R2_SIZE)),
            ),
            ("oracle", "okounkov"),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
