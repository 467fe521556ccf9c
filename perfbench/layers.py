"""Per-layer metrics derived from the spans and counts of one traced command.

Every ``*_s`` metric is a self time: the time inside the named calls minus
the part covered by traced calls nested in them.  The one exception is
``states.gram_build_s``, the duration of ``gram_matrix`` minus its
certificate, which is the whole cost of building the Gram entries.

Values named ``*_computed`` are computed from sizes, not measured:
``tensor_model.gflop_computed`` is 2 dim^3 per dense matmul,
``tensor_model.bytes_held_computed`` is (distinct cached element matrices)
x dim^2 x 8 bytes and ``spherical.basis_bytes_computed`` is C(n, l)^2 x 8
bytes, the int64 matrix one ``spherical_coeff`` call allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The Gram commands of the certify workload; linalg metrics are per Gram.
GRAM_LABELS = ("gram_full", "gram_lowrank")

PER_LAYER: dict[str, str] = {
    "elements.enumerate_s": "s",
    "elements.compose_calls": "count",
    "elements.compose_s": "s",
    "quasicycles.decompose_calls": "count",
    "quasicycles.decompose_s": "s",
    "quasicycles.hit_ratio": "ratio",
    "states.evaluate_calls": "count",
    "states.evaluate_s": "s",
    "states.gram_build_s": "s",
    "algebra.gelfand_s": "s",
    "algebra.distinct_products": "count",
    "words.encode_s": "s",
    "words.letters": "count",
    "words.max_len": "count",
    **{
        f"linalg.{label}.{key}": unit
        for label in GRAM_LABELS
        for key, unit in (("certificate_s", "s"), ("dim", "count"), ("rank", "count"),
                          ("pivot_bits_max", "bits"))
    },
    "tensor_model.embedding_s": "s",
    "tensor_model.phi_model_s": "s",
    "tensor_model.closed_form_s": "s",
    "tensor_model.okounkov_s": "s",
    "tensor_model.dim": "count",
    "tensor_model.matmuls": "count",
    "tensor_model.gflop_computed": "GFLOP",
    "tensor_model.bytes_held_computed": "bytes",
    "spherical.coeff_calls": "count",
    "spherical.coeff_s": "s",
    "spherical.basis_bytes_computed": "bytes",
    "cli.emit_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class TracedCommand:
    label: str
    # name -> (calls, self_s, total_s), as deltas over the command
    stats: dict[str, tuple[int, float, float]]
    values: dict[str, list]
    cache_hits: int
    cache_misses: int
    stdout_bytes: int

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def round_metrics(commands: list[TracedCommand]) -> dict[str, float]:
    """Per-layer metrics of one traced round (all commands of a workload)."""
    m = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_ratio"}

    def add_self(metric: str, name: str):
        m[metric] += sum(c.self_s(name) for c in commands)

    def add_calls(metric: str, name: str):
        m[metric] += sum(c.calls(name) for c in commands)

    add_self("elements.enumerate_s", "elements.enumerate")
    add_calls("elements.compose_calls", "elements.compose")
    add_self("elements.compose_s", "elements.compose")
    add_calls("quasicycles.decompose_calls", "quasicycles.decompose")
    add_self("quasicycles.decompose_s", "quasicycles.decompose")
    hits = sum(c.cache_hits for c in commands)
    lookups = hits + sum(c.cache_misses for c in commands)
    m["quasicycles.hit_ratio"] = hits / lookups if lookups else 0.0
    add_calls("states.evaluate_calls", "states.evaluate")
    add_self("states.evaluate_s", "states.evaluate")
    m["states.gram_build_s"] = sum(
        c.total_s("states.gram_matrix") - c.total_s("linalg.psd_certificate") for c in commands
    )
    add_self("algebra.gelfand_s", "algebra.check_gelfand_pair")
    m["algebra.distinct_products"] = sum(
        sum(c.values.get("algebra.distinct_products", ())) for c in commands
    )
    add_self("words.encode_s", "words.element_to_word")
    lengths = [n for c in commands for n in c.values.get("words.len", ())]
    m["words.letters"] = sum(lengths)
    m["words.max_len"] = max(lengths, default=0)

    for c in commands:
        if c.label in GRAM_LABELS and c.values.get("linalg.dim"):
            prefix = f"linalg.{c.label}."
            m[prefix + "certificate_s"] = c.self_s("linalg.psd_certificate")
            for key in ("dim", "rank", "pivot_bits_max"):
                m[prefix + key] = c.values[f"linalg.{key}"][-1]

    add_self("tensor_model.embedding_s", "tensor_model.embedding")
    add_self("tensor_model.phi_model_s", "tensor_model.phi_model")
    add_self("tensor_model.closed_form_s", "tensor_model.closed_form")
    add_self("tensor_model.okounkov_s", "tensor_model.okounkov_check")
    for c in commands:
        dims = c.values.get("tensor_model.dim")
        if not dims:
            continue
        dim = max(dims)
        # One matmul per letter of each newly cached element, two per
        # pair_value and one per pair_value_diag.
        matmuls = (
            sum(c.values.get("tensor_model.cached_word", ()))
            + 2 * c.calls("tensor_model.pair_value")
            + c.calls("tensor_model.pair_value_diag")
        )
        cached = len(c.values.get("tensor_model.cached_word", ()))
        m["tensor_model.dim"] = max(m["tensor_model.dim"], dim)
        m["tensor_model.matmuls"] += matmuls
        m["tensor_model.gflop_computed"] += matmuls * 2 * dim**3 / 1e9
        m["tensor_model.bytes_held_computed"] = max(
            m["tensor_model.bytes_held_computed"], cached * dim * dim * 8
        )

    add_calls("spherical.coeff_calls", "spherical.coeff")
    add_self("spherical.coeff_s", "spherical.coeff")
    models = {nl for c in commands for nl in c.values.get("spherical.basis", ())}
    m["spherical.basis_bytes_computed"] = max(
        (math.comb(n, l) ** 2 * 8 for n, l in models), default=0
    )
    add_self("cli.emit_s", "cli.emit")
    m["cli.stdout_bytes"] = sum(c.stdout_bytes for c in commands)
    return m
