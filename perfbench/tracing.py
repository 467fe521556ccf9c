"""In-memory span tracer installed around rookchar's public functions.

Nothing under ``src/`` knows about tracing: :func:`installed` swaps module
globals (and a few class attributes) for timing wrappers and restores them on
exit.  There are four kinds of wrapper:

* ``SPAN`` records a span (id, name, start, end, parent, self time) and is
  meant for calls that happen a few hundred times per command at most;
* ``HOT`` only adds to per-name totals, for leaf calls made hundreds of
  thousands of times (``compose``, ``decompose``, ``evaluate``); the span
  that encloses them carries their call counts and self times;
* ``GEN`` times each resume of a generator (``enumerate_rn``);
* ``COUNT`` only counts calls, so their time stays with the enclosing call.

A timed call's self time is its duration minus the part covered by timed
calls nested inside it.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

SPAN, HOT, GEN, COUNT = "span", "hot", "gen", "count"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    # Values captured by hooks at the call boundary (sizes, counts).
    values: dict[str, list] = field(default_factory=dict)
    _stack: list[list[float]] = field(default_factory=list)
    _current: int | None = None

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (s.calls, s.self_s, s.total_s) for k, s in self.stats.items()}

    def record(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself (a whole command)."""
        enter = self._enter_span(name)
        try:
            yield
        finally:
            self._exit_span(*enter)

    def _enter_span(self, name: str):
        span = {"id": len(self.spans), "name": name, "parent": self._current}
        self.spans.append(span)
        frame = [0.0]
        self._stack.append(frame)
        prev, self._current = self._current, span["id"]
        before = self.snapshot()
        span["start"] = perf_counter()
        return span, frame, prev, before

    def _exit_span(self, span, frame, prev, before):
        end = perf_counter()
        dur = end - span["start"]
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        self._current = prev
        st = self.stat(span["name"])
        st.calls += 1
        st.self_s += dur - frame[0]
        st.total_s += dur
        span["end"] = end
        span["self_s"] = dur - frame[0]
        # Leaf calls made inside this span (including nested spans).
        inner = {}
        for name, (calls, self_s, _) in self.snapshot().items():
            c0, s0, _ = before.get(name, (0, 0.0, 0.0))
            if calls > c0 and name != span["name"]:
                inner[name] = {"calls": calls - c0, "self_s": self_s - s0}
        span["inner"] = inner

    def wrap(self, name: str, kind: str, fn: Callable, hook: Callable | None = None) -> Callable:
        st = self.stat(name)
        stack = self._stack

        if kind == COUNT:
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted

        if kind == GEN:
            def generator(*args, **kwargs):
                st.calls += 1
                return self._timed_iter(st, fn(*args, **kwargs))
            return generator

        if kind == SPAN:
            def spanned(*args, **kwargs):
                enter = self._enter_span(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit_span(*enter)
                if hook is not None:
                    hook(self, args, result)
                return result
            return spanned

        def hot(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.self_s += dur - frame[0]
                st.total_s += dur
            if hook is not None:
                hook(self, args, result)
            return result
        return hot

    def _timed_iter(self, st: Stat, it):
        stack = self._stack
        while True:
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st.self_s += dur - frame[0]
                st.total_s += dur
            yield item


# --- what is traced -------------------------------------------------------------


def _on_certificate(tracer: Tracer, args, cert) -> None:
    pivots = cert.pivots or ()
    tracer.record("linalg.dim", args[0].n)
    tracer.record("linalg.rank", sum(1 for p in pivots if p))
    tracer.record("linalg.pivot_bits_max", max((p.denominator.bit_length() for p in pivots), default=0))


def _on_word(tracer: Tracer, args, word) -> None:
    tracer.record("words.len", len(word))


def _on_model_word(tracer: Tracer, args, word) -> None:
    # tensor_model encodes a word only when TensorEmbedding.matrix misses its
    # element cache, then multiplies one dense matrix per letter.
    _on_word(tracer, args, word)
    tracer.record("tensor_model.cached_word", len(word))


def _on_embedding(tracer: Tracer, args, _) -> None:
    tracer.record("tensor_model.dim", args[0].dim)


def _on_spherical(tracer: Tracer, args, _) -> None:
    model = args[0]
    tracer.record("spherical.basis", (model.n, model.l))


def _on_gelfand(tracer: Tracer, args, report) -> None:
    tracer.record("algebra.distinct_products", report.distinct_products)


# (module, attribute, metric name, kind, hook).  A dotted attribute names a
# class attribute.  Functions are replaced wherever a rookchar module has
# imported them, so every call site sees the wrapper.
TRACED = (
    ("elements", "enumerate_rn", "elements.enumerate", GEN, None),
    ("elements", "compose", "elements.compose", HOT, None),
    ("quasicycles", "decompose", "quasicycles.decompose", HOT, None),
    ("states", "evaluate", "states.evaluate", HOT, None),
    ("states", "gram_matrix", "states.gram_matrix", SPAN, None),
    ("states", "check_centrality", "states.check_centrality", SPAN, None),
    ("states", "check_conjugation_invariance", "states.check_conjugation_invariance", SPAN, None),
    ("states", "check_star_symmetry", "states.check_star_symmetry", SPAN, None),
    ("algebra", "check_gelfand_pair", "algebra.check_gelfand_pair", SPAN, _on_gelfand),
    ("words", "element_to_word", "words.element_to_word", HOT, _on_word),
    ("linalg", "psd_certificate", "linalg.psd_certificate", SPAN, _on_certificate),
    ("tensor_model", "TensorEmbedding.__init__", "tensor_model.embedding", SPAN, _on_embedding),
    ("tensor_model", "phi_model", "tensor_model.phi_model", HOT, None),
    ("tensor_model", "phi_closed_form", "tensor_model.closed_form", HOT, None),
    ("tensor_model", "okounkov_check", "tensor_model.okounkov_check", SPAN, None),
    ("tensor_model", "TensorEmbedding.pair_value", "tensor_model.pair_value", COUNT, None),
    ("tensor_model", "TensorEmbedding.pair_value_diag", "tensor_model.pair_value_diag", COUNT, None),
    ("spherical", "spherical_coeff", "spherical.coeff", HOT, _on_spherical),
    ("cli", "_emit", "cli.emit", SPAN, None),
)
# tensor_model's own import of element_to_word gets a wrapper that also
# counts the letters multiplied into cached element matrices.
MODEL_WORD = ("tensor_model", "element_to_word", "words.element_to_word", HOT, _on_model_word)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap traced functions for wrappers in every rookchar module; restore on exit."""
    import rookchar.cli  # noqa: F401  (loads every module that gets patched)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rookchar" or name.startswith("rookchar.")]
    undo: list[tuple[object, str, object]] = []

    def setattr_undoable(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        # First, so the scan below finds this binding already replaced.
        module_name, attr, name, kind, hook = MODEL_WORD
        owner = sys.modules[f"rookchar.{module_name}"]
        setattr_undoable(owner, attr, tracer.wrap(name, kind, getattr(owner, attr), hook))
        for module_name, attr, name, kind, hook in TRACED:
            owner = sys.modules[f"rookchar.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr_undoable(owner, attr, tracer.wrap(name, kind, getattr(owner, attr), hook))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, kind, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr_undoable(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
