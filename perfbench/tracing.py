"""Spans and counters recorded around braidhom's public functions.

The tracer patches module attributes from the outside; no file of the
package changes.  A wrapped function becomes a span (name, parent, start,
end).  The hot ring operations -- GroupRingElement.__mul__/__rmul__ (kind
"mul"), __add__/__radd__/__sub__ (kind "add") and exact_divide (kind
"exact_divide"), including the copies other modules imported by name -- are
too frequent for spans and are aggregated as counters on the enclosing span.
Only the outermost ring operation counts: the products and differences inside
exact_divide, or the addition inside __sub__, belong to it.  Term counts are
read through the public support().

A span's self time is its duration minus the time its child spans and its
counted ring operations cover (the counting code included), so the tracer's
own bookkeeping does not inflate the parent's self time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, span name); every braidhom module holding the same
# function object under any name is patched, so `from .linalg import mat_mul`
# copies are traced as well.
SPANS = (
    ("braidhom.braid", "evaluate_word", "braid.evaluate_word"),
    ("braidhom.linalg", "mat_mul", "linalg.mat_mul"),
    ("braidhom.linalg", "invert", "linalg.invert"),
    ("braidhom.linalg", "rank_exact", "linalg.rank"),
    ("braidhom.linalg", "rank_numeric", "linalg.rank"),
    ("braidhom.linalg", "specialize_matrix", "linalg.specialize"),
    ("braidhom.completion", "is_in_group_ring", "completion.is_in_group_ring"),
    ("braidhom.completion", "module_action", "completion.module_action"),
    ("braidhom.completion", "equal", "completion.equal"),
    ("braidhom.homology", "homology_ranks_at", "homology.ranks_at"),
    ("braidhom.cli", "main", "cli.main"),
)

RING_METHODS = (
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__add__", "add"),
    ("__radd__", "add"),
    ("__sub__", "add"),
)

SPAN_NAMES = sorted({name for _, _, name in SPANS} | {"homology.complex"})
RING_KINDS = ("mul", "add", "exact_divide")


class Tracer:
    """In-memory spans and per-span ring counters for one process."""

    def __init__(self):
        # [id, parent, op, name, start, end, letters]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (span id, kind) -> [calls, seconds, covered, term_products, result_terms_max]
        self.counters: dict[tuple[int, str], list] = {}
        self.op = None
        # totals a workload records itself, such as the cli.* figures
        self.extra: dict[str, float] = {}
        self._depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, letters: int = 0) -> list:
        parent = self.stack[-1] if self.stack else None
        record = [len(self.spans), parent, self.op, name, perf_counter(), None, letters]
        self.spans.append(record)
        self.stack.append(record[0])
        return record

    def end(self, record: list):
        record[5] = perf_counter()
        self.stack.pop()

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            letters = len(args[0].letters) if name == "braid.evaluate_word" else 0
            record = tracer.begin(name, letters)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(record)

        return wrapper

    def _ring(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer._depth or not tracer.stack:
                return fn(a, b)
            t0 = perf_counter()
            tracer._depth += 1
            try:
                terms = len(a.support()) * (len(b.support()) if hasattr(b, "support") else 1)
                t1 = perf_counter()
                result = fn(a, b)
                t2 = perf_counter()
                size = len(result.support()) if hasattr(result, "support") else 0
            finally:
                tracer._depth -= 1
            if result is NotImplemented:
                return result
            key = (tracer.stack[-1], kind)
            slot = tracer.counters.get(key)
            if slot is None:
                slot = tracer.counters[key] = [0, 0.0, 0.0, 0, 0]
            slot[0] += 1
            slot[1] += t2 - t1
            slot[2] += perf_counter() - t0
            slot[3] += terms
            slot[4] = max(slot[4], size)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        import braidhom.homology
        import braidhom.ring

        modules = [mod for name, mod in sys.modules.items()
                   if name == "braidhom" or name.startswith("braidhom.")]
        targets = [(getattr(sys.modules[mod], attr), self._span(name, getattr(sys.modules[mod], attr)))
                   for mod, attr, name in SPANS if mod in sys.modules]
        exact = braidhom.ring.exact_divide
        targets.append((exact, self._ring("exact_divide", exact)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in targets:
                    if value is original:
                        self._patch(module, attr, wrapper)
        element = braidhom.ring.GroupRingElement
        for attr, kind in RING_METHODS:
            self._patch(element, attr, self._ring(kind, getattr(element, attr)))
        chain = braidhom.homology.FiniteChainComplex
        self._patch(chain, "__init__", self._span("homology.complex", chain.__init__))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def adopt(self, child: dict):
        """Graft another process's export under the innermost open span."""
        offset = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        for sid, cparent, _, name, start, end, letters in child["spans"]:
            self.spans.append([sid + offset, parent if cparent is None else cparent + offset,
                               self.op, name, start, end, letters])
        for sid, kind, *slot in child["counters"]:
            self.counters[(sid + offset, kind)] = slot

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        """Spans and counters as plain JSON data."""
        return {
            "spans": self.spans,
            "counters": [[sid, kind] + slot for (sid, kind), slot in self.counters.items()],
        }


def aggregate(spans: list, counters: list) -> dict:
    """Per-layer totals: calls and self time per span name, ring counters."""
    covered = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    for sid, _, _, _, covered_s, _, _ in counters:
        covered[sid] = covered.get(sid, 0.0) + covered_s
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    out["braid.letters"] = 0
    for sid, _, _, name, start, end, letters in spans:
        if name not in SPAN_NAMES:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - covered.get(sid, 0.0)
        out["braid.letters"] += letters
    for kind in RING_KINDS:
        out[f"ring.{kind}.calls"] = 0
        out[f"ring.{kind}.self_s"] = 0.0
    out["ring.mul.term_products"] = 0
    out["ring.result_terms_max"] = 0
    for _, kind, calls, seconds, _, terms, size in counters:
        out[f"ring.{kind}.calls"] += calls
        out[f"ring.{kind}.self_s"] += seconds
        if kind == "mul":
            out["ring.mul.term_products"] += terms
        out["ring.result_terms_max"] = max(out["ring.result_terms_max"], size)
    return out
