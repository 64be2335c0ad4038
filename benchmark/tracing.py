"""Span tracer for the traced run, installed from outside the library.

The tracer rebinds each traced public function or method of a layer to a
wrapper that records one span: name, start, end, parent span and op id.  A
module-level function is rebound in every ``bernring`` module namespace that
holds it, because ``from .series import bernoulli_number`` copies the name.
Methods are rebound once, on their class.  Spans stay in column arrays in
memory and are written out when the session ends.

A span's self time is its duration minus the time covered by its direct
child spans, so time spent in untraced helpers is charged to the nearest
traced caller.  A layer's self time is the sum over its spans.  Hooks that
derive counters from a call's operands run after its span has ended; their
time is recorded as the caller's hidden time and left out of its self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

#: the layers, one per library module (``cli`` and ``selftest`` are front ends)
LAYERS = ("polys", "series", "elements", "weyl", "partfrac", "reduction", "exprparse", "identities")

#: (module, attribute, span name); the span name starts with its layer
TRACED = (
    ("polys", "Poly.__mul__", "polys.Poly.mul"),
    ("polys", "Poly.__divmod__", "polys.Poly.divmod"),
    ("polys", "gcd_ext", "polys.gcd_ext"),
    ("series", "TruncatedSeries.__mul__", "series.mul"),
    ("series", "TruncatedSeries.__add__", "series.add"),
    ("series", "TruncatedSeries.inverse", "series.inverse"),
    ("series", "TruncatedSeries.scale_arg", "series.scale_arg"),
    ("series", "exp_series", "series.exp_series"),
    ("series", "bernoulli_series", "series.bernoulli_series"),
    ("series", "bernoulli_power_series", "series.bernoulli_power_series"),
    ("series", "bernoulli_number", "series.bernoulli_number"),
    ("series", "bernoulli_number_order", "series.bernoulli_number_order"),
    ("series", "bernoulli_poly_value", "series.bernoulli_poly_value"),
    ("elements", "BElement.__add__", "elements.add"),
    ("elements", "BElement.is_zero", "elements.is_zero"),
    ("elements", "BElement.expand", "elements.expand"),
    ("weyl", "WeylOp.__mul__", "weyl.mul"),
    ("weyl", "WeylOp.apply_element", "weyl.apply_element"),
    ("weyl", "WeylOp.apply_series", "weyl.apply_series"),
    ("weyl", "derivative_of_element", "weyl.derivative_of_element"),
    ("partfrac", "g_pair", "partfrac.g_pair"),
    ("partfrac", "h_f", "partfrac.h_f"),
    ("partfrac", "lemma_decompose", "partfrac.lemma_decompose"),
    ("reduction", "product_reduce", "reduction.product_reduce"),
    ("reduction", "reduce_to_first_order", "reduction.reduce_to_first_order"),
    ("reduction", "stirling", "reduction.stirling"),
    ("exprparse", "parse_element", "exprparse.parse_element"),
)

#: every ``verify_*`` function of the identities module shares this span name
VERIFY_SPAN = "identities.verify"


def _mul_coef_ops(x, y) -> int:
    """Multiply-adds the schoolbook Cauchy product x*y performs (computed from its inputs)."""
    bound = min(x.bound + y.low, y.bound + x.low)
    nonzero = [0]
    for c in y.coeffs:
        nonzero.append(nonzero[-1] + (1 if c else 0))
    ops = 0
    for i, a in enumerate(x.coeffs):
        if a:
            jmax = min(len(y.coeffs) - 1, bound - (x.low + i) - y.low)
            if jmax >= 0:
                ops += nonzero[jmax + 1]
    return ops


def _on_mul(counters: dict, args, result) -> None:
    counters["series.mul.coef_ops"] += _mul_coef_ops(args[0], args[1])
    counters["series.mul.max_bound"] = max(counters["series.mul.max_bound"], result.bound)


def _on_inverse(counters: dict, args, result) -> None:
    counters["series.inverse.max_bound"] = max(counters["series.inverse.max_bound"], result.bound)


def _on_product_reduce(counters: dict, args, result) -> None:
    counters["reduction.product_reduce.out_atoms"] += len(result.terms)


HOOKS = {
    "series.mul": _on_mul,
    "series.inverse": _on_inverse,
    "reduction.product_reduce": _on_product_reduce,
}

#: (span, child span): a span with such a child rebuilt its cache entry
REGROW = {
    "series.bernoulli_series.regrow": ("series.bernoulli_series", "series.inverse"),
    "series.bernoulli_power_series.regrow": ("series.bernoulli_power_series", "series.bernoulli_series"),
}


class Tracer:
    """Records spans for calls into the traced functions of a loaded library."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.op = -1
        self.span_names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op_id = array("l")
        self.hidden = array("q")
        self.counters = {
            "series.mul.coef_ops": 0,
            "series.mul.max_bound": 0,
            "series.inverse.max_bound": 0,
            "reduction.product_reduce.out_atoms": 0,
        }
        self.caches = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        partfrac = self.modules["partfrac"]
        self.caches = {"partfrac.g_pair": partfrac.g_pair, "partfrac.h_f": partfrac.h_f}
        for module, attr, span in TRACED:
            self._trace(module, attr, span)
        identities = self.modules["identities"]
        for attr, value in sorted(vars(identities).items()):
            if attr.startswith("verify_") and callable(value):
                self._trace("identities", attr, VERIFY_SPAN)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _trace(self, module: str, attr: str, span: str) -> None:
        owner = self.modules[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            self._rebind(cls, method, original, self._wrap(original, span))
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(original, span)
        for namespace in self.modules.values():
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self._rebind(namespace, name, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, span: str):
        if span in self.span_names:
            name_id = self.span_names.index(span)
        else:
            name_id = len(self.span_names)
            self.span_names.append(span)
        hook = HOOKS.get(span)
        names, starts, ends, parents, op_ids, hidden = (
            self.name, self.start, self.end, self.parent, self.op_id, self.hidden
        )
        stack, counters, clock, tracer = self._stack, self.counters, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(tracer.op)
            starts.append(0)
            ends.append(0)
            hidden.append(0)
            stack.append(idx)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = begin
                stack.pop()
            if hook is not None:
                mark = clock()
                hook(counters, args, result)
                if stack:
                    hidden[stack[-1]] += clock() - mark
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def cache_ratios(self) -> dict[str, float]:
        """Hit ratios of the partial-fraction caches, from ``cache_info()``."""
        out = {}
        for span, cached in self.caches.items():
            info = cached.cache_info()
            lookups = info.hits + info.misses
            out[f"{span}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def summary(self) -> dict[str, float]:
        """Per-span and per-layer counts and self times of everything recorded."""
        count = len(self.name)
        child_ns = list(self.hidden)
        marks = {metric: set() for metric in REGROW}
        ids = {span: i for i, span in enumerate(self.span_names)}
        regrow_pairs = [
            (metric, ids.get(parent_span), ids.get(child_span))
            for metric, (parent_span, child_span) in REGROW.items()
        ]
        for idx in range(count):
            parent = self.parent[idx]
            if parent >= 0:
                child_ns[parent] += self.end[idx] - self.start[idx]
                for metric, parent_id, child_id in regrow_pairs:
                    if self.name[idx] == child_id and self.name[parent] == parent_id:
                        marks[metric].add(parent)
        calls = [0] * len(self.span_names)
        self_ns = [0] * len(self.span_names)
        for idx in range(count):
            name_id = self.name[idx]
            calls[name_id] += 1
            self_ns[name_id] += self.end[idx] - self.start[idx] - child_ns[idx]
        out: dict[str, float] = {layer + ".self_s": 0.0 for layer in LAYERS}
        for name_id, span in enumerate(self.span_names):
            out[span + ".calls"] = calls[name_id]
            out[span + ".self_s"] = self_ns[name_id] / 1e9
            out[span.split(".")[0] + ".self_s"] += self_ns[name_id] / 1e9
        for metric, spans in marks.items():
            out[metric] = len(spans)
        lookups = out["series.bernoulli_series.calls"] + out["series.bernoulli_power_series.calls"]
        rebuilt = out["series.bernoulli_series.regrow"] + out["series.bernoulli_power_series.regrow"]
        out["series.hit_ratio"] = 1 - rebuilt / lookups if lookups else 0.0
        out.update(self.counters)
        out.update(self.cache_ratios())
        return out

    def write(self, path) -> None:
        """Write every span as gzipped JSON lines, after a header naming the columns."""
        with gzip.open(path, "wt") as fh:
            fields = ["name", "start_ns", "end_ns", "parent", "op", "hidden_ns"]
            fh.write(json.dumps({"fields": fields, "names": self.span_names}) + "\n")
            for idx in range(len(self.name)):
                row = [self.name[idx], self.start[idx], self.end[idx], self.parent[idx], self.op_id[idx], self.hidden[idx]]
                fh.write(json.dumps(row) + "\n")
