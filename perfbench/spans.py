"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every package module
that holds it, to a wrapper that records one span per call: name, layer,
start, end, parent span and the trace id of the pass.  Nested calls made
through a rebound name (``estimate_deflators`` calling ``gram_blocks``,
``simulate`` calling ``fit_dummy_index``) become child spans.  ``remove``
restores the originals.  Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("panel", "algebra", "estimator", "updating", "dummy", "simulate", "cli")

# (layer, function, span name); fit_dummy_index splits by its weighted flag
TRACED = (
    ("panel", "load_panel", "panel.load"),
    ("panel", "build_reference_basket", "panel.basket"),
    ("algebra", "gram_blocks", "algebra.gram"),
    ("estimator", "estimate_deflators", "estimator.fit"),
    ("estimator", "to_index_series", "estimator.series"),
    ("updating", "update_multilateral", "updating.unit"),
    ("updating", "update_multiperiod", "updating.period"),
    ("dummy", "fit_dummy_index", "dummy.fit"),
    ("dummy", "presence_components", "dummy.components"),
    ("simulate", "simulate", "simulate.run"),
    ("cli", "emit_report", "cli.emit"),
    ("cli", "run_cli", "cli.run"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # dicts, in completion order
        self.trace_id = None
        self.counts = {}         # counters read off return values
        self._stack = []
        self._next_id = 0
        self._saved = []

    def _wrap(self, layer, span_name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name
            if span_name == "dummy.fit" and kwargs.get("weighted"):
                name = "dummy.fit_weighted"
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append({
                    "id": span_id, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "trace": self.trace_id,
                })
            self._count(span_name, result)
            return result
        return traced

    def _count(self, span_name, result):
        if span_name == "panel.basket":
            self.counts["panel.basket_pairs"] = len(result[1].pair_intersections)
        elif span_name == "simulate.run":
            self.counts["simulate.failed_reps"] = self.counts.get("simulate.failed_reps", 0) + sum(
                s.failures for s in result.summaries.values())

    def install(self):
        mods = [importlib.import_module(f"mplindex.{m}") for m in MODULES]
        for layer, func, span_name in TRACED:
            original = getattr(importlib.import_module(f"mplindex.{layer}"), func)
            wrapped = self._wrap(layer, span_name, original)
            for mod in mods:
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapped)

    def remove(self):
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()


def totals(spans):
    """Summed duration per span name, and self time per layer.

    A span's self time is its duration minus the durations of its direct
    children, so the layer self times add up to the traced wall time.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    total = {}
    self_time = {layer: 0.0 for layer in MODULES}
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        self_time[s["layer"]] += dur - child_time.get(s["id"], 0.0)
    return total, self_time
