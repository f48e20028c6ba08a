"""Spans around calls into ivforest's public functions, recorded from outside.

A :class:`Tracer` replaces each named function with a wrapper in every
loaded ``ivforest`` module namespace that holds it, so calls made by the
CLI, by `ivforest.evaluate` and by the benchmark itself all pass
through the wrapper; the originals are restored when the tracer closes.
The program's own code is not changed.

Each call becomes a span ``(id, parent, name, start, end)`` kept in
memory. A layer's time in a phase (one set-up, one pass) is the summed
duration of its spans that are not nested inside another span of the same
layer: ``predict_forest_frame`` calls ``predict_forest_rows``, and that
inner call is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# qualified function -> the per-layer time metric its spans add to
LAYER_OF = {
    "simulate.simulate": "simulate.busy_s",
    "frame.load_csv": "frame.load_csv_s",
    "frame.load_feature_csv": "frame.load_csv_s",
    "frame.write_csv": "frame.write_csv_s",
    "frame.split": "frame.split_s",
    "linear.fit_linear": "linear.fit_s",
    "linear.predict_linear": "linear.predict_s",
    "linear.predict_linear_frame": "linear.predict_s",
    "kernel.fit_kernel": "kernel.fit_s",
    "kernel.select_bandwidth": "kernel.bandwidth_s",
    "kernel.default_grid": None,  # recorded for the grid-edge count only
    "kernel.predict_kernel_rows": "kernel.predict_s",
    "kernel.predict_kernel_frame": "kernel.predict_s",
    "forest.fit_forest": "forest.fit_s",
    "forest.oob_error": "forest.oob_s",
    "forest.predict_forest_rows": "forest.predict_s",
    "forest.predict_forest_frame": "forest.predict_s",
    "forest.forest_to_json": "forest.to_json_s",
    "forest.forest_from_json": "forest.from_json_s",
    "evaluate.evaluate": "evaluate.score_s",
    "evaluate.evaluate_frame": "evaluate.score_s",
}

# the subset an untraced grid pass wraps: it needs fit and predict time and
# the fitted models for its checks, nothing else
FIT_PREDICT = (
    "linear.fit_linear",
    "linear.predict_linear_frame",
    "kernel.fit_kernel",
    "kernel.predict_kernel_frame",
    "forest.fit_forest",
    "forest.predict_forest_frame",
)


class Tracer:
    """Span recorder for one process; use as a context manager."""

    def __init__(self, functions=tuple(LAYER_OF), capture: bool = False):
        self.functions = tuple(functions)
        self.capture = capture
        self.spans: list[dict] = []
        self.calls: list[tuple] = []  # (function, args, kwargs, result) of outermost calls
        self._stack: list[dict] = []
        self._restore: list[tuple] = []
        self._last_grid = None

    def __enter__(self) -> "Tracer":
        originals = {}
        for qual in self.functions:
            mod_name, fn_name = qual.split(".")
            module = importlib.import_module(f"ivforest.{mod_name}")
            originals[id(getattr(module, fn_name))] = (qual, getattr(module, fn_name))
        for name, module in list(sys.modules.items()):
            if name != "ivforest" and not name.startswith("ivforest."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    qual, fn = originals[id(value)]
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self._wrap(qual, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, qual: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": qual,
                "layer": LAYER_OF.get(qual),
            }
            span["nested"] = any(s["layer"] == span["layer"] for s in self._stack)
            outermost = all(s["name"] == "phase" for s in self._stack)
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._observe(span, qual, args, kwargs, result)
            if self.capture and outermost:
                self.calls.append((qual, args, kwargs, result))
            return result

        return wrapper

    def _observe(self, span: dict, qual: str, args, kwargs, result) -> None:
        counts = {}
        if qual == "forest.fit_forest":
            trees = result.center_trees + result.radius_trees
            counts["forest.nodes"] = sum(int(t.feature.size) for t in trees)
            counts["forest.leaves"] = sum(int((t.feature < 0).sum()) for t in trees)
        elif qual == "linear.fit_linear":
            counts["linear.active_constraints"] = len(result.active_constraints)
        elif qual == "kernel.default_grid":
            self._last_grid = result
        elif qual == "kernel.select_bandwidth":
            grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
            grid = self._last_grid if grid is None else grid
            edge = result in (float(min(grid)), float(max(grid)))
            counts["kernel.edge_bandwidths"] = int(edge)
        elif qual == "kernel.predict_kernel_rows" and result.extrapolated is not None:
            counts["kernel.extrapolated_rows"] = int(result.extrapolated.sum())
        if counts:
            span["counts"] = counts

    def phase(self, kind: str) -> "_Phase":
        """Context manager for one set-up or pass: a root span of its own."""
        return _Phase(self, kind)

    def layer_totals(self, phase_id: int) -> dict:
        """Per-layer time and counts of the spans under one phase span."""
        totals: dict = {}
        for span in self.spans[phase_id + 1:]:
            if not self._under(span, phase_id):
                continue
            if span["layer"] and not span["nested"]:
                totals[span["layer"]] = totals.get(span["layer"], 0.0) + (
                    span["end"] - span["start"]
                )
            for key, value in span.get("counts", {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _under(self, span: dict, ancestor: int) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False


class _Phase:
    def __init__(self, tracer: Tracer, kind: str):
        self.tracer = tracer
        self.kind = kind
        self.id = None

    def __enter__(self) -> "_Phase":
        t = self.tracer
        span = {"id": len(t.spans), "parent": None, "name": "phase", "kind": self.kind,
                "layer": None, "nested": False}
        t.spans.append(span)
        t._stack.append(span)
        span["start"] = time.perf_counter()
        self.id = span["id"]
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.id]["end"] = time.perf_counter()
        t._stack.pop()

    def totals(self) -> dict:
        return self.tracer.layer_totals(self.id)
