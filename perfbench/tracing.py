"""Span recorder for the traced run, installed from the benchmark's files.

Each span holds a name, a start, an end and the index of its parent span.
Spans stay in memory and are written out once, when the run ends.  The
recorder is installed by replacing each public function of a semiq layer
module with a wrapper, in every semiq namespace that holds a reference to
it, so calls from one layer into another are recorded as well as calls from
the benchmark.  Private helpers (LindbladModel._rhs_mat,
Polynomial._evaluate_coords) are not wrapped; their time counts as the
self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("observables", "faq", "integrate", "quantize", "lindblad", "models", "cli")

# rk4_step runs once per classical RK4 step (hundreds of thousands of calls
# per round); its caller rk4_path is traced and a span per step would cost
# more than it tells.
UNTRACED = {"integrate.rk4_step"}
# Integrators whose first argument is a vector field defined by the caller
# (a drift closure inside faq or models).  Time spent in the field is
# counted, without a span per call, and moved from the integrator's self
# time to the caller's layer.
CALLBACK_TAKERS = {"integrate.rk4_path"}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.callback_time: dict[int, float] = {}

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def descendants(self, index: int) -> range:
        """Spans opened while `index` was open (they are numbered after it)."""
        end = index + 1
        while end < len(self.names) and self.starts[end] < self.ends[index]:
            end += 1
        return range(index + 1, end)

    def durations(self, name: str, under: int) -> list[float]:
        return [self.duration(j) for j in self.descendants(under) if self.names[j] == name]

    def self_times(self, under: int) -> dict[str, float]:
        """Self time per layer below `under`: span minus its child spans."""
        child_time = {}
        for j in self.descendants(under):
            parent = self.parents[j]
            child_time[parent] = child_time.get(parent, 0.0) + self.duration(j)
        totals = {layer: 0.0 for layer in LAYERS}
        for j in self.descendants(under):
            layer = self.names[j].split(".", 1)[0]
            callback = self.callback_time.get(j, 0.0)
            if layer in totals:
                totals[layer] += self.duration(j) - child_time.get(j, 0.0) - callback
            caller = self.names[self.parents[j]].split(".", 1)[0] if self.parents[j] >= 0 else None
            if caller in totals:
                totals[caller] += callback
        return totals

    def dump(self, path: Path):
        spans = [
            [name, start, end, parent, self.callback_time.get(index, 0.0)]
            for index, (name, start, end, parent)
            in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        fields = ["name", "start", "end", "parent", "callback_s"]
        path.write_text(json.dumps({"fields": fields, "spans": spans}))


def _wrap(recorder: SpanRecorder, span_name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return traced


def _wrap_integrator(recorder: SpanRecorder, span_name: str, fn):
    @functools.wraps(fn)
    def traced(field, *args, **kwargs):
        spent = 0.0

        def timed_field(t, y):
            nonlocal spent
            start = time.perf_counter()
            try:
                return field(t, y)
            finally:
                spent += time.perf_counter() - start

        index = recorder.open(span_name)
        try:
            return fn(timed_field, *args, **kwargs)
        finally:
            recorder.callback_time[index] = spent
            recorder.close(index)

    return traced


def install(recorder: SpanRecorder):
    """Wrap every public function of every layer; returns an undo callable.

    Modules are imported by full path: the package attribute
    `semiq.quantize` is the function quantize(), which shadows the module.
    """
    package = importlib.import_module("semiq")
    modules = {layer: importlib.import_module(f"semiq.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    replaced = []
    for layer, module in modules.items():
        for name in module.__all__:
            fn = getattr(module, name)
            span_name = f"{layer}.{name}"
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or span_name in UNTRACED:
                continue
            wrap = _wrap_integrator if span_name in CALLBACK_TAKERS else _wrap
            wrapper = wrap(recorder, span_name, fn)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        replaced.append((namespace, attr, fn))
                        setattr(namespace, attr, wrapper)

    def undo():
        for namespace, attr, fn in reversed(replaced):
            setattr(namespace, attr, fn)

    return undo
