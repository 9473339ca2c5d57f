"""In-memory span tracing around the public functions of each weakpol layer.

The tracer replaces every public function of a layer module under each name
an importing module bound it to (``weakpol.cli.coincidence_density`` and
``weakpol.measurement.coincidence_density`` are two bindings of one
function), so calls between layers are recorded without editing the
library. Spans are only recorded inside an operation's root span; calls made
while checking outputs pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager

LAYERS = ("cli", "measurement", "quasiprob", "linalg", "polarization")

# A call that returns normally but reports failure.
_FAILED_RESULT = {"cli.main": lambda code: code != 0}

# Span fields, stored as lists to keep a traced call cheap.
NAME, OP, PARENT, START, END, ERROR, CELLS = range(7)


class Tracer:
    """Collects spans (name, op, parent, start, end, error, cells) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        failed_result = _FAILED_RESULT.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, self._op, stack[-1], clock(), 0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            values = getattr(result, "values", None)
            if values is not None and hasattr(values, "size"):
                span[CELLS] = int(values.size)
            if failed_result is not None and failed_result(result):
                span[ERROR] = True
            return result

        return traced

    @contextmanager
    def op(self, index: int, name: str):
        """Root span of one operation; layer calls inside it become its children."""
        span = [name, index, -1, time.perf_counter_ns(), 0, False, 0]
        self._op = index
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()

    def install(self) -> None:
        """Swap every binding of each layer's public functions for a traced wrapper."""
        import weakpol

        modules = [importlib.import_module(f"weakpol.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[value] = self.wrap(f"{layer}.{name}", value)
        for module in (weakpol, *modules):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in self._saved:
            setattr(module, name, value)
        self._saved.clear()

    def write_jsonl(self, handle) -> None:
        handle.write(json.dumps(["id", "op", "parent", "name", "start_ns", "end_ns", "error"]) + "\n")
        for index, span in enumerate(self.spans):
            row = [index, span[OP], span[PARENT], span[NAME], span[START], span[END], span[ERROR]]
            handle.write(json.dumps(row) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-operation layer figures from the spans of the traced operations.

    Self time is a span's duration minus the durations of its children
    (children never overlap: the benchmark is single-threaded). Times are
    medians over traced operations, counts are means per operation, errors
    are totals.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]

    ops = sorted({span[OP] for span in spans if span[PARENT] < 0})
    per_op = {op: {layer: 0 for layer in LAYERS} for op in ops}
    deconvolve_ns = {op: 0 for op in ops}
    calls = {layer: 0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    cells = 0
    for index, span in enumerate(spans):
        if span[PARENT] < 0:
            continue
        layer = span[NAME].split(".", 1)[0]
        duration = span[END] - span[START]
        per_op[span[OP]][layer] += duration - child_ns[index]
        calls[layer] += 1
        errors[layer] += span[ERROR]
        if layer == "measurement":
            cells += span[CELLS]
        if span[NAME] == "quasiprob.deconvolve":
            deconvolve_ns[span[OP]] += duration

    n_ops = max(len(ops), 1)

    def median_ms(values) -> float:
        return statistics.median(values) / 1e6 if values else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / n_ops
        metrics[f"{layer}.self_ms"] = median_ms([per_op[op][layer] for op in ops])
        metrics[f"{layer}.errors"] = errors[layer]
    metrics["measurement.cells"] = cells / n_ops
    metrics["quasiprob.deconvolve_ms"] = median_ms(list(deconvolve_ns.values()))
    return metrics
