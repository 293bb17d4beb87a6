"""In-memory span tracer that wraps advmean's public functions from outside.

Every public function defined in an ``advmean`` module is replaced, in every
``advmean`` module namespace that binds it, by a wrapper that records one
span per call.  Calls made through a module's globals (for example
``harness.sample`` from the trial loop, or ``distribution.standard_trim``
from ``epsilon``) therefore show up; private helpers (``_bisect_skew``,
``cli._cmd_*``) and locally bound closures do not, so their time counts as
self time of the public function that called them.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, and ``op`` is the operation id that the benchmark sets
before each report-producing call.  Self time of a span is its duration minus
the durations of its direct children; the benchmark runs single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict


def _layer_name(fn) -> str:
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn):
        name = _layer_name(fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules) -> None:
        """Wrap every public advmean function bound in ``modules``."""
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("advmean.")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._undo.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def mark(self) -> int:
        """Position in the span list, for :meth:`aggregate` windows."""
        return len(self.spans)

    def aggregate(self, lo: int = 0, hi: int | None = None) -> dict:
        """``{name: [calls, self_s]}`` over the spans in ``[lo, hi)``."""
        window = self.spans[lo:hi]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in window:
            if parent >= lo:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for offset, (name, start, end, _, _) in enumerate(window):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[lo + offset]
        return dict(totals)

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
