"""The benchmark's own spans: name, start, end, parent, workload, op id.

The traced pass wraps each call into a layer's public functions in one
of these.  Spans stay in memory and are written once, at exit.  A span's
*self time* is its duration minus the part its direct children cover, so
a root span's children plus its self time equal its wall time exactly.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("tracer", "name", "op", "id", "parent", "start")

    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append(
            (self.id, self.name, self.start, end, self.parent, self.op)
        )
        return False


class Tracer:
    """In-memory span recorder for one workload's traced pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op)
        self._local = threading.local()
        self._ids = itertools.count(1)   # next() is atomic under the GIL

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: int | None = None) -> _Span:
        """Context manager timing one region; nests under the span open
        on this thread.  ``op`` is the operation (epoch/request) id."""
        return _Span(self, name, op)

    def add(self, name: str, start: float, end: float,
            op: int | None = None) -> None:
        """Record a span timed elsewhere (a request, from due to done)."""
        self.spans.append((next(self._ids), name, start, end, None, op))

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def op_trees(self, root: str) -> list[dict]:
        """Per ``root`` span: wall, summed direct-child seconds by name,
        and the root's self time (wall minus children)."""
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)
        trees = []
        for s in self.spans:
            if s[1] != root:
                continue
            parts = defaultdict(float)
            for c in children.get(s[0], ()):
                parts[c[1]] += c[3] - c[2]
            wall = s[3] - s[2]
            trees.append({"op": s[5], "wall": wall, "parts": dict(parts),
                          "self": wall - sum(parts.values())})
        return trees

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "workload": self.workload,
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": self.spans,
            }, fh)

