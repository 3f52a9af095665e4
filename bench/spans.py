"""In-memory spans recorded around the calls into each layer.

A span is ``(id, name, start, end, parent, attrs)``; all spans of one
traced run share the workload name as their identifier.  Spans live in
memory until the run ends and are written out once (``Tracer.to_doc``).
A span's *self time* is its duration minus the part of its interval its
children cover — children may overlap each other (two live workers
iterate concurrently), so coverage is the union of their intervals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id: int, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a tree of spans for one traced workload run."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), parent)
        s.attrs.update(attrs)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int,
            **attrs) -> Span:
        """Insert a span rebuilt from a result object's own timestamps."""
        s = Span(len(self.spans), name, start, parent)
        s.end = end
        s.attrs.update(attrs)
        self.spans.append(s)
        return s

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``, in seconds."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self) -> Dict[int, float]:
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo = max(c.start, cursor)
                hi = min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.duration - covered
        return out

    def to_doc(self) -> dict:
        self_t = self.self_times()
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "workload": self.workload,
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent,
                 "workload": self.workload,
                 "start_s": s.start - t0, "end_s": s.end - t0,
                 "self_s": self_t[s.id], "attrs": s.attrs}
                for s in self.spans
            ],
        }


class _NullSpan:
    """Stand-in yielded when tracing is off.

    ``attrs`` is one shared scratch dict: workloads annotate spans with
    a fixed set of keys, so it stays a handful of entries.
    """

    __slots__ = ()
    attrs: Dict[str, object] = {}
    id = -1


class NullTracer:
    """Tracing off: ``span`` costs one generator frame, records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[_NullSpan]:
        yield _NULL_SPAN


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()
