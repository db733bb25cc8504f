"""In-memory spans and counters for the benchmark's traced passes.

Spans are recorded from the benchmark's own code, around each call into a
package module; nothing inside the package is instrumented.  A disabled
tracer records nothing, so the same pass can run with tracing off to
measure what tracing costs.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    end_ns: int


class Tracer:
    """Spans (name, start, end, parent) and named counts, kept in memory.

    One tracer serves one pass; its spans share the pass's trace id.
    """

    def __init__(self, trace_id: int = 0, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.trace_id = trace_id
        self._next_span_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self._next_span_id += 1
        span_id = self._next_span_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(self.trace_id, span_id, parent, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus what child spans cover.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover.
    """
    child_ns: defaultdict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] += s.end_ns - s.start_ns
    out: defaultdict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end_ns - s.start_ns - child_ns[s.span_id]) * 1e-9
    return dict(out)


def span_counts(spans: list[Span]) -> dict[str, int]:
    out: defaultdict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)
