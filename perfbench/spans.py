"""In-memory span tracer installed around pilevol's module-level functions.

The pipeline calls its stages through module attributes (for example
``pilevol.pipeline.robust_filter``), so rebinding those attributes to a
timing wrapper traces every call without touching the library.  Spans are
kept in a list and written out by the caller when the run ends; a layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span, -1 for a root
    capture: int = -1         # id of the capture the span belongs to
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``install`` rebinds module attributes to
    wrappers that open a span around each call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.capture = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               capture=self.capture))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(span, args, result)`` may attach
        work counts to the span after the call returns."""
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self.close(index)
        if count is not None:
            count(span, args, result)
        return result

    def install(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children.

    Children never overlap each other (one thread, nested calls), so the
    part of a span its children cover is the sum of their durations.
    """
    child_total = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_total[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - child_total[index]
    return dict(totals)


def count_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and the sum of every attached count."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] += value
    return {name: dict(entry) for name, entry in totals.items()}

