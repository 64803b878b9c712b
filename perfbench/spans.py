"""A small in-memory span recorder.

A span holds a name, start and end (``perf_counter`` seconds), the index
of its parent span and a trace id. A span opened with a trace id starts
a trace; any other span joins its parent's trace. The benchmark starts
one trace per command and one per ``run`` instance. Spans stay in
memory until ``dump`` writes them as JSON lines. A span's self time is
its duration minus the time its direct children cover; children never
overlap because the recorded pipeline is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name: str, start: float, parent: int | None, trace_id: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def begin(self, name: str, trace_id: str | None = None) -> int:
        """Open a span as a child of the innermost open span; returns its index."""
        parent = self._stack[-1] if self._stack else None
        if trace_id is None:
            trace_id = self.spans[parent].trace_id if parent is not None else "-"
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, trace_id))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            totals[span.name] += span.end - span.start - covered
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "trace_id": s.trace_id,
                        }
                    )
                    + "\n"
                )
