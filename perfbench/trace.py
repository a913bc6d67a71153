"""In-memory spans recorded from the benchmark's own call sites.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` indexes
the enclosing span (-1 at top level) and ``op`` is the composite
operation it belongs to (-1 outside the op loop).  Spans are named after
the per-layer metric they feed, so the metric is simply the median
duration of the spans carrying its name.  ``NullTracer`` is what the
untraced run passes to the same code.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Tuple

from .stats import median


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False
    op_id = -1

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def value(self, name: str, value: float) -> None:
        pass

    def count(self, name: str, value: float) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "start", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else -1
        tracer.spans.append([self.name, 0, 0, parent, tracer.op_id])
        tracer._open.append(self.index)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter_ns()
        tracer = self.tracer
        record = tracer.spans[self.index]
        record[1], record[2] = self.start, end
        tracer._open.pop()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self.op_id = -1
        #: directly measured samples (already in the metric's unit) and
        #: counts, for numbers that are not a span's duration.
        self.values: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def durations(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for name, start, end, _parent, _op in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: sample count, median duration and median self
        time (duration minus what the direct child spans cover)."""
        covered = [0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: Dict[str, Tuple[List[int], List[int]]] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            total, own = by_name.setdefault(name, ([], []))
            total.append(end - start)
            own.append(end - start - covered[index])
        return {name: {"n": len(total), "median_ns": median(total),
                       "self_median_ns": median(own)}
                for name, (total, own) in sorted(by_name.items())}

    def dump(self, path: Any, header: Dict[str, Any]) -> None:
        with open(path, "w") as handle:
            json.dump({**header,
                       "span_fields": ["name", "start_ns", "end_ns",
                                       "parent", "op"],
                       "summary": self.summary(), "spans": self.spans},
                      handle, separators=(",", ":"))
