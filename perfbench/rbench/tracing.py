"""Benchmark-side spans: kept in memory, written out when the run ends.

A span is ``(name, start, end, parent, request id)``; ``parent`` is the
index of the enclosing span in :attr:`Tracer.spans` (``None`` for a
request root).  The benchmark opens one span around each call into a
layer of the program; nothing inside the program is instrumented.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from collections.abc import Iterator
from typing import NamedTuple

_NULL = contextlib.nullcontext()


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    rid: str


class Tracer:
    """Single-threaded span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: list[tuple[str, str, float]] = []
        self._stack: list[int] = []

    def span(self, name: str, rid: str):
        if not self.enabled:
            return _NULL
        return self._span(name, rid)

    @contextlib.contextmanager
    def _span(self, name: str, rid: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append(Span(name, start, start, parent, rid))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = Span(name, start, time.perf_counter(), parent, rid)

    def count(self, name: str, rid: str, value: float) -> None:
        """Record a per-request count (not a time) at a layer boundary."""
        if self.enabled:
            self.counts.append((name, rid, value))

    def write(self, path) -> None:
        """Write every span and count as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")
            for name, rid, value in self.counts:
                fh.write(json.dumps({"count": name, "rid": rid, "value": value}))
                fh.write("\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover (seconds)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def per_request(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Layer name -> request id -> summed self time in ms."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        out[span.name][span.rid] += own * 1e3
    return out


def layer_medians(spans: list[Span], rids: set[str] | None = None) -> dict[str, float]:
    """Median per-request self time (ms) of each layer, over ``rids`` if given."""
    out = {}
    for name, by_rid in per_request(spans).items():
        values = [v for rid, v in by_rid.items() if rids is None or rid in rids]
        if values:
            out[name] = statistics.median(values)
    return out


def _descendants(spans: list[Span], root: int) -> set[int]:
    found = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in found:
            found.add(i)
    found.discard(root)
    return found


def coverage(spans: list[Span], whole: str, parts: str) -> float | None:
    """Sum of the self times under each ``parts`` span over the ``whole`` spans.

    ``whole`` times the program's own end-to-end call for a request and
    ``parts`` wraps the benchmark's layer-by-layer replay of the same
    request; a value near 1 means the layer spans account for the whole.
    Only requests carrying both spans count.
    """
    own = self_times(spans)
    whole_s: dict[str, float] = {}
    parts_s: dict[str, float] = {}
    for i, span in enumerate(spans):
        if span.name == whole:
            whole_s[span.rid] = whole_s.get(span.rid, 0.0) + span.end - span.start
        elif span.name == parts:
            below = sum(own[j] for j in _descendants(spans, i))
            parts_s[span.rid] = parts_s.get(span.rid, 0.0) + below
    both = whole_s.keys() & parts_s.keys()
    denominator = sum(whole_s[r] for r in both)
    if not denominator:
        return None
    return sum(parts_s[r] for r in both) / denominator


def count_medians(counts: list[tuple[str, str, float]]) -> dict[str, float]:
    """Median over requests of each per-request count."""
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, rid, value in counts:
        by_name[name][rid] += value
    return {name: statistics.median(v.values()) for name, v in by_name.items()}


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float, float]]:
    """Rows of (layer, requests, median ms, p90 ms, share of all self time)."""
    grouped = per_request(spans)
    total = sum(sum(v.values()) for v in grouped.values()) or 1.0
    rows = []
    for name in sorted(grouped, key=lambda k: -sum(grouped[k].values())):
        values = sorted(grouped[name].values())
        p90 = values[min(len(values) - 1, int(0.9 * len(values)))]
        share = sum(values) / total
        rows.append((name, len(values), statistics.median(values), p90, share))
    return rows
