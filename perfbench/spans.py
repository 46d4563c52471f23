"""In-memory spans and the self-time arithmetic over them.

A span records a name, its start and end (``time.perf_counter`` seconds)
and the span open when it began. A span's self time is its duration minus
the part of its interval that its direct children cover; a layer's self
time is the sum over spans whose name starts with ``<layer>.``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the caller
    asks for :meth:`to_json`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            self._open.pop()
            s.end = time.perf_counter()

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end}
                for s in self.spans
            ],
            "self_time_s": layer_self_times(self.spans),
        }


class NullTracer:
    """Same interface, records nothing: the untraced side of the
    tracing-overhead measurement."""

    @contextmanager
    def span(self, name: str):
        yield None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[s.id]
    return dict(sorted(totals.items()))
