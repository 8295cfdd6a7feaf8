"""Span records and the preallocated ring-buffer collector.

A :class:`Span` is a closed interval on the monotonic timeline with a
name, a category (``app``, ``store``, ...) and a small free-form attribute
dict.  Spans are immutable once recorded.

:class:`TraceCollector` is the sink: a fixed-capacity preallocated list
used as a ring, so recording a span is an index assignment and never
allocates buffer storage on the hot path.  When the ring is full the
oldest spans are overwritten and ``dropped`` counts the loss — telemetry
degrades by forgetting history, never by blocking or growing without
bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["Span", "TraceCollector", "DEFAULT_CAPACITY"]

DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class Span:
    """One closed interval on the monotonic timeline."""

    name: str
    category: str
    start_s: float
    duration_s: float
    attrs: Optional[dict] = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def shifted(self, offset_s: float) -> "Span":
        """A copy translated along the timeline (trace rebasing)."""
        if offset_s == 0.0:
            return self
        return replace(self, start_s=self.start_s + offset_s)

    def to_dict(self) -> dict:
        """JSON-friendly record (the ``trace.jsonl`` per-span layout)."""
        record = {
            "name": self.name,
            "cat": self.category,
            "start_s": self.start_s,
            "dur_s": self.duration_s,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class TraceCollector:
    """Fixed-capacity span sink backed by a preallocated ring.

    ``record`` is O(1) and lock-guarded.  When full, the oldest span is
    overwritten and ``dropped`` is incremented.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: list = [None] * capacity
        self._next = 0
        self._count = 0
        self.dropped = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def record(self, span: Span) -> None:
        with self._lock:
            if self._count == self.capacity:
                self.dropped += 1
            else:
                self._count += 1
            self._ring[self._next] = span
            self._next = (self._next + 1) % self.capacity

    def _ordered(self) -> list:
        # Callers (snapshot/drain) hold self._lock; this helper only exists
        # to share the wraparound math between them.
        start = self._next - self._count  # repro: allow[lock-discipline]
        if start >= 0:
            return self._ring[start : self._next]  # repro: allow[lock-discipline]
        ring, stop = self._ring, self._next  # repro: allow[lock-discipline]
        return [ring[i % self.capacity] for i in range(start, stop)]

    def snapshot(self) -> list:
        """Spans in record order (oldest first); buffer is untouched."""
        with self._lock:
            return self._ordered()

    def drain(self) -> list:
        """Spans in record order; clears the buffer (keeps ``dropped``)."""
        with self._lock:
            out = self._ordered()
            self._ring = [None] * self.capacity
            self._next = 0
            self._count = 0
            return out
