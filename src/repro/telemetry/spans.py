"""Span records and the bounded ring collector.

A :class:`Span` is a closed interval on the monotonic timeline with a
name, a category (``app``, ``store``, ...) and a small free-form attribute
dict.  Spans are immutable once recorded.

:class:`TraceCollector` is the sink: a ``collections.deque`` bounded at
``capacity``, so recording a span is one append.  When the ring is full
the oldest spans fall off and ``dropped`` counts the loss — telemetry
degrades by forgetting history, never by blocking or growing without
bound.
"""

from __future__ import annotations

from collections import deque
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
    """Fixed-capacity span sink backed by a bounded deque.

    ``record`` is O(1).  When full, the oldest span is discarded and
    ``dropped`` is incremented.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, span: Span) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span)

    def snapshot(self) -> list:
        """Spans in record order (oldest first); buffer is untouched."""
        return list(self._ring)

    def drain(self) -> list:
        """Spans in record order; clears the buffer (keeps ``dropped``)."""
        out = list(self._ring)
        self._ring.clear()
        return out
