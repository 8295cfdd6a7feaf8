"""Counters, gauges, and log-bucketed histograms.

The registry is get-or-create by name so instrumentation sites never
need to pre-declare their metrics, and ``to_dict`` gives the JSON artifact
shape.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

# Geometric buckets from 1µs up to ~1074s (ratio 4): wide enough to hold
# both sub-millisecond chunk latencies and multi-minute campaign phases in
# one fixed shape.
DEFAULT_BOUNDS = tuple(1e-6 * (4.0**i) for i in range(16))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Last-observed value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed log-spaced buckets with count/sum/min/max."""

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _bucket_index(self, value: float) -> int:
        # Linear scan: 17 buckets, and instrumentation sites observe at
        # chunk/shard granularity, not per row.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Get-or-create metric store keyed by dotted name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, "gauge")

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        factory = Histogram if bounds is None else (lambda: Histogram(bounds))
        return self._get_or_create(name, factory, "histogram")

    def to_dict(self) -> dict:
        """JSON-ready snapshot, sorted by name for stable artifacts."""
        return {
            name: metric.to_dict() for name, metric in sorted(self._metrics.items())
        }
