"""Session lifecycle and the instrumentation API.

Instrumentation sites call :func:`span` / :func:`event` / :func:`count` /
:func:`observe` unconditionally; when no session is active every call
resolves to a shared no-op handle, so disabled telemetry costs one
attribute load and a falsy check per site.  That is the mechanism behind
the <3% overhead guarantee — there is no per-site ``if policy.telemetry``
plumbing anywhere in the funnel.

Scoping: the active session lives in a :class:`contextvars.ContextVar`,
so nested sessions restore correctly.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Optional

from . import clock
from .metrics import MetricsRegistry
from .spans import DEFAULT_CAPACITY, Span, TraceCollector

__all__ = [
    "TelemetrySession",
    "session",
    "active",
    "enabled",
    "span",
    "event",
    "count",
    "gauge",
    "observe",
]


class TelemetrySession:
    """One campaign's worth of spans + metrics."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.spans = TraceCollector(capacity)
        self.metrics = MetricsRegistry()
        self.anchor_monotonic, self.anchor_wall = clock.anchor()


_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_telemetry_session", default=None
)


def active() -> Optional[TelemetrySession]:
    """The session active in the current context, if any."""
    return _ACTIVE.get()


def enabled() -> bool:
    return active() is not None


@contextmanager
def session(enabled: bool = True, capacity: int = DEFAULT_CAPACITY):
    """Activate a telemetry session for the duration of the block.

    ``enabled=False`` yields ``None`` and leaves every instrumentation
    site on the no-op path, so callers can write
    ``with telemetry.session(policy.telemetry) as sess:`` unconditionally.
    """
    if not enabled:
        yield None
        return
    sess = TelemetrySession(capacity)
    token = _ACTIVE.set(sess)
    try:
        yield sess
    finally:
        _ACTIVE.reset(token)


class _SpanHandle:
    """Live span: records itself on ``__exit__``."""

    __slots__ = ("_name", "_category", "_attrs", "_start")

    def __init__(self, name: str, category: str, attrs: Optional[dict]):
        self._name = name
        self._category = category
        self._attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> "_SpanHandle":
        if self._attrs is None:
            self._attrs = {}
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._start = clock.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = clock.monotonic() - self._start
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        _record(
            self._name, self._category, self._start, duration, self._attrs
        )


class _NullSpan:
    """Shared no-op handle returned when telemetry is off."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _record(
    name: str,
    category: str,
    start_s: float,
    duration_s: float,
    attrs: Optional[dict],
) -> None:
    sess = active()
    if sess is not None:
        sess.spans.record(
            Span(
                name=name,
                category=category,
                start_s=start_s,
                duration_s=duration_s,
                attrs=attrs,
            )
        )


def span(name: str, category: str = "app", **attrs):
    """A context manager timing the enclosed block; no-op when disabled."""
    if active() is None:
        return _NULL_SPAN
    return _SpanHandle(name, category, attrs or None)


def event(name: str, category: str = "event", **attrs) -> None:
    """A zero-duration span marking a point in time."""
    if active() is None:
        return
    _record(name, category, clock.monotonic(), 0.0, attrs or None)


def _registry() -> Optional[MetricsRegistry]:
    sess = active()
    return sess.metrics if sess is not None else None


def count(name: str, amount: float = 1.0) -> None:
    reg = _registry()
    if reg is not None:
        reg.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    reg = _registry()
    if reg is not None:
        reg.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    reg = _registry()
    if reg is not None:
        reg.histogram(name).observe(value)
