"""Low-overhead structured tracing + metrics for the execution funnel.

Usage::

    from repro import telemetry

    with telemetry.session(policy.telemetry) as sess:
        with telemetry.span("campaign", "app", run_id=run_id):
            loop.run(...)
    if sess is not None:
        registry.save_telemetry(run_id, sess)

Instrumentation sites (engine, store, workflow) call
``telemetry.span/event/count/gauge/observe`` unconditionally — when no
session is active every call is a no-op, which is what keeps the
disabled path free and the enabled path under the 3% overhead budget
pinned by ``benchmarks/bench_telemetry.py``.

Telemetry never touches RNG state and never reorders work, so enabling
it is bit-identity-neutral (pinned by the equivalence suite).
"""

from .clock import anchor, monotonic, wall
from .export import (
    chrome_trace_events,
    metrics_document,
    read_trace,
    render_timeline,
    write_chrome_trace,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (
    TelemetrySession,
    active,
    count,
    enabled,
    event,
    gauge,
    observe,
    session,
    span,
)
from .spans import DEFAULT_CAPACITY, Span, TraceCollector

__all__ = [
    "Counter",
    "DEFAULT_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TelemetrySession",
    "TraceCollector",
    "active",
    "anchor",
    "chrome_trace_events",
    "count",
    "enabled",
    "event",
    "gauge",
    "metrics_document",
    "monotonic",
    "observe",
    "read_trace",
    "render_timeline",
    "session",
    "span",
    "wall",
    "write_chrome_trace",
    "write_trace",
]
