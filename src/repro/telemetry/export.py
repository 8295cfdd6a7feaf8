"""Durable trace/metric artifacts and renderers.

``trace.jsonl`` layout: a header object on line 1 —

    {"version": 1, "origin_monotonic": ..., "origin_wall": ...,
     "dropped": N, "spans": M}

— then one JSON object per span with ``start_s`` rebased so the
session's activation is t=0.  ``origin_wall`` lets readers recover
calendar time; everything else stays on the monotonic timeline.

Two renderers consume a loaded trace: :func:`chrome_trace_events` emits
Chrome trace-event JSON (load the file in Perfetto / ``chrome://tracing``)
and :func:`render_timeline` draws an ASCII occupancy chart for
``python -m repro trace <run>``.
"""

from __future__ import annotations

import json
from typing import IO, List, Tuple

from .runtime import TelemetrySession
from .spans import Span

__all__ = [
    "TRACE_VERSION",
    "trace_header",
    "write_trace",
    "read_trace",
    "metrics_document",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_timeline",
]

TRACE_VERSION = 1


def trace_header(session: TelemetrySession, span_count: int) -> dict:
    return {
        "version": TRACE_VERSION,
        "origin_monotonic": session.anchor_monotonic,
        "origin_wall": session.anchor_wall,
        "dropped": session.spans.dropped,
        "spans": span_count,
    }


def write_trace(fp: IO[str], session: TelemetrySession) -> int:
    """Write header + spans (rebased to session start, time-ordered).

    Returns the number of spans written.
    """
    origin = session.anchor_monotonic
    spans = sorted(session.spans.snapshot(), key=lambda s: s.start_s)
    fp.write(json.dumps(trace_header(session, len(spans))) + "\n")
    for s in spans:
        fp.write(json.dumps(s.shifted(-origin).to_dict()) + "\n")
    return len(spans)


def read_trace(fp: IO[str]) -> Tuple[dict, List[Span]]:
    """Parse a ``trace.jsonl`` stream back into (header, spans).

    Span ``start_s`` values are relative to the trace origin (t=0).  Span
    keys this reader does not use (such as the ``proc``/``worker`` lane of
    older traces) are ignored.
    """
    header_line = fp.readline()
    if not header_line.strip():
        raise ValueError("empty trace file")
    header = json.loads(header_line)
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r}"
        )
    spans = []
    for line in fp:
        if not line.strip():
            continue
        rec = json.loads(line)
        spans.append(
            Span(
                name=rec["name"],
                category=rec["cat"],
                start_s=rec["start_s"],
                duration_s=rec["dur_s"],
                attrs=rec.get("attrs"),
            )
        )
    return header, spans


def metrics_document(session: TelemetrySession) -> dict:
    """The ``metrics.json`` artifact body."""
    return {
        "version": TRACE_VERSION,
        "origin_wall": session.anchor_wall,
        "spans_recorded": len(session.spans),
        "spans_dropped": session.spans.dropped,
        "metrics": session.metrics.to_dict(),
    }


# -- Chrome trace-event export ------------------------------------------


def chrome_trace_events(header: dict, spans: List[Span]) -> List[dict]:
    """Chrome trace-event objects (``ph: X`` complete events, µs units)."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro campaign"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "coordinator"},
        },
    ]
    for s in spans:
        event = {
            "name": s.name,
            "cat": s.category,
            "ph": "X",
            "ts": s.start_s * 1e6,
            "dur": s.duration_s * 1e6,
            "pid": 1,
            "tid": 0,
        }
        if s.attrs:
            event["args"] = s.attrs
        events.append(event)
    return events


def write_chrome_trace(fp: IO[str], header: dict, spans: List[Span]) -> None:
    json.dump(
        {
            "traceEvents": chrome_trace_events(header, spans),
            "displayTimeUnit": "ms",
            "otherData": {"origin_wall": header.get("origin_wall")},
        },
        fp,
    )


# -- ASCII timeline ------------------------------------------------------


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.2f}ms"


def _occupancy_bar(spans: List[Span], end_s: float, width: int) -> str:
    cells = [0.0] * width
    cell_w = end_s / width if end_s > 0 else 1.0
    for s in spans:
        lo = max(0, min(width - 1, int(s.start_s / cell_w)))
        hi = max(0, min(width - 1, int(s.end_s / cell_w)))
        for i in range(lo, hi + 1):
            cell_lo, cell_hi = i * cell_w, (i + 1) * cell_w
            overlap = min(s.end_s, cell_hi) - max(s.start_s, cell_lo)
            if overlap > 0 or s.duration_s == 0.0:
                cells[i] += max(overlap, 0.0)
    out = []
    for filled in cells:
        frac = filled / cell_w
        if frac <= 0.0:
            out.append("·")
        elif frac < 0.5:
            out.append("░")
        elif frac < 0.95:
            out.append("▒")
        else:
            out.append("█")
    return "".join(out)


def render_timeline(header: dict, spans: List[Span], width: int = 64) -> str:
    """Occupancy chart + category summary."""
    lines: List[str] = []
    if not spans:
        lines.append("trace is empty (0 spans)")
        if header.get("dropped"):
            lines.append(f"spans dropped (ring full): {header['dropped']}")
        return "\n".join(lines)

    end_s = max(s.end_s for s in spans)
    lines.append(
        f"trace: {len(spans)} spans over {_format_seconds(end_s)}"
        + (
            f"  (dropped {header['dropped']} — ring full)"
            if header.get("dropped")
            else ""
        )
    )
    lines.append("")

    # Occupancy of the one lane every span runs on.
    lane = "coordinator"
    busy = sum(s.duration_s for s in spans)
    lines.append(
        f"{lane} |{_occupancy_bar(spans, end_s, width)}| "
        f"{len(spans)} spans, busy {_format_seconds(busy)}"
    )
    lines.append(f"{'':<{len(lane)}}  0{'':<{width - 2}}{_format_seconds(end_s)}")
    lines.append("")

    # Category summary.
    cats = {}
    for s in spans:
        count, total = cats.get(s.category, (0, 0.0))
        cats[s.category] = (count + 1, total + s.duration_s)
    lines.append(f"{'category':<12} {'spans':>6} {'total':>10}")
    for cat in sorted(cats, key=lambda c: -cats[c][1]):
        count, total = cats[cat]
        lines.append(f"{cat:<12} {count:>6} {_format_seconds(total):>10}")
    return "\n".join(lines)
