"""REP008 — clock discipline: wall-clock reads live in ``repro.telemetry``.

Span durations, latency histograms and any deadline depend on which clock
a duration comes from.  ``time.time()`` is a wall clock: NTP slews it, DST
and manual adjustments step it, and a single wall-clock delta used as a
duration or timeout can be negative, or silently far off.  Start stamps and
the comparisons made against them must share one monotonic timebase.

The rule therefore funnels every clock read through
:mod:`repro.telemetry.clock` — ``clock.monotonic()`` for durations and
deadlines, ``clock.wall()`` for the few legitimate calendar-time uses
(registry ``created_at``/``updated_at`` metadata, trace origins).  Flagged
everywhere outside ``repro/telemetry/``:

* ``time.time()``, ``time.localtime()``, ``time.gmtime()``, ``time.ctime()``
  — raw wall-clock reads;
* ``datetime.now()``, ``datetime.utcnow()``, ``date.today()`` — the same
  hazard wearing a datetime object.

``time.monotonic()``/``perf_counter()`` are *not* flagged (they are safe for
durations; routing them through ``clock`` is a style preference, not an
invariant), and ``time.sleep`` is unrelated.  A genuinely calendar-facing
site outside the telemetry layer carries
``# repro: allow[clock-discipline]``.
"""

from __future__ import annotations

import ast

from ..walker import ModuleContext, Rule, register_rule

#: The single module allowed to read clocks directly.
EXEMPT_PATH_PART = "repro/telemetry/"

#: ``time.<attr>`` calls that read the wall clock.
TIME_WALL_ATTRS = frozenset({"time", "time_ns", "localtime", "gmtime", "ctime"})

#: ``datetime.<attr>`` / ``date.<attr>`` constructors that read the wall clock.
DATETIME_WALL_ATTRS = frozenset({"now", "utcnow", "today"})

#: Receiver names the datetime-shaped check applies to.
DATETIME_RECEIVERS = frozenset({"datetime", "date"})


@register_rule
class ClockDisciplineRule(Rule):
    """``time.time()`` can jump backwards under NTP adjustment, so durations
    and deadlines computed from it are occasionally negative or wildly long —
    flaky timeouts that reproduce never.  Wall-clock timestamps belong only
    in ``repro.telemetry`` (where humans read them); all arithmetic uses the
    monotonic clock.

    Example::

        start = time.time()
        ...
        if time.time() - start > budget_s:   # NTP step -> false timeout

    Fix::

        start = time.monotonic()
        if time.monotonic() - start > budget_s:
    """

    rule_id = "REP008"
    name = "clock-discipline"
    severity = "error"
    description = (
        "wall-clock read (time.time()/datetime.now()/...) outside "
        "repro.telemetry; durations and deadlines must use "
        "telemetry.clock.monotonic(), calendar metadata telemetry.clock.wall()"
    )

    def applies_to(self, path: str) -> bool:
        return EXEMPT_PATH_PART not in path

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if not isinstance(receiver, ast.Name):
            return
        if receiver.id == "time" and func.attr in TIME_WALL_ATTRS:
            ctx.report(
                self,
                node,
                f"time.{func.attr}() reads the wall clock — NTP slew or a "
                "clock step corrupts any duration or deadline derived from it",
                hint="use repro.telemetry.clock.monotonic() for durations, "
                "clock.wall() for calendar metadata; justify a raw read with "
                "# repro: allow[clock-discipline]",
            )
        elif receiver.id in DATETIME_RECEIVERS and func.attr in DATETIME_WALL_ATTRS:
            ctx.report(
                self,
                node,
                f"{receiver.id}.{func.attr}() reads the wall clock — the same "
                "step/slew hazard as time.time() in datetime form",
                hint="derive calendar values from repro.telemetry.clock.wall(); "
                "justify with # repro: allow[clock-discipline]",
            )


__all__ = ["ClockDisciplineRule"]
