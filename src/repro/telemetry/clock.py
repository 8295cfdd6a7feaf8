"""Single home for clock reads.

Every timestamp in repro flows through this module.  ``monotonic()`` is
the only clock allowed in span and deadline arithmetic: it never steps
backwards under NTP adjustments, and readings taken on any thread are
directly comparable.
``wall()`` exists solely to anchor a monotonic trace to calendar time in
exported artifacts.

The REP008 clock-discipline lint rule enforces the split: wall-clock
reads (``time.time()``, ``datetime.now()``, ...) outside
``repro/telemetry/`` must carry a ``# repro: allow[clock-discipline]``
pragma with a justification.
"""

from __future__ import annotations

import time

__all__ = ["monotonic", "wall", "anchor"]


def monotonic() -> float:
    """Seconds on the system-wide monotonic clock."""
    return time.monotonic()


def wall() -> float:
    """Seconds since the epoch.  Only for anchoring exports to calendar
    time and stamping artifact metadata — never for durations or
    deadlines."""
    return time.time()


def anchor() -> tuple[float, float]:
    """A paired ``(monotonic, wall)`` reading.

    A telemetry session takes one at activation: the monotonic half is the
    trace origin, and the wall half lets exports recover calendar time.
    """
    return time.monotonic(), time.time()
