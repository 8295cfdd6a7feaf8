"""Telemetry overhead benchmark: observability must be close to free.

Runs a bulk workload (one big naturalness + ``predict_proba`` sweep
on the medium glyph scenario) with telemetry off and on through the
in-process query engine, and records the wall-time ratio and the result
checksums.  Each arm takes the **minimum of the sweeps repeated for
a fixed time**, and measurement rounds **alternate the arm order** (off→on,
on→off, …) keeping per-arm minima — the overhead bound is a property of the
instrumentation, so neither scheduling noise nor monotonic thermal drift
must be allowed to masquerade as telemetry cost.

Two properties are validator-enforced when the section is embedded in
``BENCH_fuzzer.json`` (see ``benchmarks/bench_fuzzer_snapshot.py``):

* ``overhead_ratio < 1.03`` — the telemetry-on run costs less than 3%
  extra wall time on every row;
* ``checksums_identical`` — telemetry on and off produce bit-identical
  results (the observability layer never perturbs the computation).

Standalone use::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [output.json]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.evaluation import make_glyph_scenario
from repro.runtime import ExecutionPolicy

SEED = 2021
BULK_ROWS = 2048
BATCH_SIZE = 256
#: Minimum over repeats on both arms: the bound is about instrumentation
#: cost, not scheduler jitter, and min is the standard noise-robust
#: statistic for it.  Each arm of a round repeats the sweep for at least
#: ARM_SECONDS, not a fixed count: the sweep takes ~50 ms, and the minimum
#: of a few such sweeps still moves by more than the 3% being gated.
ARM_SECONDS = 7.0
MIN_REPEATS = 5
#: The validator-enforced ceiling: telemetry adds <3% wall time.
MAX_OVERHEAD_RATIO = 1.03
#: A load spike or thermal drift during one arm's block inflates the ratio
#: even under a minimum over repeats (the two arms run as sequential
#: blocks, so sustained contention lands asymmetrically — and a host that warms
#: monotonically always penalises whichever arm runs second).  Two
#: defences: rounds alternate the arm order (off→on, then on→off, …) so
#: drift cancels, and since noise can only *inflate* a minimum, each round
#: keeps the per-arm minimum.  At least two rounds always run (one per
#: order); rounds continue while the ratio sits above COMFORT_RATIO, so a
#: row that ships stopped clear of the ceiling, not a rounding error away.
MIN_ROUNDS = 2
MAX_ROUNDS = 4
COMFORT_RATIO = 1.02


def _bulk(scenario) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    pool = scenario.operational_data.x
    picks = rng.integers(0, len(pool), size=BULK_ROWS)
    return np.clip(
        pool[picks] + rng.normal(0.0, 0.01, size=pool[picks].shape), 0.0, 1.0
    )


def _sweep(engine, bulk) -> tuple:
    start = time.perf_counter()
    naturalness = engine.score_naturalness(bulk)
    probs = engine.predict_proba(bulk)
    elapsed = time.perf_counter() - start
    return elapsed, float(naturalness.sum()) + float(probs.sum())


def _measure(engine, bulk) -> dict:
    """Fastest sweep of ARM_SECONDS of repeats, and the checksum, for one
    telemetry state.

    The first (untimed) sweep warms the engine — lazy imports and
    allocator pools are one-time costs, not the steady-state overhead this
    measures.
    """
    _sweep(engine, bulk)
    times, checksums = [], set()
    while len(times) < MIN_REPEATS or sum(times) < ARM_SECONDS:
        elapsed, checksum = _sweep(engine, bulk)
        times.append(elapsed)
        checksums.add(checksum)
    assert len(checksums) == 1, "bulk sweep is not deterministic"
    return {"wall_time_s": min(times), "checksum": checksums.pop(), "repeats": len(times)}


def _row(mode: str, scenario, policy: ExecutionPolicy) -> dict:
    bulk = _bulk(scenario)
    off_s = on_s = float("inf")
    rounds = 0
    repeats = []
    engine = scenario.query_engine(policy=policy)

    def measure_on():
        with telemetry.session() as sess:
            on = _measure(engine, bulk)
        return on, sess

    for rounds in range(1, MAX_ROUNDS + 1):
        if rounds % 2:
            off = _measure(engine, bulk)
            on, sess = measure_on()
        else:
            on, sess = measure_on()
            off = _measure(engine, bulk)
        checksum_identical = off["checksum"] == on["checksum"]
        repeats += [off["repeats"], on["repeats"]]
        off_s = min(off_s, off["wall_time_s"])
        on_s = min(on_s, on["wall_time_s"])
        if rounds >= MIN_ROUNDS and on_s / max(off_s, 1e-9) < COMFORT_RATIO:
            break
    ratio = on_s / max(off_s, 1e-9)
    return {
        "mode": mode,
        "rows": int(BULK_ROWS),
        # the fewest sweeps behind any arm's per-round minimum
        "repeats": min(repeats),
        "rounds": rounds,
        "telemetry_off_s": round(off_s, 4),
        "telemetry_on_s": round(on_s, 4),
        "overhead_ratio": round(ratio, 4),
        "checksums_identical": checksum_identical,
        "checksum": round(off["checksum"], 6),
        "spans_recorded": len(sess.spans),
        "metrics_recorded": len(sess.metrics),
    }


def telemetry_section() -> dict:
    scenario = make_glyph_scenario(
        num_samples=900, image_size=12, num_classes=10, epochs=10, rng=SEED
    )
    rows = [_row("in-process", scenario, ExecutionPolicy(batch_size=BATCH_SIZE))]
    return {
        "description": "bulk naturalness+predict sweep, telemetry on vs off "
        f"(min of {ARM_SECONDS:g} s of repeats per arm and round)",
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "rows": rows,
    }


def validate_telemetry_section(section: dict) -> None:
    """The two validator-enforced contracts: <3% overhead, bit-identity."""
    ceiling = float(section["max_overhead_ratio"])
    for row in section["rows"]:
        if not row["checksums_identical"]:
            raise AssertionError(
                f"telemetry perturbed the {row['mode']} results: checksums "
                "differ between on and off"
            )
        if row["overhead_ratio"] >= ceiling:
            raise AssertionError(
                f"telemetry overhead on {row['mode']} is "
                f"{(row['overhead_ratio'] - 1) * 100:.1f}% "
                f"(ceiling {(ceiling - 1) * 100:.0f}%)"
            )
        if row["metrics_recorded"] <= 0:
            raise AssertionError(
                f"the telemetry-on {row['mode']} arm recorded no metrics — "
                "the instrumentation is not reaching the session"
            )


def main(output: str | None = None) -> dict:
    section = telemetry_section()
    validate_telemetry_section(section)
    print(json.dumps(section, indent=2))
    if output:
        Path(output).write_text(json.dumps(section, indent=2) + "\n")
        print(f"\nwrote {Path(output).resolve()}")
    return section


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default=None)
    main(parser.parse_args().output)
