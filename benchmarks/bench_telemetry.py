"""Telemetry overhead benchmark: observability must be close to free.

Runs a bulk workload (one big naturalness + ``predict_proba`` sweep
on the medium glyph scenario) with telemetry off and on through the
in-process query engine, and records the wall-time ratio and the result
checksums.  The two arms are timed **sweep by sweep, interleaved**: each
pair runs one sweep with telemetry off and one with it on, back to back,
and the order alternates from pair to pair (off→on, on→off, …).  The
overhead is the **median of the per-pair on/off ratios**.  A load spike or
a slow drift of the shared host then lands on both sweeps of a pair alike
and cancels in its ratio, and the median ignores the pairs it does not
cancel in; the bound is a property of the instrumentation, so host noise
must not masquerade as telemetry cost.

Two properties are validator-enforced when the section is embedded in
``BENCH_fuzzer.json`` (see ``benchmarks/bench_fuzzer_snapshot.py``):

* ``overhead_ratio < 1.03`` — the telemetry-on run costs less than 3%
  extra wall time on every row;
* ``checksums_identical`` — telemetry on and off produce bit-identical
  results (the observability layer never perturbs the computation).

In a row, ``rounds`` counts the off/on pairs and ``repeats`` the sweeps of
each arm (one per pair); ``telemetry_off_s`` and ``telemetry_on_s`` are
each arm's median sweep.

Standalone use::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [output.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.evaluation import make_glyph_scenario
from repro.runtime import ExecutionPolicy

SEED = 2021
BULK_ROWS = 2048
BATCH_SIZE = 256
#: Timed sweeps of both arms add up to at least MEASURE_SECONDS: four of the
#: old 7 s arm blocks.  A sweep takes ~45 ms, so that is ~300 pairs.
MEASURE_SECONDS = 28.0
MIN_PAIRS = 10
#: The validator-enforced ceiling: telemetry adds <3% wall time.
MAX_OVERHEAD_RATIO = 1.03


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


def _sweep_on(engine, bulk) -> tuple:
    """One sweep inside a fresh telemetry session; the session comes back
    for its record counts.  Opening and closing it falls outside the timed
    region."""
    with telemetry.session() as sess:
        elapsed, checksum = _sweep(engine, bulk)
    return elapsed, checksum, sess


def _row(mode: str, scenario, policy: ExecutionPolicy) -> dict:
    bulk = _bulk(scenario)
    engine = scenario.query_engine(policy=policy)
    # one untimed sweep per arm warms the engine: lazy imports and allocator
    # pools are one-time costs, not the steady-state overhead this measures
    _sweep(engine, bulk)
    _sweep_on(engine, bulk)

    off_times, on_times, ratios = [], [], []
    checksums = {"off": set(), "on": set()}
    while len(ratios) < MIN_PAIRS or sum(off_times) + sum(on_times) < MEASURE_SECONDS:
        if len(ratios) % 2:  # on→off
            on_s, on_sum, sess = _sweep_on(engine, bulk)
            off_s, off_sum = _sweep(engine, bulk)
        else:  # off→on
            off_s, off_sum = _sweep(engine, bulk)
            on_s, on_sum, sess = _sweep_on(engine, bulk)
        off_times.append(off_s)
        on_times.append(on_s)
        ratios.append(on_s / max(off_s, 1e-9))
        checksums["off"].add(off_sum)
        checksums["on"].add(on_sum)
    assert len(checksums["off"]) == 1, "bulk sweep is not deterministic"
    checksum = checksums["off"].pop()
    return {
        "mode": mode,
        "rows": int(BULK_ROWS),
        "repeats": len(off_times),
        "rounds": len(ratios),
        "telemetry_off_s": round(statistics.median(off_times), 4),
        "telemetry_on_s": round(statistics.median(on_times), 4),
        "overhead_ratio": round(statistics.median(ratios), 4),
        "checksums_identical": checksums["on"] == {checksum},
        "checksum": round(checksum, 6),
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
        f"(median of the on/off ratios of interleaved sweep pairs, "
        f"{MEASURE_SECONDS:g} s of sweeps)",
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
