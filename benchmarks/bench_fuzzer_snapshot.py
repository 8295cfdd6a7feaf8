"""Reproducible before→after snapshot of the fuzzing/attack hot paths.

Runs the same fixed-seed campaign through the sequential reference fuzzer
("before") and the batched population engine ("after"), plus the vectorised
black-box attacks and a ``telemetry_overhead`` section (observability costs
<3% and never perturbs results, see ``bench_telemetry.py``), and writes
``BENCH_fuzzer.json`` at the repository root so the throughput trajectory
is tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_fuzzer_snapshot.py [output.json]

Deliberately small (tens of seconds end to end) so it can run in CI; the
wall-clock numbers are indicative, while the model-call counts are exact
and machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# the snapshot is both executed directly and loaded via runpy (CI validates
# the committed file that way), and only the former puts benchmarks/ on the
# module search path
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_telemetry import telemetry_section, validate_telemetry_section  # noqa: E402

from repro.attacks import BoundaryNudge, GaussianNoise, RandomFuzz
from repro.evaluation import make_clusters_scenario
from repro.fuzzing import FuzzerConfig, OperationalFuzzer

SEED = 2021
NUM_SEEDS = 40
BUDGET = 1200
QUERIES_PER_SEED = 30


def _fuzz_once(scenario, execution: str) -> dict:
    config = FuzzerConfig(
        epsilon=0.12,
        queries_per_seed=QUERIES_PER_SEED,
        naturalness_threshold=0.3,
        execution=execution,
    )
    fuzzer = OperationalFuzzer(
        naturalness=scenario.naturalness,
        config=config,
        natural_pool=scenario.operational_data.x,
    )
    seeds = scenario.operational_data.x[:NUM_SEEDS]
    labels = scenario.operational_data.y[:NUM_SEEDS]
    start = time.perf_counter()
    campaign = fuzzer.fuzz(
        scenario.model, seeds, labels, budget=BUDGET, rng=SEED
    )
    elapsed = time.perf_counter() - start
    stats = fuzzer.last_query_stats
    return {
        "execution": execution,
        "wall_time_s": round(elapsed, 4),
        "queries": campaign.total_queries,
        "queries_per_s": round(campaign.total_queries / max(elapsed, 1e-9), 1),
        "model_calls": stats.model_calls + stats.gradient_calls,
        "naturalness_calls": stats.naturalness_calls,
        "detection_rate": round(campaign.detection_rate, 4),
        "aes_found": len(campaign.adversarial_examples),
    }


def _attacks_once(scenario) -> dict:
    x = scenario.operational_data.x[:64]
    y = scenario.operational_data.y[:64]
    out = {}
    for attack in (
        RandomFuzz(epsilon=0.1, num_trials=20),
        GaussianNoise(epsilon=0.1, num_trials=10),
        BoundaryNudge(epsilon=0.1),
    ):
        start = time.perf_counter()
        result = attack.run(scenario.model, x, y, rng=SEED)
        elapsed = time.perf_counter() - start
        out[attack.name] = {
            "wall_time_s": round(elapsed, 4),
            "queries": result.queries,
            "queries_per_s": round(result.queries / max(elapsed, 1e-9), 1),
            "success_rate": round(result.success_rate, 4),
        }
    return out


def _validate_snapshot(path: Path) -> None:
    """Re-read the written snapshot: it must stay parseable and complete,
    and its telemetry section must still meet its gates."""
    snapshot = json.loads(path.read_text())
    for key in (
        "benchmark",
        "config",
        "fuzzer",
        "attacks_batched",
        "telemetry_overhead",
    ):
        if key not in snapshot:
            raise AssertionError(f"snapshot is missing the {key!r} section")
    validate_telemetry_section(snapshot["telemetry_overhead"])


def main(output: str = "BENCH_fuzzer.json") -> dict:
    scenario = make_clusters_scenario(rng=SEED)
    before = _fuzz_once(scenario, "sequential")
    after = _fuzz_once(scenario, "population")
    snapshot = {
        "benchmark": "fuzzer-engine-snapshot",
        "config": {
            "seed": SEED,
            "num_seeds": NUM_SEEDS,
            "budget": BUDGET,
            "queries_per_seed": QUERIES_PER_SEED,
        },
        "fuzzer": {
            "before_sequential": before,
            "after_population": after,
            "speedup_wall_time": round(
                before["wall_time_s"] / max(after["wall_time_s"], 1e-9), 2
            ),
            "model_call_reduction": round(
                before["model_calls"] / max(after["model_calls"], 1), 2
            ),
        },
        "attacks_batched": _attacks_once(scenario),
        "telemetry_overhead": telemetry_section(),
    }
    path = Path(output)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    _validate_snapshot(path)
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {path.resolve()}")
    return snapshot


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="BENCH_fuzzer.json")
    args = parser.parse_args()
    main(args.output)
