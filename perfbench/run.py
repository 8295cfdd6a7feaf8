"""The repository's benchmark: campaign workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload loop-glyph --seed 2021 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: for about
``--seconds`` in all it repeats the campaign, with repeated set-ups between
campaigns (``setup_s`` and ``campaign_s`` are the fastest of each).
``--trace 1`` runs the workload once untraced, as the reference, and once
with every layer's boundary functions traced (``layers.py``), and reports
each layer's calls, rows, self time and share of the traced wall time; then
it alternates untraced and traced campaigns for ``trace.overhead``.

Every run checks the program's outputs (``workloads.py``) and, when traced,
cross-checks the trace against the engine's ``QueryStats`` and telemetry
counters.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The process exits non-zero when any check fails.  See
``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Share of an untraced run's time spent repeating the set-up; campaigns
#: repeat for the rest.
SETUP_SHARE = 0.25
#: Fewest campaigns an untraced run makes, however long they take; each
#: campaign follows at least one set-up.
MIN_CAMPAIGNS = 2
#: One BLAS thread: the host is shared, and spinning BLAS workers make
#: wall time depend on the neighbours' load.  Set before NumPy loads.
BLAS_THREADS = "1"
#: Span capacity of the traced run's telemetry session; no span may drop.
TRACE_CAPACITY = 1 << 20
#: Untraced/traced campaign pairs a traced run times for ``trace.overhead``.
OVERHEAD_PAIRS = 3
#: ``trace.coverage`` below this fails the traced run.
MIN_COVERAGE = 0.9


def _host_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            threads = int(lib.scipy_openblas_get_num_threads64_())
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int):
    scenario = workload.make_scenario()
    return scenario, workload.construct(scenario, seed)


def measure(workload, seed: int, seconds: float, checks) -> tuple:
    """Untraced run: set-up and campaign times plus the first outcome."""
    start = time.perf_counter()
    setup_times, campaign_times, digests, first = [], [], [], None
    # set-ups are interleaved with the campaigns, so that their samples span
    # the whole run; another campaign starts only if it should end within
    # --seconds, judged by the last one, so a run overshoots by little
    while len(campaign_times) < MIN_CAMPAIGNS or (
        time.perf_counter() - start + campaign_times[-1] <= seconds
    ):
        while len(setup_times) <= len(campaign_times) or (
            sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start)
        ):
            t0 = time.perf_counter()
            scenario, runner = _setup(workload, seed)
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        outcome = workload.run(scenario, runner)
        campaign_times.append(time.perf_counter() - t0)
        workload.check(scenario, outcome, checks)
        digests.append(outcome.digest)
        first = first or outcome
    checks.check(
        len(set(digests)) == 1, f"repeated campaigns disagree: digests {digests}"
    )
    # the fastest sample of each: the work is deterministic, and neighbours
    # on a shared host only ever add time, in bursts that a median follows
    campaign_s = min(campaign_times)
    queries = first.fuzz_queries + first.assessment_queries
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "campaign_s": (campaign_s, "s"),
        "queries_per_s": (queries / campaign_s, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    # printed, not in the JSON: too few AEs per glyph campaign for a steady
    # ratio, and the fuzzing workload makes no assessment
    report = {
        "aes_per_kquery": (1000.0 * first.aes / first.fuzz_queries, "1/kquery"),
        "pmi_upper_final": (first.pmi_upper_final, "probability"),
        "setup_runs": (len(setup_times), "count"),
        "campaign_runs": (len(campaign_times), "count"),
        "digest": (first.digest, ""),
    }
    return metrics, report


def _campaign_s(workload, scenario, seed: int, tracing: bool) -> tuple:
    """Wall time and outcome of one campaign, traced or not."""
    from repro import telemetry
    from layers import Tracer

    runner = workload.construct(scenario, seed)
    with contextlib.ExitStack() as stack:
        if tracing:
            stack.enter_context(Tracer())
            stack.enter_context(telemetry.session(capacity=TRACE_CAPACITY))
        t0 = time.perf_counter()
        outcome = workload.run(scenario, runner)
        return time.perf_counter() - t0, outcome


def traced(workload, seed: int, checks) -> tuple:
    """An untraced warm-up, one traced run of set-up and campaign, then
    alternating untraced and traced campaigns for ``trace.overhead``."""
    from repro import telemetry
    from layers import ENGINE_COUNTERS, LAYERS, Tracer, breakdown

    # the first campaign warms lazy imports and allocator pools, and is the
    # untraced reference for the cross-checks
    scenario, runner = _setup(workload, seed)
    reference = workload.run(scenario, runner)
    workload.check(scenario, reference, checks)
    reference_stats = {f: getattr(reference.query_stats, f) for f in ENGINE_COUNTERS}
    reference_digest = reference.digest
    del scenario, runner, reference

    with Tracer() as tracer:
        with telemetry.session(capacity=TRACE_CAPACITY) as session:
            with telemetry.span("setup", "perfbench.phase"):
                scenario, runner = _setup(workload, seed)
            with telemetry.span("campaign", "perfbench.phase"):
                outcome = workload.run(scenario, runner)
    workload.check(scenario, outcome, checks)

    phases = {
        s.name: s.duration_s
        for s in session.spans.snapshot()
        if s.category == "perfbench.phase"
    }
    wall = phases["setup"] + phases["campaign"]
    result = breakdown(session)
    counters = session.metrics.to_dict()
    counted = {
        field: int(counters.get(name, {}).get("value", 0))
        for field, name in ENGINE_COUNTERS.items()
    }
    checks.check(result.dropped == 0, f"trace dropped {result.dropped} spans")
    checks.check(
        result.engine_fuzzing == reference_stats,
        f"trace {result.engine_fuzzing} != untraced QueryStats {reference_stats}",
    )
    checks.check(
        result.engine_all == counted,
        f"trace {result.engine_all} != telemetry counters {counted}",
    )
    checks.check(
        outcome.digest == reference_digest,
        f"traced digest {outcome.digest} != untraced {reference_digest}",
    )

    metrics = {}
    for layer in LAYERS:
        totals = result.layers[layer]
        metrics[f"{layer}.calls"] = (totals.calls, "count")
        metrics[f"{layer}.rows"] = (totals.rows, "rows")
        metrics[f"{layer}.self_s"] = (totals.self_s, "s")
        metrics[f"{layer}.share"] = (totals.self_s / wall, "ratio")

    stats = outcome.query_stats
    seeds = [r for campaign in tracer.campaigns for r in campaign.per_seed]
    rejected = sum(r.candidates_rejected_by_naturalness for r in seeds)
    proposals = result.layers["fuzzing.propose"].rows
    # core.workflow spans the loop's whole campaign, so its self time is
    # whatever no other layer covers; counting it would hide a missing layer
    coverage = (
        sum(t.self_s for t in result.layers.values())
        - result.layers["core.workflow"].self_s
    ) / wall
    metrics.update(
        {
            "engine.cache.hit_ratio": (stats.cache_hits / stats.rows_queried, "ratio"),
            "engine.model_calls_per_krow": (
                1000.0 * stats.model_calls / stats.rows_queried,
                "1/krow",
            ),
            "fuzzing.reject_ratio": (rejected / proposals, "ratio"),
            "fuzzing.detection_yield": (
                sum(r.adversarial_example is not None for r in seeds) / len(seeds),
                "ratio",
            ),
            "trace.coverage": (coverage, "ratio"),
        }
    )
    checks.check(
        coverage >= MIN_COVERAGE, f"trace.coverage {coverage:.3f} < {MIN_COVERAGE}"
    )
    digest = outcome.digest
    del session, tracer, outcome, seeds

    # the host's speed drifts, so one campaign a side cannot show the
    # tracing cost: pairs alternate which side runs first.  The session
    # above is dropped first; its live spans would slow the collector.
    times = {False: [], True: []}
    for pair in range(OVERHEAD_PAIRS):
        for tracing in (False, True) if pair % 2 == 0 else (True, False):
            seconds, repeat = _campaign_s(workload, scenario, seed, tracing)
            times[tracing].append(seconds)
            checks.check(
                repeat.digest == reference_digest,
                f"repeated campaigns disagree: {reference_digest} vs {repeat.digest}",
            )
    untraced_campaign_s = statistics.median(times[False])
    traced_campaign_s = statistics.median(times[True])
    metrics["trace.overhead"] = (traced_campaign_s / untraced_campaign_s, "ratio")

    report = {
        "spans": (result.spans, "count"),
        "traced_wall_s": (wall, "s"),
        "untraced_campaign_s": (untraced_campaign_s, "s"),
        "traced_campaign_s": (traced_campaign_s, "s"),
        "digest": (digest, ""),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    checks = Checks()
    print("host " + json.dumps(_host_record(), sort_keys=True))
    if args.trace:
        metrics, report = traced(workload, seed, checks)
    else:
        metrics, report = measure(workload, seed, args.seconds, checks)
    failed_ratio = checks.failed / checks.attempted
    print(f"workload {workload.name} seed {seed} trace {args.trace}")
    for name, (value, unit) in {**metrics, **report}.items():
        shown = f"{value:14.6g}" if isinstance(value, (int, float)) else f"{value:>14}"
        print(f"  {name:36s} {shown} {unit}")
    print(f"  {'failed_ratio':36s} {failed_ratio:14.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
