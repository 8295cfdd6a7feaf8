"""``python -m repro`` — run, resume and query testing campaigns.

The service surface over the campaign store:

``run``
    Run a campaign described by a declarative
    :class:`repro.runtime.CampaignSpec` — from a JSON/TOML file
    (``--spec campaign.json``), from a stored run's recorded spec
    (``--from-run run-0001``), or assembled from the legacy per-flag
    options.  Whichever way the spec arrives, it is recorded **verbatim**
    in the run registry (``run.json`` → ``config.spec``), so every stored
    run is reproducible from its spec alone.
``resume``
    Pick up an interrupted run from its checkpoint.  The campaign is
    rebuilt from the recorded spec (same seed), so the resumed campaign
    continues bit-identically.
``ls``
    List registered runs (``--json`` for machine-readable output).
``show``
    Render one stored run (campaign spec, stats, iteration table,
    estimates, fault counters, telemetry summary).
``trace``
    Render the shard/worker timeline of a telemetry-enabled run from its
    stored ``trace.jsonl`` (``--chrome`` exports a Perfetto-loadable
    trace-event file, ``--json`` dumps the raw header + spans).
``gc``
    Delete stored runs by status and/or count.

Every command takes ``--runs-dir`` (default: ``./repro-runs``, overridable
via ``REPRO_RUNS_DIR``), so several hosts can share one registry directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..config import default_runs_dir
from ..exceptions import CheckpointMismatchError, ReproError, StoreError
from .registry import RUN_STATUSES, RunRegistry, StoredRun


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and query operational-testing campaigns.",
        epilog="The static invariant linter lives under its own verb: "
        "`python -m repro lint --help` (see repro.analysis).",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        help="run-registry root (default: ./repro-runs or $REPRO_RUNS_DIR)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a campaign")
    run.add_argument("--spec", default=None, metavar="PATH",
                     help="declarative campaign spec (JSON, or TOML by suffix); "
                          "overrides the per-flag options below")
    run.add_argument("--from-run", default=None, metavar="RUN_ID",
                     help="re-launch a new campaign from a stored run's spec")
    run.add_argument("--name", default=None, help="registry name (default: scenario)")
    run.add_argument("--scenario", default="two-moons",
                     help="scenario name (see repro.evaluation.available_scenarios)")
    run.add_argument("--seed", type=int, default=2021, help="campaign RNG seed")
    run.add_argument("--samples", type=int, default=None,
                     help="scenario dataset size override (smaller = faster)")
    run.add_argument("--epochs", type=int, default=None,
                     help="scenario model-training epochs override")
    run.add_argument("--iterations", type=int, default=3, help="loop iteration cap")
    run.add_argument("--budget", type=int, default=300,
                     help="fuzzing query budget per iteration")
    run.add_argument("--seeds-per-iteration", type=int, default=10)
    run.add_argument("--queries-per-seed", type=int, default=20)
    run.add_argument("--target-pmi", type=float, default=0.02)
    run.add_argument("--engine", default=None,
                     choices=("sequential", "population", "sharded"),
                     help="execution for the whole loop (sharded selects the "
                          "replicated multi-worker backend)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for --engine sharded")
    run.add_argument("--cache-dir", default=None,
                     help="durable query-cache directory (warm across runs/hosts)")
    run.add_argument("--checkpoint-every", type=int, default=1,
                     help="iterations between checkpoints (0 disables)")
    run.add_argument("--max-attempts", type=int, default=None,
                     help="supervised executions per shard before the engine "
                          "degrades (or fails); sharded engine only")
    run.add_argument("--shard-timeout", type=float, default=None,
                     help="seconds of heartbeat silence before a worker "
                          "counts as hung; sharded engine only")
    run.add_argument("--on-exhaustion", default=None,
                     choices=("degrade", "fail"),
                     help="retry-budget exhaustion: degrade to in-process "
                          "execution (default) or fail the campaign")
    run.add_argument("--telemetry", action="store_true",
                     help="record spans + metrics; stores trace.jsonl and "
                          "metrics.json next to the run (see `trace`)")

    resume = commands.add_parser("resume", help="resume an interrupted run")
    resume.add_argument("run_id", help="registry id, e.g. run-0001")

    ls = commands.add_parser("ls", help="list registered runs")
    ls.add_argument("--json", action="store_true",
                    help="emit one JSON document instead of a table")

    show = commands.add_parser("show", help="render one stored run")
    show.add_argument("run_id", help="registry id, e.g. run-0001")

    trace = commands.add_parser(
        "trace", help="render a stored run's shard/worker timeline"
    )
    trace.add_argument("run_id", help="registry id, e.g. run-0001")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also write a Chrome/Perfetto trace-event file")
    trace.add_argument("--json", action="store_true",
                       help="dump the raw trace (header + spans) as JSON")

    gc = commands.add_parser("gc", help="delete stored runs")
    gc.add_argument("--status", default=None, choices=RUN_STATUSES,
                    help="only delete runs in this state")
    gc.add_argument("--keep", type=int, default=None,
                    help="spare the newest KEEP matching runs")
    return parser


# --------------------------------------------------------------------------- #
# spec plumbing (shared by run and resume)
# --------------------------------------------------------------------------- #
def _spec_from_flags(args: argparse.Namespace) -> dict:
    """Assemble a campaign-spec document from the legacy per-flag options.

    The flags are translated straight into the policy/section layout, so
    the stored run looks exactly like one launched from a spec file.
    """
    from ..faults.retry import RetryPolicy
    from ..runtime.policy import ExecutionPolicy

    scenario: dict = {"name": args.scenario}
    if args.samples is not None:
        scenario["samples"] = int(args.samples)
    if args.epochs is not None:
        scenario["epochs"] = int(args.epochs)
    fuzzer: dict = {"queries_per_seed": int(args.queries_per_seed)}
    if args.engine == "sequential":
        fuzzer["execution"] = "sequential"
    retry_overrides = {
        key: value
        for key, value in (
            ("max_attempts", args.max_attempts),
            ("shard_timeout_s", args.shard_timeout),
            ("on_exhaustion", args.on_exhaustion),
        )
        if value is not None
    }
    policy = ExecutionPolicy(
        backend="sharded" if args.engine == "sharded" else "batched",
        num_workers=int(args.workers),
        cache=True,
        cache_dir=args.cache_dir,
        checkpoint_every=int(args.checkpoint_every),
        retry=RetryPolicy(**retry_overrides) if retry_overrides else None,
    )
    return {
        "name": args.name,
        "seed": int(args.seed),
        "scenario": scenario,
        "fuzzer": fuzzer,
        "workflow": {
            "test_budget_per_iteration": int(args.budget),
            "seeds_per_iteration": int(args.seeds_per_iteration),
        },
        "stopping": {
            "target_pmi": float(args.target_pmi),
            "max_iterations": int(args.iterations),
        },
        "policy": policy.to_dict(),
    }


def _stored_spec(run: StoredRun) -> dict:
    spec_data = run.config.get("spec")
    if spec_data is None:
        raise StoreError(
            f"{run.run_id} predates the campaign-spec registry format and "
            "cannot be rebuilt; launch a fresh campaign with `python -m repro run`"
        )
    return spec_data


def _build_campaign(config: dict):
    """Rebuild (scenario, loop) from a recorded run config, deterministically."""
    # imported here (not module top) so `ls`/`show`/`gc` stay snappy and the
    # store package never depends on the high-level packages at import time
    from ..runtime.spec import CampaignSpec

    spec_data = config.get("spec")
    if spec_data is None:
        raise StoreError(
            "run has no recorded campaign spec (pre-spec registry format); "
            "re-run the campaign with `python -m repro run`"
        )
    return CampaignSpec.from_dict(spec_data).build()


def _telemetry_enabled(config: dict) -> bool:
    """Whether the recorded spec asks for telemetry (policy.telemetry)."""
    spec = config.get("spec")
    if not isinstance(spec, dict):
        return False
    policy = spec.get("policy")
    return isinstance(policy, dict) and bool(policy.get("telemetry"))


def _execute(run: StoredRun, resume: bool) -> None:
    """Run (or resume) the campaign recorded in ``run`` and store its artifacts."""
    from .. import telemetry

    resume_from = None
    if resume:
        if not run.checkpoint_path.exists():
            raise ReproError(
                f"{run.run_id} has no checkpoint to resume from; "
                "re-run it with a policy whose checkpoint_every > 0"
            )
        resume_from = str(run.checkpoint_path)
    try:
        scenario, loop = _build_campaign(run.config)
        with telemetry.session(enabled=_telemetry_enabled(run.config)) as sess:
            try:
                _, report = loop.run(
                    scenario.model,
                    operational_data=scenario.operational_data,
                    checkpoint_path=str(run.checkpoint_path),
                    resume_from=resume_from,
                )
            finally:
                # a failed campaign's partial trace is exactly what you want
                # for the post-mortem, so save before re-raising
                if sess is not None:
                    run.save_telemetry(sess)
    except BaseException:
        run.set_status("failed")
        raise
    run.save_report(report)
    run.save_detections(loop.detected_aes)
    run.save_stats(loop.query_stats)
    if loop.last_estimate is not None:
        run.save_estimates({"final": loop.last_estimate})
    run.finish("completed")
    print(f"{run.run_id}: completed — {report.total_aes} AEs over "
          f"{report.num_iterations} iterations, final pmi {report.final_pmi:.4f}")


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _cmd_run(registry: RunRegistry, args: argparse.Namespace) -> int:
    from ..runtime.policy import load_structured_file
    from ..runtime.spec import CampaignSpec

    if args.spec is not None and args.from_run is not None:
        raise ReproError("--spec and --from-run are mutually exclusive")
    if args.spec is not None:
        spec_data = load_structured_file(args.spec)
    elif args.from_run is not None:
        spec_data = _stored_spec(registry.get(args.from_run))
    else:
        spec_data = _spec_from_flags(args)
    if args.telemetry:
        # --telemetry composes with every spec source; the override is part
        # of the stored document, so `--from-run` of this run inherits it
        spec_data = dict(spec_data)
        spec_data["policy"] = {**spec_data.get("policy", {}), "telemetry": True}
    # validate before registering — a malformed spec never creates a run;
    # anything that can only fail at build time (e.g. an unknown scenario
    # name) is recorded and marks the run "failed"
    spec = CampaignSpec.from_dict(spec_data)
    # the registry records the spec document *verbatim* (not a normalised
    # re-serialisation), so a stored run reproduces exactly what was launched
    run = registry.create(args.name or spec.campaign_name, {"spec": spec_data})
    print(f"registered {run.run_id} ({run.name}) under {registry.root}")
    _execute(run, resume=False)
    return 0


def _cmd_resume(registry: RunRegistry, args: argparse.Namespace) -> int:
    run = registry.get(args.run_id)
    if run.status == "completed":
        print(f"{run.run_id} already completed; nothing to resume")
        return 0
    _execute(run, resume=True)
    return 0


def _cmd_ls(registry: RunRegistry, args: argparse.Namespace) -> int:
    from ..evaluation.reporting import format_table, run_summary_documents, run_summary_rows

    runs = registry.runs()
    if args.json:
        import json

        print(json.dumps(run_summary_documents(runs), indent=2, sort_keys=True))
    else:
        print(format_table(run_summary_rows(runs), title=f"runs in {registry.root}"))
    return 0


def _cmd_show(registry: RunRegistry, args: argparse.Namespace) -> int:
    from ..evaluation.reporting import render_stored_run

    print(render_stored_run(registry.get(args.run_id)))
    return 0


def _cmd_trace(registry: RunRegistry, args: argparse.Namespace) -> int:
    from .. import telemetry

    run = registry.get(args.run_id)
    header, spans = run.load_trace()
    if args.chrome:
        with open(args.chrome, "w") as fp:
            telemetry.write_chrome_trace(fp, header, spans)
        print(f"wrote {len(spans)} trace events to {args.chrome}")
    if args.json:
        import json

        print(json.dumps(
            {"header": header, "spans": [span.to_dict() for span in spans]},
            indent=2, sort_keys=True,
        ))
    else:
        print(telemetry.render_timeline(header, spans))
    return 0


def _cmd_gc(registry: RunRegistry, args: argparse.Namespace) -> int:
    removed = registry.gc(keep=args.keep, status=args.status)
    if removed:
        print("removed " + ", ".join(removed))
    else:
        print("nothing to remove")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "ls": _cmd_ls,
    "show": _cmd_show,
    "trace": _cmd_trace,
    "gc": _cmd_gc,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    registry = RunRegistry(args.runs_dir if args.runs_dir else default_runs_dir())
    try:
        return _COMMANDS[args.command](registry, args)
    except CheckpointMismatchError as exc:
        # a usage error, not a campaign failure: the checkpoint on disk was
        # written by a different campaign than the one being resumed
        print(
            f"error: cannot resume from {exc.path}: checkpoint fingerprint "
            f"{exc.actual} does not match this campaign's {exc.expected}",
            file=sys.stderr,
        )
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


__all__ = ["main"]
