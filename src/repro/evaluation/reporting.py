"""Plain-text reporting helpers for experiments and benchmarks.

The benchmarks print the same kind of rows/series a paper evaluation section
would tabulate; these helpers keep that formatting in one place and free of
any plotting dependencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..types import CampaignReport

if TYPE_CHECKING:  # only for annotations; reporting stays import-light
    from ..store.registry import StoredRun


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(_fmt(row.get(column, ""))))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(
            " | ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def campaign_to_rows(report: CampaignReport) -> List[Dict[str, object]]:
    """Flatten a workflow campaign report into printable rows (one per iteration)."""
    rows: List[Dict[str, object]] = []
    for iteration in report.iterations:
        rows.append(
            {
                "iter": iteration.iteration,
                "seeds": iteration.seeds_selected,
                "test-cases": iteration.test_cases_used,
                "AEs": iteration.aes_detected,
                "pmi-before": round(iteration.pmi_before, 4),
                "pmi-after": round(iteration.pmi_after, 4),
                "op-acc-after": round(iteration.operational_accuracy_after, 4),
                "target-met": iteration.target_met,
            }
        )
    return rows


def run_summary_rows(runs: Sequence["StoredRun"]) -> List[Dict[str, object]]:
    """One ``python -m repro ls`` row per stored run."""
    rows: List[Dict[str, object]] = []
    for run in runs:
        row: Dict[str, object] = {
            "run": run.run_id,
            "name": run.name,
            "status": run.status,
        }
        if run.has_report():
            report = run.load_report()
            row["iters"] = report.num_iterations
            row["AEs"] = report.total_aes
            row["final-pmi"] = round(report.final_pmi, 4)
            row["target-met"] = report.target_met
        if run.has_telemetry():
            row["telemetry"] = "yes"
        rows.append(row)
    return rows


def run_summary_documents(runs: Sequence["StoredRun"]) -> List[Dict[str, object]]:
    """Machine-readable run summaries (``python -m repro ls --json``).

    Unlike :func:`run_summary_rows` (display-shaped), these documents keep
    exact values and include lifecycle timestamps.  They read only the
    manifest and the report, so one run with an unreadable ``stats.json``
    (e.g. written by an older format) cannot stop the registry listing.
    """
    documents: List[Dict[str, object]] = []
    for run in runs:
        manifest = run.manifest
        doc: Dict[str, object] = {
            "run_id": run.run_id,
            "name": run.name,
            "status": run.status,
            "created_at": manifest.get("created_at"),
            "updated_at": manifest.get("updated_at"),
            "has_telemetry": run.has_telemetry(),
        }
        if run.has_report():
            report = run.load_report()
            doc["iterations"] = report.num_iterations
            doc["total_aes"] = report.total_aes
            doc["final_pmi"] = report.final_pmi
            doc["target_met"] = report.target_met
        documents.append(doc)
    return documents


def render_stored_run(run: "StoredRun") -> str:
    """Render one registry artifact (``python -m repro show``) as plain text.

    The stored :class:`repro.runtime.CampaignSpec` document is rendered in
    full — it is the reproducible identity of the run (`python -m repro run
    --from-run <id>` re-launches from exactly this document).
    """
    import json

    manifest = run.manifest
    lines = [f"{run.run_id} ({run.name}) — {run.status}"]
    config = manifest.get("config", {})
    spec = config.get("spec") if isinstance(config, dict) else None
    if spec is not None:
        lines.append("campaign spec:")
        lines.extend(
            "  " + line
            for line in json.dumps(spec, indent=2, sort_keys=True).splitlines()
        )
    elif config:
        settings = ", ".join(
            f"{key}={value}" for key, value in sorted(config.items()) if value is not None
        )
        lines.append(f"config: {settings}")
    stats = run.load_stats()
    if stats is not None:
        lines.append("")
        lines.append(format_table([stats.to_dict()], title="engine stats"))
    if run.has_report():
        report = run.load_report()
        lines.append("")
        lines.append(format_table(campaign_to_rows(report), title="campaign"))
    detections = run.load_detections()
    lines.append("")
    lines.append(f"detections stored: {len(detections)}")
    estimates = run.load_estimates()
    if estimates:
        rows = [
            {"estimate": name, **estimate.to_dict()}
            for name, estimate in sorted(estimates.items())
        ]
        lines.append("")
        lines.append(format_table(rows, title="reliability estimates"))
    if run.has_telemetry():
        document = run.load_metrics()
        lines.append("")
        lines.append(
            f"telemetry: {document.get('spans_recorded', 0)} spans recorded "
            f"({document.get('spans_dropped', 0)} dropped), "
            f"{len(document.get('metrics', {}))} metrics — "
            f"`python -m repro trace {run.run_id}` renders the timeline"
        )
    return "\n".join(lines)


def summarize_series(name: str, xs: Sequence[float], ys: Sequence[float]) -> str:
    """Render an (x, y) series as a compact one-line-per-point listing."""
    if len(xs) != len(ys):
        raise ConfigurationError("series x and y must have the same length")
    lines = [name]
    for x, y in zip(xs, ys):
        lines.append(f"  {x:>10.4g} -> {y:.4g}")
    return "\n".join(lines)


__all__ = [
    "format_table",
    "campaign_to_rows",
    "run_summary_rows",
    "run_summary_documents",
    "render_stored_run",
    "summarize_series",
]
