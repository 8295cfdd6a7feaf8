"""Tests for ``repro.telemetry`` — spans, metrics, artifacts.

Fast tier: the ring-buffer collector, the metrics registry, the no-op
guarantee when no session is active, trace/metrics artifacts and their
renderers, engine integration (telemetry on vs off must be bit-identical —
the observability layer can never perturb results), and the registry/CLI
surface (``trace``, ``ls --json``).

Slow tier (``pytest -m slow``): on/off bit-identity of every engine probe
and its counters.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import telemetry
from repro.engine import BatchedQueryEngine
from repro.exceptions import StoreError
from repro.store import RunRegistry
from repro.store.cli import main as cli_main
from repro.telemetry import (
    Counter,
    Histogram,
    MetricsRegistry,
    Span,
    TelemetrySession,
    TraceCollector,
    chrome_trace_events,
    metrics_document,
    read_trace,
    render_timeline,
    write_trace,
)


# --------------------------------------------------------------------------- #
# spans + collector
# --------------------------------------------------------------------------- #
class TestSpan:
    def test_lane_and_end(self):
        s = Span("iteration-0", "app", start_s=1.0, duration_s=0.5)
        assert s.end_s == 1.5

    def test_shifted_translates_start_only(self):
        s = Span("a", "app", 2.0, 0.25)
        t = s.shifted(1.5)
        assert (t.start_s, t.duration_s) == (3.5, 0.25)
        assert s.shifted(0.0) is s  # no-copy fast path

    def test_to_dict_omits_empty_attrs(self):
        assert "attrs" not in Span("a", "app", 0.0, 0.0).to_dict()
        assert Span("a", "app", 0.0, 0.0, attrs={"k": 1}).to_dict()["attrs"] == {
            "k": 1
        }


class TestTraceCollector:
    def test_records_in_order(self):
        collector = TraceCollector(capacity=8)
        for i in range(5):
            collector.record(Span(f"s{i}", "app", float(i), 0.0))
        assert [s.name for s in collector.snapshot()] == [f"s{i}" for i in range(5)]
        assert len(collector) == 5
        assert collector.dropped == 0

    def test_ring_overwrites_oldest_and_counts_drops(self):
        collector = TraceCollector(capacity=4)
        for i in range(7):
            collector.record(Span(f"s{i}", "app", float(i), 0.0))
        assert [s.name for s in collector.snapshot()] == ["s3", "s4", "s5", "s6"]
        assert collector.dropped == 3

    def test_drain_clears_but_keeps_drop_count(self):
        collector = TraceCollector(capacity=2)
        for i in range(3):
            collector.record(Span(f"s{i}", "app", float(i), 0.0))
        assert [s.name for s in collector.drain()] == ["s1", "s2"]
        assert len(collector) == 0
        assert collector.snapshot() == []
        assert collector.dropped == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.to_dict() == {"type": "counter", "value": 3.5}
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets_and_stats(self):
        h = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            h.observe(value)
        d = h.to_dict()
        assert d["counts"] == [1, 1, 1]
        assert d["count"] == 3
        assert d["min"] == 0.5 and d["max"] == 50.0
        assert h.mean == pytest.approx(55.5 / 3)

    def test_registry_get_or_create_and_kind_clash(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_registry_to_dict_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc(2)
        assert list(reg.to_dict()) == ["a.first", "z.last"]


# --------------------------------------------------------------------------- #
# session API
# --------------------------------------------------------------------------- #
class TestSessionApi:
    def test_everything_is_noop_without_session(self):
        # must not raise, allocate a session, or record anywhere
        with telemetry.span("unit", "app") as handle:
            handle.set(key="value")
        telemetry.event("unit")
        telemetry.count("unit.count")
        telemetry.observe("unit.hist", 1.0)
        telemetry.gauge("unit.gauge", 1.0)
        assert telemetry.active() is None
        assert not telemetry.enabled()

    def test_disabled_session_yields_none(self):
        with telemetry.session(enabled=False) as sess:
            assert sess is None
            assert not telemetry.enabled()

    def test_session_records_spans_and_metrics(self):
        with telemetry.session() as sess:
            assert telemetry.enabled()
            with telemetry.span("work", "engine", rows=4):
                pass
            telemetry.event("marker", "fault", worker=1)
            telemetry.count("c", 2)
            telemetry.observe("h", 0.5)
            telemetry.gauge("g", 3.0)
        spans = sess.spans.snapshot()
        assert [s.name for s in spans] == ["work", "marker"]
        assert spans[0].attrs == {"rows": 4}
        assert spans[1].duration_s == 0.0
        metrics = sess.metrics.to_dict()
        assert metrics["c"]["value"] == 2.0
        assert metrics["h"]["count"] == 1
        assert metrics["g"]["value"] == 3.0
        assert telemetry.active() is None  # deactivated on exit

    def test_nested_sessions_restore_outer(self):
        with telemetry.session() as outer:
            with telemetry.session() as inner:
                assert telemetry.active() is inner
            assert telemetry.active() is outer

    def test_span_records_error_attr_on_exception(self):
        with telemetry.session() as sess:
            with pytest.raises(RuntimeError):
                with telemetry.span("boom", "app"):
                    raise RuntimeError("x")
        (span,) = sess.spans.snapshot()
        assert span.attrs["error"] == "RuntimeError"


# --------------------------------------------------------------------------- #
# artifacts + renderers
# --------------------------------------------------------------------------- #
def _session_with_spans() -> TelemetrySession:
    sess = TelemetrySession()
    base = sess.anchor_monotonic
    sess.spans.record(Span("iteration-0", "app", base + 0.01, 0.05))
    sess.spans.record(Span("checkpoint", "store", base + 0.02, 0.02))
    sess.spans.record(
        Span("assess", "app", base + 0.02, 0.03, attrs={"rows": 16})
    )
    sess.metrics.counter("engine.rows").inc(32)
    return sess


class TestArtifacts:
    def test_trace_round_trip_rebases_to_origin(self):
        sess = _session_with_spans()
        buffer = io.StringIO()
        assert write_trace(buffer, sess) == 3
        buffer.seek(0)
        header, spans = read_trace(buffer)
        assert header["version"] == 1
        assert header["spans"] == 3
        assert header["dropped"] == 0
        # rebased: every start is relative to the session anchor
        assert min(s.start_s for s in spans) == pytest.approx(0.01)
        assert spans[-1].attrs == {"rows": 16}
        # older traces carry each span's proc/worker lane; they still load
        buffer.seek(0)
        header_line = buffer.readline()
        old_line = json.dumps(
            {"name": "shard-0", "cat": "shard", "start_s": 0.5, "dur_s": 0.25,
             "proc": "worker", "worker": 1, "attrs": {"rows": 4}}
        )
        _, old_spans = read_trace(io.StringIO(header_line + old_line + "\n"))
        assert old_spans == [Span("shard-0", "shard", 0.5, 0.25, attrs={"rows": 4})]

    def test_read_trace_rejects_garbage(self):
        with pytest.raises(ValueError, match="empty trace"):
            read_trace(io.StringIO(""))
        bad = io.StringIO(json.dumps({"version": 99}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace version"):
            read_trace(bad)

    def test_metrics_document_shape(self):
        doc = metrics_document(_session_with_spans())
        assert doc["version"] == 1
        assert doc["spans_recorded"] == 3
        assert doc["spans_dropped"] == 0
        assert doc["metrics"]["engine.rows"]["value"] == 32.0

    def test_chrome_events(self):
        sess = _session_with_spans()
        buffer = io.StringIO()
        write_trace(buffer, sess)
        buffer.seek(0)
        header, spans = read_trace(buffer)
        events = chrome_trace_events(header, spans)
        xs = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(xs) == 3
        assert all(e["ts"] >= 0 for e in xs)
        # every span runs on one thread
        assert {e["tid"] for e in events} == {0}
        named = {e["args"]["name"] for e in metas if e["name"] == "thread_name"}
        assert named == {"coordinator"}

    def test_render_timeline_contents(self):
        sess = _session_with_spans()
        buffer = io.StringIO()
        write_trace(buffer, sess)
        buffer.seek(0)
        rendered = render_timeline(*read_trace(buffer))
        assert "coordinator" in rendered
        assert "store" in rendered  # the category summary
        assert "3 spans" in rendered

    def test_render_timeline_empty(self):
        assert "trace is empty" in render_timeline({"dropped": 0}, [])


# --------------------------------------------------------------------------- #
# engine integration: bit-identity and metrics
# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_batched_engine_metrics(
        self, trained_cluster_model, operational_cluster_data
    ):
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=8)
        x = operational_cluster_data.x[:20]
        baseline = engine.predict_proba(x)
        with telemetry.session() as sess:
            np.testing.assert_array_equal(engine.predict_proba(x), baseline)
        metrics = sess.metrics.to_dict()
        assert metrics["engine.rows"]["value"] == 20.0
        assert metrics["engine.model_calls"]["value"] == 3.0  # ceil(20/8)
        assert metrics["engine.chunk_latency_s"]["count"] == 3


# --------------------------------------------------------------------------- #
# registry + CLI surface
# --------------------------------------------------------------------------- #
class TestRegistryAndCli:
    RUN_ARGS = [
        "run",
        "--scenario", "gaussian-clusters",
        "--samples", "250",
        "--epochs", "4",
        "--iterations", "1",
        "--budget", "60",
        "--seeds-per-iteration", "4",
        "--queries-per-seed", "6",
        "--seed", "2021",
        "--telemetry",
    ]

    def test_save_and_load_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run = registry.create("unit", {})
        run.save_telemetry(_session_with_spans())
        assert run.has_telemetry()
        header, spans = run.load_trace()
        assert header["spans"] == len(spans) == 3
        assert run.load_metrics()["metrics"]["engine.rows"]["value"] == 32.0

    def test_load_trace_missing_names_the_knob(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run = registry.create("unit", {})
        assert not run.has_telemetry()
        with pytest.raises(StoreError, match="telemetry"):
            run.load_trace()
        with pytest.raises(StoreError, match="metrics.json"):
            run.load_metrics()

    def test_cli_campaign_stores_and_renders_trace(self, tmp_path, capsys):
        base = ["--runs-dir", str(tmp_path / "runs")]
        assert cli_main(base + self.RUN_ARGS) == 0
        registry = RunRegistry(tmp_path / "runs")
        run = registry.get("run-0001")
        # --telemetry is recorded in the stored spec (reproducible identity)
        assert run.config["spec"]["policy"]["telemetry"] is True
        header, spans = run.load_trace()
        assert header["spans"] == len(spans) > 0
        assert run.load_metrics()["metrics"]
        capsys.readouterr()
        # the timeline renders from the stored artifact alone
        assert cli_main(base + ["trace", "run-0001"]) == 0
        rendered = capsys.readouterr().out
        assert "coordinator" in rendered and "spans" in rendered
        # chrome export parses
        chrome = tmp_path / "chrome.json"
        assert cli_main(base + ["trace", "run-0001", "--chrome", str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        capsys.readouterr()
        # raw JSON dump parses and matches the span count
        assert cli_main(base + ["trace", "run-0001", "--json"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert len(raw["spans"]) == header["spans"]
        # show surfaces the engine stats and the telemetry summary
        assert cli_main(base + ["show", "run-0001"]) == 0
        shown = capsys.readouterr().out
        assert "engine stats" in shown and "cache_hits" in shown
        assert "telemetry:" in shown
        # ls --json is machine-readable and flags telemetry
        assert cli_main(base + ["ls", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing[0]["run_id"] == "run-0001"
        assert listing[0]["has_telemetry"] is True

    def test_trace_without_artifact_errors(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        registry.create("bare", {})
        assert cli_main(["--runs-dir", str(tmp_path / "runs"),
                         "trace", "run-0001"]) == 1
        assert "telemetry" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# slow tier: on/off bit-identity of every engine probe
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestBitIdentityMatrix:
    def test_batched(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        x = operational_cluster_data.x[:48]
        y = operational_cluster_data.y[:48]
        results = {}
        for label, enabled in (("off", False), ("on", True)):
            engine = BatchedQueryEngine(
                trained_cluster_model, naturalness=cluster_naturalness, batch_size=5
            )
            with telemetry.session(enabled=enabled):
                results[label] = (
                    engine.predict_proba(x),
                    engine.loss_input_gradient(x, y),
                    engine.score_naturalness(x),
                    engine.stats.as_dict(),
                )
        for on, off in zip(results["on"][:3], results["off"][:3]):
            np.testing.assert_array_equal(on, off)
        assert results["on"][3] == results["off"][3]
