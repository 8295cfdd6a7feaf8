"""Tests for ``repro.analysis`` — the AST invariant linter.

Each rule gets a fixture snippet carrying exactly one seeded violation at a
known line, plus the clean variant it must not flag.  The framework tests pin
pragma suppression, baseline workflow, the JSON report schema and the CLI
exit-code contract that CI gates on — and a self-scan test asserts the shipped
tree is clean against the committed (empty) baseline, which is the regression
pin for every rule that currently finds nothing.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    analyze_paths,
    analyze_source,
    collect_pragmas,
    default_program_rules,
    default_rules,
    expand_decorated_pragmas,
    explain_rule,
    is_suppressed,
    registered_program_rules,
    registered_rules,
    render_json,
    render_sarif,
    render_text,
    rule_doc_sections,
    sort_findings,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.walker import PARSE_RULE_ID
from repro.exceptions import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A path the funnel rule applies to (not under engine/runtime/nn).
APP_PATH = "src/repro/op/example.py"


def dedent(snippet: str) -> str:
    return textwrap.dedent(snippet).lstrip("\n")


# --------------------------------------------------------------------------- #
# registry / framework
# --------------------------------------------------------------------------- #
class TestFramework:
    def test_seven_per_file_rules_registered(self):
        # REP003 (legacy-knob) is retired; ids are never renumbered because
        # baselines, SARIF fingerprints and pragmas key on them
        assert sorted(registered_rules()) == [
            "REP001", "REP002", "REP004", "REP005", "REP006", "REP007", "REP008",
        ]

    def test_three_program_rules_registered(self):
        assert sorted(registered_program_rules()) == ["REP009", "REP010", "REP011"]

    def test_default_rules_are_fresh_instances_in_id_order(self):
        first, second = default_rules(), default_rules()
        assert [r.rule_id for r in first] == sorted(registered_rules())
        assert all(a is not b for a, b in zip(first, second))

    def test_default_program_rules_are_fresh_instances_in_id_order(self):
        first, second = default_program_rules(), default_program_rules()
        assert [r.rule_id for r in first] == sorted(registered_program_rules())
        assert all(a is not b for a, b in zip(first, second))

    def test_per_file_and_program_rule_ids_disjoint(self):
        assert not set(registered_rules()) & set(registered_program_rules())

    def test_syntax_error_becomes_parse_finding(self):
        findings = analyze_source("def broken(:\n", APP_PATH)
        assert len(findings) == 1
        assert findings[0].rule == PARSE_RULE_ID
        assert "does not parse" in findings[0].message

    def test_findings_sorted_by_location(self):
        source = dedent(
            """
            import numpy as np


            def late(model, x):
                np.random.seed(0)
                return model.predict(x)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        assert findings == sort_findings(findings)


# --------------------------------------------------------------------------- #
# REP001 engine-funnel
# --------------------------------------------------------------------------- #
class TestEngineFunnel:
    def test_direct_predict_flagged_at_exact_line(self):
        source = dedent(
            """
            import numpy as np


            def pseudo_label(model, x):
                return model.predict(x)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.name) == ("REP001", "engine-funnel")
        assert finding.line == 5
        assert "model.predict(...)" in finding.message

    def test_training_fit_on_model_argument_flagged(self):
        source = dedent(
            """
            def retrain(trainer, model, x, y):
                trainer.fit(model, x, y)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "trained via fit" in findings[0].message

    def test_engine_receivers_are_funnel_traffic(self):
        source = dedent(
            """
            def ok(engine, query_engine, x):
                a = engine.predict(x)
                b = query_engine.predict_proba(x)
                c = self_engine = engine.loss_input_gradient(x, a)
                return a, b, c
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_self_calls_and_dynamic_receivers_skipped(self):
        source = dedent(
            """
            class Wrapper:
                def predict(self, x):
                    return self.predict(x)


            def dynamic(models, x):
                return models[0].predict(x)
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_engine_runtime_nn_layers_exempt(self):
        source = "def f(model, x):\n    return model.predict(x)\n"
        for exempt in (
            "src/repro/engine/batching.py",
            "src/repro/runtime/policy.py",
            "src/repro/nn/trainer.py",
            "src/repro/types.py",
        ):
            assert analyze_source(source, exempt) == []
        assert len(analyze_source(source, APP_PATH)) == 1


# --------------------------------------------------------------------------- #
# REP002 rng-discipline
# --------------------------------------------------------------------------- #
class TestRngDiscipline:
    def test_global_state_api_flagged_at_exact_line(self):
        source = dedent(
            """
            import numpy as np


            def scramble():
                np.random.seed(1234)
                return np.random.normal(size=3)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP002", 5), ("REP002", 6)]
        assert "global random state" in findings[0].message

    def test_argless_default_rng_flagged_seeded_clean(self):
        source = dedent(
            """
            import numpy as np
            from numpy.random import default_rng


            def fresh():
                return np.random.default_rng()


            def seeded():
                return default_rng(7)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP002", 6)]
        assert "without a seed" in findings[0].message

    def test_generator_methods_clean(self):
        source = dedent(
            """
            def draw(rng):
                return rng.normal(size=3) + rng.choice(5)
            """
        )
        assert analyze_source(source, APP_PATH) == []


# --------------------------------------------------------------------------- #
# REP004 lock-discipline
# --------------------------------------------------------------------------- #
LOCKED_CLASS = """
class Engine:
    def __init__(self):
        self.stats = 0

    def absorb(self, delta):
        with self._lock:
            self.stats += delta

    def snapshot(self):
        return self.stats
"""


class TestLockDiscipline:
    def test_lock_free_access_to_guarded_attr_flagged(self):
        findings = analyze_source(dedent(LOCKED_CLASS), APP_PATH)
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line) == ("REP004", 10)
        assert "Engine.snapshot touches self.stats" in finding.message
        assert "Engine.absorb" in finding.message

    def test_construction_methods_exempt(self):
        # __init__ writes self.stats lock-free at line 3 and is not flagged
        findings = analyze_source(dedent(LOCKED_CLASS), APP_PATH)
        assert all(f.line != 3 for f in findings)

    def test_consistent_locking_clean(self):
        source = dedent(
            """
            class Engine:
                def absorb(self, delta):
                    with self._lock:
                        self.stats += delta

                def snapshot(self):
                    with self._lock:
                        return self.stats
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_unguarded_config_reads_clean(self):
        source = dedent(
            """
            class Engine:
                def absorb(self, delta):
                    with self._lock:
                        self.stats += delta

                def plan(self):
                    return self.num_workers * 2
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_method_call_receiver_counts_as_mutation(self):
        source = dedent(
            """
            class Engine:
                def absorb(self, delta):
                    with self._lock:
                        self.stats.merge(delta)

                def snapshot(self):
                    return self.stats
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP004", 7)]


# --------------------------------------------------------------------------- #
# REP005 dict-round-trip
# --------------------------------------------------------------------------- #
class TestDictRoundTrip:
    def test_key_drift_flagged_at_serializer(self):
        source = dedent(
            """
            class Estimate:
                def to_dict(self):
                    return {"pmi": self.pmi}

                @classmethod
                def from_dict(cls, data):
                    return cls(pmi=data["pmi"], variance=data["variance"])
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line) == ("REP005", 2)
        assert "'variance'" in finding.message
        assert "never produced" in finding.message

    def test_extra_produced_key_flagged(self):
        source = dedent(
            """
            class Estimate:
                def to_dict(self):
                    return {"pmi": self.pmi, "stale": 1}

                @classmethod
                def from_dict(cls, data):
                    return cls(pmi=data["pmi"])
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert len(findings) == 1
        assert "not consumed by from_dict" in findings[0].message

    def test_symmetric_pair_clean(self):
        source = dedent(
            """
            class Estimate:
                def to_dict(self):
                    return {"pmi": self.pmi, "variance": self.variance}

                @classmethod
                def from_dict(cls, data):
                    return cls(pmi=data["pmi"], variance=data["variance"])
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_dataclass_fields_validation_counts_fields(self):
        # the ExecutionPolicy pattern: asdict() + __dataclass_fields__ check
        source = dedent(
            """
            @dataclass
            class Policy:
                backend: str = "batched"
                num_workers: int = 1

                def to_dict(self):
                    return dataclasses.asdict(self)

                @classmethod
                def from_dict(cls, data):
                    unknown = set(data) - set(cls.__dataclass_fields__)
                    if unknown:
                        raise ValueError(unknown)
                    return cls(**dict(data))
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_dynamic_serializer_skipped_not_guessed(self):
        source = dedent(
            """
            class Opaque:
                def to_dict(self):
                    return make_payload(self)

                @classmethod
                def from_dict(cls, data):
                    return cls(**data)
            """
        )
        assert analyze_source(source, APP_PATH) == []


# --------------------------------------------------------------------------- #
# REP006 timeout-discipline
# --------------------------------------------------------------------------- #
class TestTimeoutDiscipline:
    def test_bare_result_flagged(self):
        findings = analyze_source("value = future.result()\n", APP_PATH)
        assert [(f.rule, f.name) for f in findings] == [
            ("REP006", "timeout-discipline")
        ]
        assert "waits forever" in findings[0].message

    def test_result_with_timeout_clean(self):
        assert analyze_source("value = future.result(timeout=5.0)\n", APP_PATH) == []
        assert analyze_source("value = future.result(5.0)\n", APP_PATH) == []

    def test_queue_get_without_timeout_flagged(self):
        findings = analyze_source("item = work_queue.get()\n", APP_PATH)
        assert [f.rule for f in findings] == ["REP006"]

    def test_queue_get_bounded_clean(self):
        assert analyze_source("item = work_queue.get(timeout=1.0)\n", APP_PATH) == []
        assert analyze_source("item = work_queue.get(True, 1.0)\n", APP_PATH) == []

    def test_dict_get_never_matches(self):
        # .get on a non-queue receiver is ordinary dict access
        assert analyze_source("value = config.get('key')\n", APP_PATH) == []

    def test_pool_submit_flagged_even_via_subscript(self):
        findings = analyze_source("fut = pools[worker].submit(fn, arg)\n", APP_PATH)
        assert [f.rule for f in findings] == ["REP006"]
        assert "ShardSupervisor" in findings[0].hint

    def test_non_pool_submit_clean(self):
        assert analyze_source("form.submit()\n", APP_PATH) == []

    def test_faults_layer_exempt(self):
        source = "value = future.result()\n"
        assert analyze_source(source, "src/repro/faults/supervision.py") == []


# --------------------------------------------------------------------------- #
# REP007 — shm-lifecycle
# --------------------------------------------------------------------------- #
class TestShmLifecycleRule:
    def test_bare_creation_flagged(self):
        findings = analyze_source(
            "segment = SharedMemory(create=True, size=1024)\n", APP_PATH
        )
        assert [(f.rule, f.name) for f in findings] == [("REP007", "shm-lifecycle")]
        assert "outlives the process" in findings[0].message

    def test_attribute_call_flagged(self):
        source = dedent(
            """
            def open_ring(name):
                return shared_memory.SharedMemory(name=name)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP007"]

    def test_context_manager_clean(self):
        source = dedent(
            """
            def use(name):
                with SharedMemory(name=name) as segment:
                    return bytes(segment.buf[:4])
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_try_finally_cleanup_clean(self):
        source = dedent(
            """
            def roundtrip(data):
                segment = SharedMemory(create=True, size=len(data))
                try:
                    segment.buf[: len(data)] = data
                    return bytes(segment.buf[: len(data)])
                finally:
                    segment.close()
                    segment.unlink()
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_finally_without_cleanup_still_flagged(self):
        source = dedent(
            """
            def leaky(data):
                segment = SharedMemory(create=True, size=len(data))
                try:
                    return bytes(segment.buf[: len(data)])
                finally:
                    log.info("done")
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP007"]

    def test_creation_inside_finally_not_protected_by_it(self):
        source = dedent(
            """
            def weird():
                try:
                    pass
                finally:
                    segment = SharedMemory(create=True, size=8)
                    segment.close()
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP007"]

    def test_cleanup_in_enclosing_scope_does_not_bless_nested_function(self):
        # the creation's cleanup must live in the *same* function scope
        source = dedent(
            """
            def outer():
                try:
                    def inner():
                        return SharedMemory(create=True, size=8)
                    return inner()
                finally:
                    cleanup.close()
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP007"]

    def test_pragma_documents_ownership_transfer(self):
        source = dedent(
            """
            def attach(name):
                # close happens on cache eviction — repro: allow[shm-lifecycle]
                return SharedMemory(name=name)  # repro: allow[shm-lifecycle]
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_unrelated_constructors_clean(self):
        assert analyze_source("pool = SharedPool(create=True)\n", APP_PATH) == []


# --------------------------------------------------------------------------- #
# REP008 — clock-discipline
# --------------------------------------------------------------------------- #
class TestClockDiscipline:
    def test_time_time_flagged(self):
        findings = analyze_source("import time\nstamp = time.time()\n", APP_PATH)
        assert [(f.rule, f.name) for f in findings] == [
            ("REP008", "clock-discipline")
        ]
        assert "wall clock" in findings[0].message
        assert "clock.monotonic" in findings[0].hint

    def test_other_wall_reads_flagged(self):
        for call in ("time.time_ns()", "time.localtime()", "time.gmtime()",
                     "time.ctime()"):
            findings = analyze_source(f"value = {call}\n", APP_PATH)
            assert [f.rule for f in findings] == ["REP008"], call

    def test_datetime_shapes_flagged(self):
        for call in ("datetime.now()", "datetime.utcnow()", "date.today()"):
            findings = analyze_source(f"value = {call}\n", APP_PATH)
            assert [f.rule for f in findings] == ["REP008"], call

    def test_monotonic_clocks_clean(self):
        # the safe duration clocks are not the hazard, only wall reads are
        for call in ("time.monotonic()", "time.perf_counter()", "time.sleep(1)"):
            assert analyze_source(f"value = {call}\n", APP_PATH) == [], call

    def test_non_clock_receivers_clean(self):
        # .time()/.now() on arbitrary receivers is not a clock read
        assert analyze_source("value = lap.time()\n", APP_PATH) == []
        assert analyze_source("value = feed.now()\n", APP_PATH) == []

    def test_telemetry_layer_exempt(self):
        source = "import time\nstamp = time.time()\n"
        assert analyze_source(source, "src/repro/telemetry/clock.py") == []

    def test_pragma_blesses_calendar_site(self):
        source = "stamp = time.time()  # repro: allow[clock-discipline]\n"
        assert analyze_source(source, APP_PATH) == []


# --------------------------------------------------------------------------- #
# pragmas
# --------------------------------------------------------------------------- #
class TestPragmas:
    VIOLATION = "def f(model, x):\n    return model.predict(x)"

    def test_same_line_pragma_by_slug_and_id(self):
        for tag in ("engine-funnel", "REP001", "rep001"):
            source = self.VIOLATION.replace(
                "model.predict(x)", f"model.predict(x)  # repro: allow[{tag}]"
            )
            assert analyze_source(source, APP_PATH) == []

    def test_standalone_comment_blesses_next_code_line(self):
        source = dedent(
            """
            def f(model, x):
                # whitebox on purpose — repro: allow[engine-funnel]
                # repro: allow[engine-funnel]
                return model.predict(x)
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_wildcard_and_comma_lists(self):
        source = self.VIOLATION.replace(
            "model.predict(x)", "model.predict(x)  # repro: allow[*]"
        )
        assert analyze_source(source, APP_PATH) == []
        pragmas = collect_pragmas("x = 1  # repro: allow[REP001, rng-discipline]\n")
        assert is_suppressed(pragmas, 1, "REP001", "engine-funnel")
        assert is_suppressed(pragmas, 1, "REP002", "rng-discipline")
        assert not is_suppressed(pragmas, 1, "REP004", "lock-discipline")

    def test_wrong_rule_pragma_does_not_suppress(self):
        source = self.VIOLATION.replace(
            "model.predict(x)", "model.predict(x)  # repro: allow[rng-discipline]"
        )
        assert len(analyze_source(source, APP_PATH)) == 1

    def test_pragma_inside_string_literal_ignored(self):
        source = 'def f(model):\n    return model.predict("# repro: allow[engine-funnel]")'
        assert len(analyze_source(source, APP_PATH)) == 1

    def test_suppressions_counted_per_run(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(model, x):\n"
            "    return model.predict(x)  # repro: allow[engine-funnel]\n"
        )
        result = analyze_paths([str(target)])
        assert result.findings == []
        assert result.suppressed == 1
        assert result.files_scanned == 1


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #
def _finding(message: str = "direct model query model.predict(...)") -> Finding:
    return Finding(
        rule="REP001",
        name="engine-funnel",
        severity="error",
        path="src/repro/op/example.py",
        line=5,
        col=11,
        message=message,
    )


class TestBaseline:
    def test_round_trip_and_identity_ignores_line(self, tmp_path):
        target = tmp_path / "baseline.json"
        Baseline([_finding()]).write(target)
        loaded = Baseline.load(target)
        assert len(loaded) == 1
        moved = Finding(**dict(_finding().to_dict(), line=99, col=0))
        assert loaded.is_known(moved)
        assert not loaded.is_known(_finding(message="something else"))

    def test_missing_file_is_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0
        assert not baseline.is_known(_finding())

    def test_stale_entries_surfaced(self):
        baseline = Baseline([_finding(), _finding(message="fixed long ago")])
        stale = baseline.stale_entries([_finding()])
        assert [entry.message for entry in stale] == ["fixed long ago"]

    def test_version_and_shape_validated(self, tmp_path):
        bad_version = tmp_path / "v0.json"
        bad_version.write_text(json.dumps({"version": 0, "findings": []}))
        with pytest.raises(ConfigurationError, match="version"):
            Baseline.load(bad_version)
        bad_shape = tmp_path / "list.json"
        bad_shape.write_text("[]")
        with pytest.raises(ConfigurationError, match="findings"):
            Baseline.load(bad_shape)

    def test_finding_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown Finding fields"):
            Finding.from_dict(dict(_finding().to_dict(), status="new"))


# --------------------------------------------------------------------------- #
# reporters
# --------------------------------------------------------------------------- #
class TestReporters:
    def _result(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(model, x):\n    return model.predict(x)\n")
        return analyze_paths([str(target)])

    def test_json_schema(self, tmp_path):
        result = self._result(tmp_path)
        report = render_json(result, new=result.findings, baselined=[], stale=[])
        assert set(report) == {"version", "findings", "stale_baseline", "summary"}
        assert report["version"] == 1
        assert set(report["summary"]) == {
            "files_scanned", "total", "new", "baselined", "suppressed", "by_rule",
        }
        (row,) = report["findings"]
        assert set(row) == {
            "rule", "name", "severity", "path", "line", "col",
            "message", "hint", "status",
        }
        assert row["status"] == "new"
        assert report["summary"]["by_rule"] == {"REP001": 1}
        json.dumps(report)  # must be JSON-serializable as-is

    def test_json_marks_baselined_rows(self, tmp_path):
        result = self._result(tmp_path)
        report = render_json(result, new=[], baselined=result.findings, stale=[])
        assert [row["status"] for row in report["findings"]] == ["baselined"]
        assert report["summary"]["new"] == 0

    def test_text_report_one_line_per_new_finding(self, tmp_path):
        result = self._result(tmp_path)
        text = render_text(result, new=result.findings, baselined=[], stale=[])
        assert "REP001[engine-funnel]" in text
        assert "1 new, 0 baselined" in text


# --------------------------------------------------------------------------- #
# CLI exit-code contract (what CI gates on)
# --------------------------------------------------------------------------- #
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(engine, x):\n    return engine.predict(x)\n")
        assert lint_main([str(clean), "--no-baseline"]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        assert lint_main([str(bad), "--no-baseline"]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_update_baseline_then_clean_then_ratchet(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(bad), "--baseline", str(baseline), "--update-baseline"]) == 0
        assert baseline.exists()
        # accepted debt no longer fails the run
        assert lint_main([str(bad), "--baseline", str(baseline)]) == 0
        # ...but a new violation still does, and only it is reported
        bad.write_text(
            "def f(model, x):\n"
            "    return model.predict(x)\n"
            "def g(model, x):\n"
            "    return model.predict_proba(x)\n"
        )
        capsys.readouterr()
        assert lint_main([str(bad), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "predict_proba" in out
        assert "1 new, 1 baselined" in out

    def test_stale_baseline_reported_not_fatal(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        baseline = tmp_path / "baseline.json"
        lint_main([str(bad), "--baseline", str(baseline), "--update-baseline"])
        bad.write_text("def f(engine, x):\n    return engine.predict(x)\n")
        capsys.readouterr()
        assert lint_main([str(bad), "--baseline", str(baseline)]) == 0
        assert "stale baseline" in capsys.readouterr().out

    def test_json_flag_emits_parseable_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        assert lint_main([str(bad), "--no-baseline", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["new"] == 1

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope"), "--no-baseline"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "REP001", "REP002", "REP004", "REP005", "REP006", "REP007",
            "REP008", "REP009", "REP010", "REP011",
        ):
            assert rule_id in out
        assert "REP003" not in out

    def test_conflicting_baseline_flags_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            lint_main([str(tmp_path), "--no-baseline", "--update-baseline"])

    def test_module_entry_point_dispatches_lint_verb(self, capsys):
        from repro.__main__ import main as module_main

        assert module_main(["lint", "--list-rules"]) == 0
        assert "REP001" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# self-scan: the shipped tree is clean vs the committed baseline
# --------------------------------------------------------------------------- #
class TestSelfScan:
    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert len(baseline) == 0, "the shipped tree must carry no lint debt"

    def test_shipped_tree_has_no_findings(self):
        # also the regression pin that REP004/REP005 (which currently
        # find nothing in the tree) stay silent: any future hit fails here
        result = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        assert result.findings == [], "\n".join(f.format() for f in result.findings)
        assert result.by_rule() == {}
        # the justified whitebox sites are pragma'd, not invisible
        assert result.suppressed >= 19

    def test_every_rule_fires_on_its_fixture(self):
        # guards against a rule being silently disabled (e.g. a renamed
        # visit_ method): each must detect its seeded violation
        seeded = {
            "REP001": "def f(model, x):\n    return model.predict(x)\n",
            "REP002": "import numpy as np\nnp.random.seed(0)\n",
            "REP004": dedent(LOCKED_CLASS),
            "REP005": dedent(
                """
                class C:
                    def to_dict(self):
                        return {"a": 1}

                    @classmethod
                    def from_dict(cls, data):
                        return cls(a=data["a"], b=data["b"])
                """
            ),
            "REP006": "value = future.result()\n",
            "REP007": "shm = SharedMemory(create=True, size=8)\n",
            "REP008": "stamp = time.time()\n",
            "REP009": dedent(
                """
                import threading


                class C:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def f(self):
                        with self._lock:
                            with self._lock:
                                pass
                """
            ),
            "REP010": dedent(
                """
                def run(engine, x):
                    return engine.predict(x)


                def f(model, x):
                    return run(model, x)
                """
            ),
            "REP011": "def f(shards: set):\n    return [s for s in shards]\n",
        }
        for rule_id, source in seeded.items():
            findings = analyze_source(source, APP_PATH)
            assert [f.rule for f in findings] == [rule_id]


# --------------------------------------------------------------------------- #
# REP009 lock-ordering (whole-program; single-module graphs via analyze_source)
# --------------------------------------------------------------------------- #
class TestLockOrdering:
    def test_nested_reacquisition_of_plain_lock_flagged(self):
        source = dedent(
            """
            import threading


            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def merge(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.name) for f in findings] == [("REP009", "lock-ordering")]
        assert "deadlocks itself" in findings[0].message

    def test_rlock_reentry_clean(self):
        source = dedent(
            """
            import threading


            class Engine:
                def __init__(self):
                    self._lock = threading.RLock()

                def merge(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_transitive_self_deadlock_through_call_flagged(self):
        source = dedent(
            """
            import threading


            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP009"]
        assert "re-acquires" in findings[0].message

    def test_cross_class_lock_cycle_flagged_on_both_paths(self):
        source = dedent(
            """
            import threading


            class Coordinator:
                def __init__(self, supervisor):
                    self._lock = threading.Lock()
                    self._sup = Supervisor()

                def merge(self):
                    with self._lock:
                        self._sup.replan()

                def absorb(self):
                    with self._lock:
                        pass


            class Supervisor:
                def __init__(self):
                    self._lock = threading.Lock()

                def replan(self):
                    with self._lock:
                        pass

                def harvest(self):
                    with self._lock:
                        coord = Coordinator(self)
                        coord.absorb()
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert {f.rule for f in findings} == {"REP009"}
        assert len(findings) == 2, "one finding per edge of the cycle"
        assert all("lock-order cycle" in f.message for f in findings)

    def test_consistent_order_clean(self):
        source = dedent(
            """
            import threading


            class Coordinator:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sup = Supervisor()

                def merge(self):
                    with self._lock:
                        self._sup.replan()


            class Supervisor:
                def __init__(self):
                    self._lock = threading.Lock()

                def replan(self):
                    with self._lock:
                        pass
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_pragma_blesses_impossible_interleaving(self):
        source = dedent(
            """
            import threading


            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def merge(self):
                    with self._lock:
                        with self._lock:  # repro: allow[lock-ordering] fixture
                            pass
            """
        )
        assert analyze_source(source, APP_PATH) == []


# --------------------------------------------------------------------------- #
# REP010 funnel-escape (interprocedural REP001)
# --------------------------------------------------------------------------- #
class TestFunnelEscape:
    def test_model_into_engine_named_parameter_flagged_at_call_site(self):
        source = dedent(
            """
            def run_batch(engine, x):
                return engine.predict(x)


            def attack(model, x):
                return run_batch(model, x)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP010", 6)]
        assert "engine-named parameter 'engine'" in findings[0].message

    def test_keyword_argument_escape_flagged(self):
        source = dedent(
            """
            def run_batch(engine, x):
                return engine.predict(x)


            def attack(model, x):
                return run_batch(x=x, engine=model)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP010", 6)]

    def test_query_on_model_returning_call_flagged(self):
        source = dedent(
            """
            def get_model():
                model = load()
                return model


            def attack(x):
                return get_model().predict(x)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP010", 7)]
        assert "return value of get_model()" in findings[0].message

    def test_engine_named_local_bound_to_model_flagged(self):
        source = dedent(
            """
            def get_model():
                model = load()
                return model


            def attack(x):
                engine = get_model()
                return engine.predict(x)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP010", 8)]
        assert "wearing the funnel's name" in findings[0].message

    def test_transitive_model_return_chain_tracked(self):
        source = dedent(
            """
            def load_model():
                model = build()
                return model


            def get_backend():
                return load_model()


            def attack(x):
                return get_backend().predict(x)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP010", 11)]

    def test_real_engine_values_clean(self):
        source = dedent(
            """
            def run_batch(engine, x):
                return engine.predict(x)


            def campaign(policy, model, x):
                engine = policy.build_engine(model)
                return run_batch(engine, x)
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_engine_layer_exempt(self):
        source = dedent(
            """
            def run_batch(engine, x):
                return engine.predict(x)


            def attack(model, x):
                return run_batch(model, x)
            """
        )
        assert analyze_source(source, "src/repro/engine/batching.py") == []

    def test_pragma_blesses_whitebox_helper(self):
        source = dedent(
            """
            def run_batch(engine, x):
                return engine.predict(x)


            def attack(model, x):
                return run_batch(model, x)  # repro: allow[funnel-escape] whitebox
            """
        )
        assert analyze_source(source, APP_PATH) == []


# --------------------------------------------------------------------------- #
# REP011 iteration-order
# --------------------------------------------------------------------------- #
class TestIterationOrder:
    def test_for_over_set_local_flagged(self):
        source = dedent(
            """
            def plan(items):
                pending = set(items)
                out = []
                for item in pending:
                    out.append(item)
                return out
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP011", 4)]
        assert "hash-seed dependent" in findings[0].message

    def test_set_annotated_parameter_flagged(self):
        source = dedent(
            """
            def plan(shards: set):
                return [s for s in shards]
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [(f.rule, f.line) for f in findings] == [("REP011", 2)]

    def test_typed_set_annotation_flagged(self):
        source = dedent(
            """
            from typing import Set


            def plan(shards: Set[int]):
                return list(shards)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP011"]

    def test_module_level_set_constant_flagged(self):
        source = dedent(
            """
            KNOWN = {"a", "b"}


            def dump():
                return [k for k in KNOWN]
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP011"]
        assert "KNOWN" in findings[0].message

    def test_set_valued_self_attribute_flagged(self):
        source = dedent(
            """
            class Planner:
                def __init__(self):
                    self.pending = set()

                def drain(self):
                    for item in self.pending:
                        yield item
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP011"]
        assert "self.pending" in findings[0].message

    def test_sorted_iteration_clean(self):
        source = dedent(
            """
            def plan(shards: set):
                out = []
                for shard in sorted(shards):
                    out.append(shard)
                return [s for s in sorted(shards)]
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_order_insensitive_reducers_clean(self):
        source = dedent(
            """
            def stats(values: set):
                return (
                    sum(values),
                    min(values),
                    max(values),
                    len(values),
                    any(v > 0 for v in values),
                )
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_building_a_set_discards_order_clean(self):
        source = dedent(
            """
            def dedupe(shards: set, extra):
                return {s for s in shards} | set(extra)
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_list_materialization_of_set_flagged(self):
        source = dedent(
            """
            def snapshot(shards: set):
                return list(shards)
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP011"]
        assert "list()" in findings[0].message

    def test_membership_and_mutation_clean(self):
        source = dedent(
            """
            def track(seen: set, item):
                if item in seen:
                    return False
                seen.add(item)
                return True
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_pragma_blesses_order_free_consumer(self):
        source = dedent(
            """
            def purge(stale: set, entries):
                for key in stale:  # repro: allow[iteration-order] deletes commute
                    del entries[key]
            """
        )
        assert analyze_source(source, APP_PATH) == []


# --------------------------------------------------------------------------- #
# decorated-statement pragma spans
# --------------------------------------------------------------------------- #
class TestDecoratedPragmas:
    def test_pragma_above_decorator_suppresses_finding_at_def_line(self):
        source = dedent(
            """
            class Estimate:
                # repro: allow[dict-round-trip] loader backfills variance
                @staticmethod
                def to_dict():
                    return {"pmi": 1}

                @classmethod
                def from_dict(cls, data):
                    return cls(pmi=data["pmi"], variance=data["variance"])
            """
        )
        assert analyze_source(source, APP_PATH) == []

    def test_without_pragma_decorated_serializer_still_flagged(self):
        source = dedent(
            """
            class Estimate:
                @staticmethod
                def to_dict():
                    return {"pmi": 1}

                @classmethod
                def from_dict(cls, data):
                    return cls(pmi=data["pmi"], variance=data["variance"])
            """
        )
        findings = analyze_source(source, APP_PATH)
        assert [f.rule for f in findings] == ["REP005"]

    def test_expansion_unions_ids_across_the_span(self):
        import ast as ast_mod

        source = dedent(
            """
            @alpha  # repro: allow[engine-funnel]
            @beta
            def f(model, x):  # repro: allow[rng-discipline]
                return 1
            """
        )
        tree = ast_mod.parse(source)
        expanded = expand_decorated_pragmas(tree, collect_pragmas(source))
        for line in (1, 2, 3):
            assert is_suppressed(expanded, line, "REP001", "engine-funnel")
            assert is_suppressed(expanded, line, "REP002", "rng-discipline")
        assert not is_suppressed(expanded, 4, "REP001", "engine-funnel")

    def test_undecorated_statements_unaffected(self):
        import ast as ast_mod

        source = "x = 1  # repro: allow[engine-funnel]\ny = 2\n"
        tree = ast_mod.parse(source)
        expanded = expand_decorated_pragmas(tree, collect_pragmas(source))
        assert expanded == collect_pragmas(source)


# --------------------------------------------------------------------------- #
# --explain
# --------------------------------------------------------------------------- #
class TestExplain:
    def test_every_rule_docstring_has_example_and_fix(self):
        for rule in default_rules() + default_program_rules():
            sections = rule_doc_sections(type(rule))
            assert sections["rationale"], rule.rule_id
            assert sections["example"], f"{rule.rule_id} docstring lacks Example::"
            assert sections["fix"], f"{rule.rule_id} docstring lacks Fix::"

    def test_explain_by_id_and_slug(self):
        by_id = explain_rule("REP009")
        by_slug = explain_rule("lock-ordering")
        assert by_id == by_slug
        assert "Example:" in by_id and "Fix:" in by_id
        assert "repro: allow[lock-ordering]" in by_id

    def test_explain_unknown_rule_raises(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            explain_rule("REP999")

    def test_cli_explain_exits_zero_and_prints_sections(self, capsys):
        assert lint_main(["--explain", "REP010"]) == 0
        out = capsys.readouterr().out
        assert "REP010 [funnel-escape]" in out
        assert "Example:" in out and "Fix:" in out

    def test_cli_explain_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--explain", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# SARIF output
# --------------------------------------------------------------------------- #
#: Trimmed (but faithful) subset of the SARIF 2.1.0 schema: the properties
#: GitHub code scanning actually consumes, with required fields and types as
#: the spec defines them.  Validated with jsonschema when available (dev
#: machines); the structural assertions below run everywhere.
SARIF_SCHEMA_SUBSET = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {"type": "string"}
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                                "partialFingerprints": {"type": "object"},
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def _findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        return analyze_paths([str(bad)]).findings

    def test_log_validates_against_sarif_schema(self, tmp_path):
        log = render_sarif(self._findings(tmp_path))
        try:
            import jsonschema
        except ImportError:
            jsonschema = None
        if jsonschema is not None:
            jsonschema.validate(log, SARIF_SCHEMA_SUBSET)
        # structural spot checks run with or without jsonschema
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (result,) = run["results"]
        assert result["ruleId"] == "REP001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] >= 1

    def test_rule_table_covers_all_rules(self, tmp_path):
        log = render_sarif([])
        ids = [row["id"] for row in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        for rule_id in ("REP001", "REP008", "REP009", "REP010", "REP011"):
            assert rule_id in ids

    def test_rule_index_points_at_matching_descriptor(self, tmp_path):
        log = render_sarif(self._findings(tmp_path))
        run = log["runs"][0]
        (result,) = run["results"]
        descriptor = run["tool"]["driver"]["rules"][result["ruleIndex"]]
        assert descriptor["id"] == result["ruleId"]

    def test_baselined_findings_carry_suppressions(self, tmp_path):
        findings = self._findings(tmp_path)
        log = render_sarif([], baselined=findings)
        (result,) = log["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "external"
        fresh = render_sarif(findings)
        assert "suppressions" not in fresh["runs"][0]["results"][0]

    def test_fingerprint_stable_across_line_moves(self, tmp_path):
        findings = self._findings(tmp_path)
        moved = [Finding(**dict(f.to_dict(), line=f.line + 7)) for f in findings]
        first = render_sarif(findings)["runs"][0]["results"][0]
        second = render_sarif(moved)["runs"][0]["results"][0]
        assert (
            first["partialFingerprints"]["reproLintKey/v1"]
            == second["partialFingerprints"]["reproLintKey/v1"]
        )

    def test_cli_sarif_flag_emits_parseable_log(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        assert lint_main([str(bad), "--no-baseline", "--sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert len(log["runs"][0]["results"]) == 1

    def test_sarif_and_json_flags_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            lint_main([str(tmp_path), "--sarif", "--json"])


# --------------------------------------------------------------------------- #
# --changed mode
# --------------------------------------------------------------------------- #
class TestChangedMode:
    def _git(self, cwd, *argv):
        import subprocess

        proc = subprocess.run(
            ["git", *argv], cwd=cwd, capture_output=True, text=True, timeout=30,
            env={
                "PATH": __import__("os").environ["PATH"],
                "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(cwd),
            },
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        clean = tmp_path / "clean.py"
        clean.write_text("def f(engine, x):\n    return engine.predict(x)\n")
        bad = tmp_path / "bad.py"
        bad.write_text("def f(model, x):\n    return model.predict(x)\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        return clean, bad

    def test_changed_scopes_report_to_touched_files(self, tmp_path, capsys, monkeypatch):
        clean, bad = self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        # bad.py is committed and untouched: full lint fails, --changed passes
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        capsys.readouterr()
        assert lint_main([str(tmp_path), "--no-baseline", "--changed"]) == 0
        # touching the violating file brings its findings back in scope
        bad.write_text(bad.read_text() + "\n# touched\n")
        capsys.readouterr()
        assert lint_main([str(tmp_path), "--no-baseline", "--changed"]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_untracked_files_count_as_changed(self, tmp_path, capsys, monkeypatch):
        self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        fresh = tmp_path / "fresh.py"
        fresh.write_text("def g(model, x):\n    return model.predict(x)\n")
        assert lint_main([str(tmp_path), "--no-baseline", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "bad.py" not in out

    def test_changed_outside_git_exits_two(self, tmp_path, capsys, monkeypatch):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        (lonely / "mod.py").write_text("x = 1\n")
        monkeypatch.chdir(lonely)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        assert lint_main([str(lonely), "--no-baseline", "--changed"]) == 2
        assert "failed" in capsys.readouterr().err
