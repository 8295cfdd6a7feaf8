"""Tests for repro.store: checkpoint/resume, registry + CLI."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OperationalTestingLoop, WorkflowConfig
from repro.engine import QueryStats
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ReliabilityError,
    StoreError,
)
from repro.fuzzing import FuzzerConfig
from repro.reliability import ReliabilityEstimate, StoppingRule
from repro.retraining import RetrainingConfig
from repro.runtime import ExecutionPolicy
from repro.store import (
    RunRegistry,
    campaign_fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.store.cli import main as cli_main
from repro.types import AdversarialExample, CampaignReport, IterationReport


class _KillingRule(StoppingRule):
    """Stopping rule that crashes the loop after ``kill_after`` iterations.

    Carries no extra dataclass fields, so its configuration values — and
    therefore the campaign fingerprint — match a plain StoppingRule.
    """

    kill_after = 1

    def should_stop(self, estimate, iteration, test_cases_used):
        if iteration >= self.kill_after:
            raise RuntimeError("killed mid-campaign")
        return super().should_stop(estimate, iteration, test_cases_used)


# --------------------------------------------------------------------------- #
# serialization round-trips used by the registry
# --------------------------------------------------------------------------- #
class TestQueryStatsRoundTrip:
    def test_to_from_dict_roundtrip(self):
        stats = QueryStats(
            rows_queried=10,
            model_calls=3,
            cache_hits=4,
            gradient_rows=5,
            gradient_calls=2,
            naturalness_rows=7,
            naturalness_calls=1,
        )
        assert QueryStats.from_dict(stats.to_dict()) == stats

    def test_to_dict_is_json_safe(self):
        assert json.loads(json.dumps(QueryStats().to_dict())) == QueryStats().to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            QueryStats.from_dict({"rows_queried": 1, "bogus": 2})

    def test_from_dict_accepts_partial(self):
        stats = QueryStats.from_dict({"model_calls": 9})
        assert stats.model_calls == 9
        assert stats.rows_queried == 0


class TestReliabilityEstimateRoundTrip:
    def test_roundtrip(self):
        estimate = ReliabilityEstimate(
            pmi=0.05,
            pmi_upper=0.09,
            pmi_lower=0.02,
            operational_accuracy=0.95,
            confidence=0.9,
            cells_evaluated=12,
            total_op_mass_evaluated=0.8,
            queries=345,
        )
        assert ReliabilityEstimate.from_dict(estimate.to_dict()) == estimate

    def test_rejects_unknown_fields(self):
        with pytest.raises(ReliabilityError):
            ReliabilityEstimate.from_dict({"pmi": 0.1, "bogus": 1})


# --------------------------------------------------------------------------- #
# checkpoint primitives
# --------------------------------------------------------------------------- #
class TestCheckpointPrimitives:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "state.pkl"
        payload = {"rng": np.random.default_rng(5), "values": np.arange(4.0)}
        write_checkpoint(path, payload)
        loaded = read_checkpoint(path)
        np.testing.assert_array_equal(loaded["values"], np.arange(4.0))
        # generators round-trip their exact stream
        assert loaded["rng"].random() == np.random.default_rng(5).random()

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "absent.pkl")

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_foreign_pickle_raises(self, tmp_path):
        path = tmp_path / "foreign.pkl"
        path.write_bytes(pickle.dumps({"unrelated": True}))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_fingerprint_sensitive_to_inputs(self):
        a = campaign_fingerprint(np.arange(4.0), extra="x")
        assert a == campaign_fingerprint(np.arange(4.0), extra="x")
        assert a != campaign_fingerprint(np.arange(5.0), extra="x")
        assert a != campaign_fingerprint(np.arange(4.0), extra="y")


# --------------------------------------------------------------------------- #
# workflow checkpoint/resume (acceptance: identical reliability estimates)
# --------------------------------------------------------------------------- #
class TestWorkflowCheckpointResume:
    def _build_loop(
        self, profile, train, naturalness, stopping_rule, checkpoint_every=1,
        **workflow_kwargs,
    ):
        return OperationalTestingLoop(
            profile=profile,
            train_data=train,
            naturalness=naturalness,
            fuzzer_config=FuzzerConfig(epsilon=0.1, queries_per_seed=8),
            retraining_config=RetrainingConfig(epochs=2),
            stopping_rule=stopping_rule,
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=100,
                seeds_per_iteration=6,
                policy=ExecutionPolicy(cache=True, checkpoint_every=checkpoint_every),
                **workflow_kwargs,
            ),
            rng=21,
        )

    def test_killed_loop_resumes_bit_identical(
        self,
        tmp_path,
        cluster_profile,
        clusters_split,
        cluster_naturalness,
        trained_cluster_model,
        operational_cluster_data,
    ):
        train, _ = clusters_split
        rule = StoppingRule(target_pmi=1e-6, max_iterations=3)

        uninterrupted = self._build_loop(
            cluster_profile, train, cluster_naturalness, rule
        )
        model_a, report_a = uninterrupted.run(
            trained_cluster_model, operational_cluster_data
        )

        checkpoint = tmp_path / "loop.ckpt"
        killing_rule = _KillingRule(target_pmi=1e-6, max_iterations=3)
        dying = self._build_loop(
            cluster_profile, train, cluster_naturalness, killing_rule
        )
        with pytest.raises(RuntimeError, match="killed"):
            dying.run(
                trained_cluster_model,
                operational_cluster_data,
                checkpoint_path=str(checkpoint),
            )
        assert checkpoint.exists()

        resumed = self._build_loop(cluster_profile, train, cluster_naturalness, rule)
        model_b, report_b = resumed.run(
            trained_cluster_model,
            operational_cluster_data,
            resume_from=str(checkpoint),
        )

        digest = lambda report: [  # noqa: E731 - local comparison helper
            (
                it.iteration,
                it.seeds_selected,
                it.test_cases_used,
                it.aes_detected,
                it.pmi_before,
                it.pmi_after,
                it.operational_accuracy_after,
                it.target_met,
            )
            for it in report.iterations
        ]
        assert digest(report_a) == digest(report_b)
        assert uninterrupted.last_estimate.to_dict() == resumed.last_estimate.to_dict()
        for layer_a, layer_b in zip(model_a.get_weights(), model_b.get_weights()):
            for key in layer_a:
                np.testing.assert_array_equal(layer_a[key], layer_b[key])

    def test_checkpoint_written_every_cadence_iterations(
        self,
        tmp_path,
        cluster_profile,
        clusters_split,
        cluster_naturalness,
        trained_cluster_model,
        operational_cluster_data,
    ):
        # three iterations at a cadence of two: the one checkpoint is taken
        # after the second iteration and the third does not overwrite it
        train, _ = clusters_split
        rule = StoppingRule(target_pmi=1e-6, max_iterations=3)
        loop = self._build_loop(
            cluster_profile, train, cluster_naturalness, rule, checkpoint_every=2
        )
        checkpoint = tmp_path / "loop.ckpt"
        _, report = loop.run(
            trained_cluster_model,
            operational_cluster_data,
            checkpoint_path=str(checkpoint),
        )
        assert report.num_iterations == 3
        payload = read_checkpoint(checkpoint)
        assert payload["next_iteration"] == 2
        assert payload["report"].num_iterations == 2

    def test_checkpoint_path_without_cadence_raises(
        self,
        tmp_path,
        cluster_profile,
        clusters_split,
        cluster_naturalness,
        trained_cluster_model,
        operational_cluster_data,
    ):
        # a cadence of 0 would never write the checkpoint: the loop refuses
        # the path before any work, under an explicit checkpoint_every=0
        # and under the default workflow config (no policy)
        train, _ = clusters_split
        rule = StoppingRule(target_pmi=1e-6, max_iterations=1)
        checkpoint = tmp_path / "loop.ckpt"
        for loop in (
            self._build_loop(
                cluster_profile, train, cluster_naturalness, rule, checkpoint_every=0
            ),
            OperationalTestingLoop(
                profile=cluster_profile,
                train_data=train,
                naturalness=cluster_naturalness,
                stopping_rule=rule,
                rng=21,
            ),
        ):
            with pytest.raises(
                ConfigurationError, match=r"ExecutionPolicy\(checkpoint_every=N\)"
            ):
                loop.run(
                    trained_cluster_model,
                    operational_cluster_data,
                    checkpoint_path=str(checkpoint),
                )
            assert loop.last_estimate is None
        assert not checkpoint.exists()

    def test_resume_rejects_different_campaign(
        self,
        tmp_path,
        cluster_profile,
        clusters_split,
        cluster_naturalness,
        trained_cluster_model,
        operational_cluster_data,
    ):
        train, _ = clusters_split
        rule = StoppingRule(target_pmi=1e-6, max_iterations=2)
        checkpoint = tmp_path / "loop.ckpt"
        loop = self._build_loop(cluster_profile, train, cluster_naturalness, rule)
        loop.run(
            trained_cluster_model,
            operational_cluster_data,
            checkpoint_path=str(checkpoint),
        )
        different = self._build_loop(
            cluster_profile,
            train,
            cluster_naturalness,
            StoppingRule(target_pmi=1e-6, max_iterations=5),
        )
        with pytest.raises(ConfigurationError, match="different campaign"):
            different.run(
                trained_cluster_model,
                operational_cluster_data,
                resume_from=str(checkpoint),
            )


# --------------------------------------------------------------------------- #
# run registry
# --------------------------------------------------------------------------- #
def _sample_report():
    report = CampaignReport()
    report.append(
        IterationReport(
            iteration=0,
            seeds_selected=4,
            test_cases_used=30,
            aes_detected=2,
            pmi_before=0.08,
            pmi_after=0.05,
            operational_accuracy_before=0.92,
            operational_accuracy_after=0.95,
            reliability_target=0.02,
            target_met=False,
            notes={"fuzzer_model_calls": 7.0},
        )
    )
    return report


def _sample_detections():
    return [
        AdversarialExample(
            seed=np.arange(2.0),
            perturbed=np.arange(2.0) + 0.1,
            true_label=1,
            predicted_label=0,
            distance=0.1,
            naturalness=0.7,
            op_density=1.2,
            method="operational-fuzzer",
            queries=9,
        ),
        AdversarialExample(
            seed=np.ones(2),
            perturbed=np.ones(2) * 1.1,
            true_label=0,
            predicted_label=2,
            distance=0.1,
            naturalness=None,
            op_density=None,
            method="pgd",
            queries=4,
        ),
    ]


class TestRunRegistry:
    def test_create_assigns_sequential_ids(self, tmp_path):
        registry = RunRegistry(tmp_path)
        assert registry.create("a").run_id == "run-0001"
        assert registry.create("b").run_id == "run-0002"
        assert [run.run_id for run in registry.runs()] == ["run-0001", "run-0002"]

    def test_manifest_and_status_lifecycle(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run = registry.create("demo", {"seed": 7})
        assert run.status == "running"
        assert run.config == {"seed": 7}
        run.finish("completed")
        assert registry.get(run.run_id).status == "completed"
        with pytest.raises(StoreError):
            run.set_status("bogus")

    def test_report_roundtrip(self, tmp_path):
        run = RunRegistry(tmp_path).create("demo")
        report = _sample_report()
        run.save_report(report)
        loaded = run.load_report()
        assert loaded.total_aes == report.total_aes
        assert loaded.iterations[0] == report.iterations[0]
        assert loaded.final_pmi == report.final_pmi

    def test_detections_roundtrip(self, tmp_path):
        run = RunRegistry(tmp_path).create("demo")
        detections = _sample_detections()
        run.save_detections(detections)
        loaded = run.load_detections()
        assert len(loaded) == 2
        for original, restored in zip(detections, loaded):
            np.testing.assert_array_equal(original.seed, restored.seed)
            np.testing.assert_array_equal(original.perturbed, restored.perturbed)
            assert original.true_label == restored.true_label
            assert original.predicted_label == restored.predicted_label
            assert original.naturalness == restored.naturalness
            assert original.op_density == restored.op_density
            assert original.method == restored.method
            assert original.queries == restored.queries

    def test_empty_detections_roundtrip(self, tmp_path):
        run = RunRegistry(tmp_path).create("demo")
        run.save_detections([])
        assert run.load_detections() == []

    def test_stats_and_estimates_roundtrip(self, tmp_path):
        run = RunRegistry(tmp_path).create("demo")
        assert run.load_stats() is None
        assert run.load_estimates() == {}
        stats = QueryStats(rows_queried=11, model_calls=2)
        run.save_stats(stats)
        assert run.load_stats() == stats
        estimate = ReliabilityEstimate(
            pmi=0.04,
            pmi_upper=0.07,
            pmi_lower=0.01,
            operational_accuracy=0.96,
            confidence=0.9,
            cells_evaluated=5,
            total_op_mass_evaluated=0.8,
            queries=100,
        )
        run.save_estimates({"final": estimate})
        assert run.load_estimates() == {"final": estimate}

    def test_get_unknown_run_raises(self, tmp_path):
        with pytest.raises(StoreError):
            RunRegistry(tmp_path).get("run-9999")

    def test_gc_by_status_and_keep(self, tmp_path):
        registry = RunRegistry(tmp_path)
        first = registry.create("a")
        second = registry.create("b")
        third = registry.create("c")
        first.finish("completed")
        second.finish("failed")
        third.finish("failed")
        with pytest.raises(StoreError):
            registry.gc()  # refuses to delete everything
        # keep larger than the candidate count must delete nothing at all
        assert registry.gc(keep=5) == []
        assert len(registry.runs()) == 3
        assert registry.gc(status="failed", keep=1) == [second.run_id]
        assert registry.gc(status="failed") == [third.run_id]
        assert [run.run_id for run in registry.runs()] == [first.run_id]


# --------------------------------------------------------------------------- #
# CLI (python -m repro) end-to-end
# --------------------------------------------------------------------------- #
class TestCli:
    RUN_ARGS = [
        "run",
        "--scenario",
        "gaussian-clusters",
        "--samples",
        "250",
        "--epochs",
        "4",
        "--iterations",
        "1",
        "--budget",
        "60",
        "--seeds-per-iteration",
        "4",
        "--queries-per-seed",
        "6",
        "--checkpoint-every",
        "1",
        "--seed",
        "2021",
    ]

    def test_run_show_ls_gc_roundtrip(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        base = ["--runs-dir", runs_dir]
        assert cli_main(base + self.RUN_ARGS) == 0
        # the same campaign again: the second run computes exactly what the
        # first did
        assert cli_main(base + self.RUN_ARGS) == 0
        registry = RunRegistry(runs_dir)
        first, second = registry.runs()
        assert first.status == second.status == "completed"
        assert first.load_stats() == second.load_stats()
        assert _detection_digest(first) == _detection_digest(second)
        assert (
            first.load_estimates()["final"].to_dict()
            == second.load_estimates()["final"].to_dict()
        )

        capsys.readouterr()
        assert cli_main(base + ["ls"]) == 0
        listing = capsys.readouterr().out
        assert "run-0001" in listing and "run-0002" in listing

        assert cli_main(base + ["show", "run-0001"]) == 0
        shown = capsys.readouterr().out
        assert "engine stats" in shown
        assert "reliability estimates" in shown

        assert cli_main(base + ["gc", "--keep", "1"]) == 0
        assert [run.run_id for run in registry.runs()] == ["run-0002"]

    def test_reader_closing_early_exits_without_a_traceback(self, tmp_path):
        # `python -m repro show run-0001 | head -5`: the reader closes the
        # pipe before the command has written; the command exits 1 quietly
        runs_dir = str(tmp_path / "runs")
        assert cli_main(["--runs-dir", runs_dir] + self.RUN_ARGS) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for command in (["show", "run-0001"], ["ls"], ["ls", "--json"]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--runs-dir", runs_dir, *command],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1, (command, stderr)
            assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr

    def test_flag_launched_run_records_the_default_policy(self, tmp_path):
        # the flags set only the checkpoint cadence: the query cache stays
        # at the policy default (off), as everywhere else
        runs_dir = str(tmp_path / "runs")
        assert cli_main(["--runs-dir", runs_dir] + self.RUN_ARGS) == 0
        spec = RunRegistry(runs_dir).get("run-0001").config["spec"]
        assert spec["policy"] == ExecutionPolicy(checkpoint_every=1).to_dict()
        assert spec["policy"]["cache"] is False

    def test_retired_engine_flag_exits_two(self, tmp_path, capsys):
        # a spec's "fuzzer": {"execution": "sequential"} selects the
        # reference loop; no flag does
        runs_dir = str(tmp_path / "runs")
        argv = ["--runs-dir", runs_dir] + self.RUN_ARGS + ["--engine", "sequential"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert RunRegistry(runs_dir).runs() == []

    def test_resume_completed_run_is_a_noop(self, tmp_path, capsys):
        base = ["--runs-dir", str(tmp_path / "runs")]
        assert cli_main(base + self.RUN_ARGS) == 0
        capsys.readouterr()
        assert cli_main(base + ["resume", "run-0001"]) == 0
        assert "already completed" in capsys.readouterr().out

    def test_resume_interrupted_run_completes(self, tmp_path):
        runs_dir = str(tmp_path / "runs")
        base = ["--runs-dir", runs_dir]
        assert cli_main(base + self.RUN_ARGS) == 0
        registry = RunRegistry(runs_dir)
        run = registry.get("run-0001")
        reference = run.load_report()
        # pretend the process died after its last checkpoint: the status is
        # still "running" and the checkpoint file is in place
        run.set_status("running")
        assert run.checkpoint_path.exists()
        assert cli_main(base + ["resume", "run-0001"]) == 0
        resumed = registry.get("run-0001")
        assert resumed.status == "completed"
        restored = resumed.load_report()
        assert restored.final_pmi == reference.final_pmi
        assert restored.total_aes == reference.total_aes

    def test_resume_without_checkpoint_errors(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        registry = RunRegistry(runs_dir)
        registry.create("demo", {"scenario": "gaussian-clusters", "seed": 1})
        assert cli_main(["--runs-dir", runs_dir, "resume", "run-0001"]) == 1
        assert "no checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", ["shard_retries", "cache_corrupt_records"])
    def test_stats_with_retired_counters_fail_show_but_not_ls(
        self, tmp_path, capsys, retired
    ):
        # a stats.json written before a counter was removed: the process
        # pool's fault counters, or the persistent cache's corrupt records
        runs_dir = str(tmp_path / "runs")
        run = RunRegistry(runs_dir).create("old", {})
        stats = dict(QueryStats(rows_queried=3, model_calls=1).to_dict())
        stats[retired] = 0
        (run.path / "stats.json").write_text(json.dumps(stats))
        capsys.readouterr()
        # show fails loudly, naming the unknown field ...
        assert cli_main(["--runs-dir", runs_dir, "show", run.run_id]) == 1
        assert retired in capsys.readouterr().err
        # ... while the registry listing does not read stats.json at all
        assert cli_main(["--runs-dir", runs_dir, "ls", "--json"]) == 0
        (listed,) = json.loads(capsys.readouterr().out)
        assert listed["run_id"] == run.run_id

    def test_unbuildable_campaign_marks_run_failed(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        args = ["--runs-dir", runs_dir] + self.RUN_ARGS[:]
        args[args.index("gaussian-clusters")] = "no-such-scenario"
        assert cli_main(args) == 1
        assert "unknown scenario" in capsys.readouterr().err
        # the run must not be wedged in "running": gc --status failed can
        # collect it
        registry = RunRegistry(runs_dir)
        assert registry.get("run-0001").status == "failed"
        assert registry.gc(status="failed") == ["run-0001"]


# --------------------------------------------------------------------------- #
# CLI: resume fingerprint mismatch exits 2 with a one-line diagnosis
# --------------------------------------------------------------------------- #
class TestResumeFingerprintDiagnosis:
    def _tiny_run_argv(self, runs_dir):
        return [
            "--runs-dir", str(runs_dir), "run",
            "--scenario", "two-moons", "--samples", "80", "--epochs", "4",
            "--iterations", "1", "--budget", "40",
            "--seeds-per-iteration", "3", "--queries-per-seed", "5",
        ]

    def test_mismatched_checkpoint_exits_two(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert cli_main(self._tiny_run_argv(runs_dir)) == 0
        checkpoint = runs_dir / "run-0001" / "checkpoint.pkl"
        assert checkpoint.exists()
        # put the run back into a resumable state with a foreign checkpoint
        registry_file = runs_dir / "run-0001" / "run.json"
        import json

        record = json.loads(registry_file.read_text())
        record["status"] = "failed"
        registry_file.write_text(json.dumps(record))
        data = pickle.loads(checkpoint.read_bytes())
        expected = data["payload"]["fingerprint"]
        data["payload"]["fingerprint"] = "deadbeef"
        checkpoint.write_bytes(pickle.dumps(data))

        capsys.readouterr()
        assert cli_main(["--runs-dir", str(runs_dir), "resume", "run-0001"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnosis
        assert str(checkpoint) in err
        assert "deadbeef" in err and expected in err

    def test_refused_resume_keeps_the_stored_trace(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        argv = self._tiny_run_argv(runs_dir) + ["--telemetry", "--checkpoint-every", "1"]
        assert cli_main(argv) == 0
        run_dir = runs_dir / "run-0001"
        trace, metrics = run_dir / "trace.jsonl", run_dir / "metrics.json"
        before = (trace.read_bytes(), metrics.read_bytes())
        assert json.loads(before[1])["metrics"], "the campaign recorded metrics"
        # edit the stored spec (the checkpoint no longer matches it) and put
        # the run back into a resumable state
        registry_file = run_dir / "run.json"
        record = json.loads(registry_file.read_text())
        record["config"]["spec"]["fuzzer"]["queries_per_seed"] += 1
        record["status"] = "failed"
        registry_file.write_text(json.dumps(record))

        capsys.readouterr()
        assert cli_main(["--runs-dir", str(runs_dir), "resume", "run-0001"]) == 2
        # the refused resume recorded nothing, so it overwrote nothing
        assert (trace.read_bytes(), metrics.read_bytes()) == before


def _detection_digest(run):
    return [
        (ae.true_label, ae.predicted_label, ae.perturbed.tobytes())
        for ae in run.load_detections()
    ]
