"""Runtime API: ExecutionPolicy, the engine factory, CampaignSpec.

* ``ExecutionPolicy`` / ``CampaignSpec`` serialize exactly (dict and file
  round-trips) and reject unknown keys and ill-typed values.
* ``ExecutionPolicy.build_engine`` builds the in-process query engine the
  policy describes, or passes an existing engine through.
* Every subsystem takes one ``policy`` parameter, type-checked at
  construction in the subsystem's own error class; a workflow policy
  reaches the fuzzer and the default assessor whole.
* ``python -m repro run --spec`` records the spec document verbatim,
  ``show`` renders it, and ``run --from-run`` re-launches from it.
"""

import json
import warnings

import numpy as np
import pytest

from repro.data import build_partition_for_dataset
from repro.engine import BatchedQueryEngine, QueryCache
from repro.evaluation.scenarios import Scenario
from repro.exceptions import (
    AttackError,
    ConfigurationError,
    FuzzingError,
    ReliabilityError,
)
from repro.fuzzing import FuzzerConfig
from repro.reliability import ReliabilityAssessor
from repro.runtime import CampaignSpec, ExecutionPolicy
from repro.types import Classifier


# --------------------------------------------------------------------------- #
# ExecutionPolicy: serialization and validation
# --------------------------------------------------------------------------- #
class TestExecutionPolicy:
    def test_dict_roundtrip_is_exact(self):
        policy = ExecutionPolicy(
            batch_size=128,
            cache=True,
            cache_max_entries=99,
            checkpoint_every=2,
        )
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_to_dict_is_json_safe(self):
        payload = ExecutionPolicy().to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_file_roundtrip(self, tmp_path):
        policy = ExecutionPolicy(batch_size=77, cache=True, checkpoint_every=5)
        path = tmp_path / "nested" / "policy.json"
        policy.to_file(path)
        assert ExecutionPolicy.from_file(path) == policy

    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "policy.toml"
        path.write_text('batch_size = 64\ncheckpoint_every = 2\ncache = true\n')
        policy = ExecutionPolicy.from_file(path)
        assert policy.batch_size == 64
        assert policy.checkpoint_every == 2
        assert policy.cache is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ExecutionPolicy"):
            ExecutionPolicy.from_dict({"cache": True, "warp_factor": 9})
        # fields of the retired process pool, of the retired durable cache,
        # of the retired thread pool and the retired one-value RNG rule: a
        # stored policy naming one fails at load, and the error names the key
        for key, value in (
            ("transport", "auto"),
            ("start_method", None),
            ("retry", None),
            ("faults", None),
            ("cache_dir", None),
            ("backend", "batched"),
            ("num_workers", 1),
            ("rng_spawning", "per-seed"),
            ("rng_spawning", "global"),
        ):
            with pytest.raises(ConfigurationError, match=f"'{key}'"):
                ExecutionPolicy.from_dict({"cache": True, key: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"telemetry": "yes"},
            {"batch_size": 0},
            {"cache_max_entries": 0},
            {"checkpoint_every": -1},
            {"cache": "yes"},
            # counts must be Python ints, or they would be truncated where
            # used (a cadence of 0.5 becomes 0 and breaks the checkpointer)
            {"checkpoint_every": 0.5},
            {"batch_size": 2.5},
            {"batch_size": True},
            {"cache_max_entries": 1.5},
            {"batch_size": "8"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=field):
            ExecutionPolicy(**kwargs)

    def test_replace_validates(self):
        policy = ExecutionPolicy()
        assert policy.replace(batch_size=4).batch_size == 4
        with pytest.raises(ConfigurationError):
            policy.replace(batch_size=0)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            policy.replace(checkpoint_every=0.5)


# --------------------------------------------------------------------------- #
# the engine factory
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    """``ExecutionPolicy.build_engine``: the one way to build a query engine."""

    def test_engines_and_models_satisfy_model_backend(self, trained_cluster_model):
        assert isinstance(trained_cluster_model, Classifier)
        engine = BatchedQueryEngine(trained_cluster_model)
        assert isinstance(engine, Classifier)

    def test_build_engine_applies_the_policy(
        self, trained_cluster_model, cluster_naturalness
    ):
        policy = ExecutionPolicy(batch_size=7, cache=True, cache_max_entries=16)
        engine = policy.build_engine(trained_cluster_model, cluster_naturalness)
        assert type(engine) is BatchedQueryEngine
        assert engine.model is trained_cluster_model
        assert engine.naturalness is cluster_naturalness
        assert engine.batch_size == 7
        assert engine.cache.max_entries == 16
        assert ExecutionPolicy().build_engine(trained_cluster_model).cache is None

    def test_build_engine_passthrough_shares_engine(self, trained_cluster_model):
        owned = BatchedQueryEngine(trained_cluster_model, batch_size=3)
        assert ExecutionPolicy(batch_size=64).build_engine(owned) is owned
        assert owned.batch_size == 3  # the engine's own configuration wins

    def test_build_engine_attaches_scorer_on_passthrough(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=4)
        assert ExecutionPolicy().build_engine(engine, cluster_naturalness) is engine
        x = operational_cluster_data.x[:12]
        np.testing.assert_array_equal(
            engine.score_naturalness(x), cluster_naturalness.score(x, log=True)
        )


# --------------------------------------------------------------------------- #
# what replaced the legacy knob shims: one type-checked policy per owner
# --------------------------------------------------------------------------- #
@pytest.fixture()
def scenario(
    clusters_split,
    trained_cluster_model,
    cluster_profile,
    cluster_naturalness,
    operational_cluster_data,
    clusters_dataset,
):
    train, test = clusters_split
    return Scenario(
        name="fixture-clusters",
        train_data=train,
        test_data=test,
        operational_data=operational_cluster_data,
        model=trained_cluster_model,
        profile=cluster_profile,
        naturalness=cluster_naturalness,
        partition=build_partition_for_dataset(
            clusters_dataset.x, scheme="grid", bins_per_dim=4
        ),
        operational_priors=np.array([0.55, 0.25, 0.15, 0.05]),
    )


class TestLegacyKnobShims:
    """The per-object execution knobs are gone: every owner takes exactly one
    ``policy``, checked at construction."""

    def test_fuzzer_default_policy(self):
        cfg = FuzzerConfig()
        # the same default as every other subsystem: in-process, no cache
        assert cfg.policy == ExecutionPolicy()
        assert cfg.policy.cache is False

    def test_workflow_policy_drives_cadence_and_assessor(
        self, cluster_profile, clusters_split, cluster_naturalness
    ):
        from repro.core import OperationalTestingLoop, WorkflowConfig

        policy = ExecutionPolicy(
            batch_size=64,
            cache=True,
            checkpoint_every=3,
            telemetry=True,
        )
        loop = OperationalTestingLoop(
            profile=cluster_profile,
            train_data=clusters_split[0],
            naturalness=cluster_naturalness,
            fuzzer_config=FuzzerConfig(policy=ExecutionPolicy(checkpoint_every=5)),
            workflow_config=WorkflowConfig(policy=policy),
            rng=0,
        )
        assert loop.config.checkpoint_cadence == 3
        # the workflow policy replaces the fuzzer's whole policy (telemetry
        # included; the fuzzer reads no cadence) and is the default
        # assessor's, unchanged
        assert loop.fuzzer_config.policy == policy
        assert loop.fuzzer_config.policy.telemetry is True
        assert loop.assessor.policy == policy

    def test_workflow_policy_config_copies_warning_free(self):
        import dataclasses

        from repro.core import WorkflowConfig

        cfg = WorkflowConfig(policy=ExecutionPolicy(cache=True, checkpoint_every=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            copied = dataclasses.replace(cfg)
        assert copied.checkpoint_cadence == 3
        assert copied == cfg

    def test_wrong_typed_policy_rejected_at_construction(self, scenario):
        from repro.attacks import RandomFuzz
        from repro.core import WorkflowConfig
        from repro.reliability.cells import CellRobustnessEvaluator

        with pytest.raises(FuzzingError, match="ExecutionPolicy"):
            FuzzerConfig(policy="batched")
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            WorkflowConfig(policy={"cache": True})
        with pytest.raises(AttackError, match="ExecutionPolicy"):
            RandomFuzz(policy="batched")
        with pytest.raises(ReliabilityError, match="ExecutionPolicy"):
            ReliabilityAssessor(scenario.partition, scenario.profile, policy="batched")
        # positional arguments that once reached a knob now land on policy
        with pytest.raises(ReliabilityError, match="ExecutionPolicy"):
            CellRobustnessEvaluator(scenario.partition, 10, None, True, 64)
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            scenario.query_engine("batched")


# --------------------------------------------------------------------------- #
# Scenario.query_engine: policy routing
# --------------------------------------------------------------------------- #
class TestScenarioQueryEngine:
    def test_policy_selects_backend(self, scenario):
        engine = scenario.query_engine(policy=ExecutionPolicy(batch_size=9))
        assert type(engine) is BatchedQueryEngine
        assert engine.batch_size == 9
        assert engine.naturalness is scenario.naturalness

    def test_policy_cache_is_per_engine(self, scenario):
        assert scenario.query_engine().cache is None
        policy = ExecutionPolicy(cache=True, cache_max_entries=16)
        first, second = scenario.query_engine(policy), scenario.query_engine(policy)
        assert isinstance(first.cache, QueryCache)
        assert first.cache.max_entries == 16
        first.predict_proba(scenario.operational_data.x[:4])
        assert len(first.cache) == 4
        assert len(second.cache) == 0  # each engine owns a fresh cache


# --------------------------------------------------------------------------- #
# CampaignSpec: round-trips and validation
# --------------------------------------------------------------------------- #
class TestCampaignSpec:
    def _spec(self, **overrides):
        payload = {
            "name": "unit-spec",
            "seed": 7,
            "scenario": {"name": "two-moons", "samples": 200, "epochs": 3},
            "fuzzer": {"queries_per_seed": 5},
            "workflow": {"test_budget_per_iteration": 40, "seeds_per_iteration": 3},
            "stopping": {"target_pmi": 0.05, "max_iterations": 1},
            "policy": ExecutionPolicy(cache=True, checkpoint_every=1).to_dict(),
        }
        payload.update(overrides)
        return payload

    def test_dict_roundtrip_is_exact(self):
        spec = CampaignSpec.from_dict(self._spec())
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == self._spec()

    def test_file_roundtrip(self, tmp_path):
        spec = CampaignSpec.from_dict(self._spec())
        path = tmp_path / "campaign.json"
        spec.to_file(path)
        assert CampaignSpec.from_file(path) == spec

    def test_toml_spec_loads(self, tmp_path):
        path = tmp_path / "campaign.toml"
        path.write_text(
            '\n'.join(
                (
                    'seed = 3',
                    '[scenario]',
                    'name = "two-moons"',
                    '[policy]',
                    'checkpoint_every = 2',
                    'cache = true',
                )
            )
        )
        spec = CampaignSpec.from_file(path)
        assert spec.seed == 3
        assert spec.policy.cache is True

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown campaign-spec keys"):
            CampaignSpec.from_dict(self._spec(extra_section={}))

    def test_unknown_section_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            CampaignSpec.from_dict(self._spec(fuzzer={"queries_per_sseed": 5}))
        with pytest.raises(ConfigurationError, match="unknown key"):
            CampaignSpec.from_dict(self._spec(workflow={"budget": 40}))
        # specs naming a field of the retired process pool or of the retired
        # durable cache fail at load, in the policy section and in any
        # other, naming the key
        for key, value in (
            ("transport", "auto"),
            ("start_method", None),
            ("retry", None),
            ("faults", None),
            ("cache_dir", None),
        ):
            with pytest.raises(ConfigurationError, match=f"'{key}'"):
                CampaignSpec.from_dict(self._spec(policy={key: value}))
            with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
                CampaignSpec.from_dict(self._spec(workflow={key: value}))

    def test_legacy_knobs_in_sections_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            CampaignSpec.from_dict(self._spec(fuzzer={"batch_size": 2}))
        with pytest.raises(ConfigurationError, match="policy"):
            CampaignSpec.from_dict(self._spec(workflow={"cache_max_entries": 16}))
        # derived from ExecutionPolicy's fields, so newer ones are covered too
        with pytest.raises(ConfigurationError, match="'policy' section"):
            CampaignSpec.from_dict(self._spec(workflow={"telemetry": True}))
        # the control-flow values stay allowed
        spec = CampaignSpec.from_dict(self._spec(fuzzer={"execution": "sequential"}))
        assert spec.fuzzer["execution"] == "sequential"

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="seed"):
            CampaignSpec.from_dict(self._spec(seed=None))
        with pytest.raises(ConfigurationError, match="seed"):
            CampaignSpec.from_dict(self._spec(seed="2021"))

    def test_scenario_section_requires_name(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            CampaignSpec.from_dict(self._spec(scenario={"samples": 10}))
        with pytest.raises(ConfigurationError, match="scenario"):
            CampaignSpec.from_dict({"seed": 1})

    def test_campaign_name_defaults_to_scenario(self):
        spec = CampaignSpec.from_dict(self._spec(name=None))
        assert spec.campaign_name == "two-moons"


# --------------------------------------------------------------------------- #
# CLI: --spec records verbatim, show renders, --from-run re-launches
# --------------------------------------------------------------------------- #
class TestSpecCli:
    SPEC = {
        "name": "cli-spec",
        "seed": 2021,
        "scenario": {"name": "gaussian-clusters", "samples": 250, "epochs": 4},
        "fuzzer": {"queries_per_seed": 6},
        "workflow": {"test_budget_per_iteration": 60, "seeds_per_iteration": 4},
        "stopping": {"target_pmi": 0.02, "max_iterations": 1},
        "policy": {"cache": True, "checkpoint_every": 1},
    }

    def test_spec_run_records_verbatim_and_relaunches(self, tmp_path, capsys):
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(self.SPEC))
        base = ["--runs-dir", runs_dir]

        assert cli_main(base + ["run", "--spec", str(spec_path)]) == 0
        registry = RunRegistry(runs_dir)
        first = registry.get("run-0001")
        assert first.status == "completed"
        # the registry records the on-disk document verbatim, not a
        # normalised re-serialisation
        assert first.config["spec"] == json.loads(spec_path.read_text())

        capsys.readouterr()
        assert cli_main(base + ["show", "run-0001"]) == 0
        shown = capsys.readouterr().out
        assert "campaign spec:" in shown
        assert '"gaussian-clusters"' in shown

        # --from-run re-launches a new campaign from the stored spec and
        # reproduces it exactly (same seed, same spec => same artifacts)
        assert cli_main(base + ["run", "--from-run", "run-0001"]) == 0
        second = registry.get("run-0002")
        assert second.config["spec"] == first.config["spec"]
        assert (
            second.load_estimates()["final"].to_dict()
            == first.load_estimates()["final"].to_dict()
        )
        assert [ae.perturbed.tobytes() for ae in second.load_detections()] == [
            ae.perturbed.tobytes() for ae in first.load_detections()
        ]

    def test_spec_without_checkpoints_completes(self, tmp_path):
        # checkpoint_every 0 is a valid spec: the run completes and writes
        # no checkpoint
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(dict(self.SPEC, policy={"checkpoint_every": 0})))
        assert cli_main(["--runs-dir", runs_dir, "run", "--spec", str(spec_path)]) == 0
        run = RunRegistry(runs_dir).get("run-0001")
        assert run.status == "completed"
        assert run.load_estimates()["final"].queries > 0
        assert not run.checkpoint_path.exists()

    def test_malformed_spec_never_creates_a_run(self, tmp_path, capsys):
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        spec_path = tmp_path / "bad.json"
        for bad, message in (
            (dict(self.SPEC, fuzzer={"batch_size": 2}), "policy"),
            (dict(self.SPEC, policy={"checkpoint_every": 0.5}), "checkpoint_every"),
            # bad section values fail before a run is registered, not at build
            (dict(self.SPEC, fuzzer={"execution": "sharded"}), "spec section 'fuzzer'"),
            (dict(self.SPEC, stopping={"max_iterations": -3}), "spec section 'stopping'"),
            (
                dict(self.SPEC, workflow={"seeds_per_iteration": "many"}),
                "spec section 'workflow'",
            ),
            # fractional or boolean counts are not counts
            (
                dict(self.SPEC, workflow={"seeds_per_iteration": 2.5}),
                "spec section 'workflow'",
            ),
            (dict(self.SPEC, fuzzer={"stall_limit": 1.5}), "spec section 'fuzzer'"),
            (
                dict(self.SPEC, stopping={"max_iterations": True}),
                "spec section 'stopping'",
            ),
            # a string flag is not a flag: "false" would be truthy
            (dict(self.SPEC, fuzzer={"use_gradient": "false"}), "spec section 'fuzzer'"),
            # JSON's NaN would pass every range check
            (
                dict(self.SPEC, fuzzer={"naturalness_threshold": float("nan")}),
                "spec section 'fuzzer'",
            ),
        ):
            spec_path.write_text(json.dumps(bad))
            argv = ["--runs-dir", runs_dir, "run", "--spec", str(spec_path)]
            assert cli_main(argv) == 1
            assert message in capsys.readouterr().err
            assert RunRegistry(runs_dir).runs() == []

    def test_fractional_scenario_epochs_mark_the_run_failed(self, tmp_path, capsys):
        # the scenario section is read only when the campaign is built, so
        # the run is registered; the trainer's config then names the count,
        # where range() in Trainer.fit raised a bare TypeError
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        spec_path = tmp_path / "campaign.json"
        spec = dict(self.SPEC, scenario={"name": "two-moons", "epochs": 2.5})
        spec_path.write_text(json.dumps(spec))
        assert cli_main(["--runs-dir", runs_dir, "run", "--spec", str(spec_path)]) == 1
        assert "epochs must be an integer" in capsys.readouterr().err
        assert RunRegistry(runs_dir).get("run-0001").status == "failed"

    def test_from_run_requires_stored_spec(self, tmp_path, capsys):
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        RunRegistry(runs_dir).create("old-format", {"scenario": "two-moons"})
        assert cli_main(["--runs-dir", runs_dir, "run", "--from-run", "run-0001"]) == 1
        assert "spec" in capsys.readouterr().err
