"""Runtime API: ExecutionPolicy, the backend registry, CampaignSpec.

* ``ExecutionPolicy`` / ``CampaignSpec`` serialize exactly (dict and file
  round-trips) and reject unknown keys and unknown backend names.
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
from repro.fuzzing import DEFAULT_FUZZER_POLICY, FuzzerConfig
from repro.reliability import ReliabilityAssessor
from repro.runtime import (
    CampaignSpec,
    ExecutionPolicy,
    ModelBackend,
    ReplicatedBackend,
    SequentialBackend,
    available_backends,
    register_backend,
    unregister_backend,
)


# --------------------------------------------------------------------------- #
# ExecutionPolicy: serialization and validation
# --------------------------------------------------------------------------- #
class TestExecutionPolicy:
    def test_dict_roundtrip_is_exact(self):
        policy = ExecutionPolicy(
            backend="sharded",
            num_workers=3,
            transport="shm",
            batch_size=128,
            cache=True,
            cache_max_entries=99,
            cache_dir="/tmp/some-cache",
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
        path.write_text('backend = "sharded"\nnum_workers = 2\ncache = true\n')
        policy = ExecutionPolicy.from_file(path)
        assert policy.backend == "sharded"
        assert policy.num_workers == 2
        assert policy.cache is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ExecutionPolicy"):
            ExecutionPolicy.from_dict({"backend": "batched", "warp_factor": 9})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            ExecutionPolicy(backend="quantum")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"transport": "carrier-pigeon"},
            {"batch_size": 0},
            {"cache_max_entries": 0},
            {"checkpoint_every": -1},
            {"rng_spawning": "global"},
            {"cache": "yes"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**kwargs)

    def test_replace_validates(self):
        policy = ExecutionPolicy()
        assert policy.replace(num_workers=4).num_workers == 4
        with pytest.raises(ConfigurationError):
            policy.replace(backend="quantum")

    def test_cache_dir_coerced_to_str(self, tmp_path):
        policy = ExecutionPolicy(cache=True, cache_dir=tmp_path)
        assert policy.cache_dir == str(tmp_path)
        assert json.loads(json.dumps(policy.to_dict()))["cache_dir"] == str(tmp_path)


# --------------------------------------------------------------------------- #
# the backend registry and the engine factory
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_shipping_backends_registered(self):
        assert set(available_backends()) >= {"batched", "sharded"}

    def test_engines_and_models_satisfy_model_backend(self, trained_cluster_model):
        assert isinstance(trained_cluster_model, ModelBackend)
        engine = BatchedQueryEngine(trained_cluster_model)
        assert isinstance(engine, ModelBackend)

    def test_build_engine_selects_backend(self, trained_cluster_model):
        batched = ExecutionPolicy().build_engine(trained_cluster_model)
        assert isinstance(batched, SequentialBackend)
        sharded = ExecutionPolicy(backend="sharded", num_workers=2).build_engine(
            trained_cluster_model
        )
        try:
            assert isinstance(sharded, ReplicatedBackend)
            assert sharded.num_workers == 2
        finally:
            sharded.close()

    def test_build_engine_passthrough_shares_engine(self, trained_cluster_model):
        owned = BatchedQueryEngine(trained_cluster_model, batch_size=3)
        assert ExecutionPolicy(backend="sharded").build_engine(owned) is owned

    def test_session_closes_created_engines_only(self, trained_cluster_model):
        policy = ExecutionPolicy(backend="sharded", num_workers=2)
        with policy.session(trained_cluster_model) as engine:
            engine.predict(np.zeros((3, 2)))
            assert engine._pools is not None
        assert engine._pools is None
        owned = policy.build_engine(trained_cluster_model)
        try:
            owned.predict(np.zeros((3, 2)))
            with policy.session(owned) as passed_through:
                assert passed_through is owned
            assert owned._pools is not None
        finally:
            owned.close()

    def test_policy_cache_spec_builds_caches(self, tmp_path):
        from repro.store import PersistentQueryCache

        assert ExecutionPolicy().build_cache() is False
        assert ExecutionPolicy(cache=True).build_cache() is True
        durable = ExecutionPolicy(cache=True, cache_dir=str(tmp_path)).build_cache()
        assert isinstance(durable, PersistentQueryCache)
        # cache_dir without cache=True stays off (cache is the master switch)
        assert ExecutionPolicy(cache=False, cache_dir=str(tmp_path)).build_cache() is False

    def test_custom_backend_plugs_in(self, trained_cluster_model):
        calls = []

        try:

            @register_backend("recording")
            class RecordingBackend(BatchedQueryEngine):
                @classmethod
                def from_policy(cls, model, naturalness, policy, cache):
                    calls.append(policy.backend)
                    return cls(model, naturalness=naturalness,
                               batch_size=policy.batch_size, cache=cache)

            policy = ExecutionPolicy(backend="recording", batch_size=7)
            engine = policy.build_engine(trained_cluster_model)
            assert isinstance(engine, RecordingBackend)
            assert engine.batch_size == 7
            assert calls == ["recording"]
        finally:
            unregister_backend("recording")
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(backend="recording")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_backend("batched")
            class Shadow(BatchedQueryEngine):
                @classmethod
                def from_policy(cls, model, naturalness, policy, cache):
                    raise AssertionError("never built")

    def test_backend_requires_factory(self):
        with pytest.raises(ConfigurationError, match="from_policy"):

            @register_backend("no-factory")
            class Broken:
                pass


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
        assert cfg.policy == DEFAULT_FUZZER_POLICY
        assert cfg.policy.cache is True  # the fuzzer's historical default

    def test_workflow_policy_drives_cadence_and_assessor(
        self, cluster_profile, clusters_split, cluster_naturalness
    ):
        from repro.core import OperationalTestingLoop, WorkflowConfig

        policy = ExecutionPolicy(
            backend="sharded",
            num_workers=2,
            transport="threads",
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
        # every workflow-policy field reaches the fuzzer (transport and
        # telemetry included); only the fuzzer's own cadence stays its own
        assert loop.fuzzer_config.policy == policy.replace(checkpoint_every=5)
        assert loop.fuzzer_config.policy.transport == "threads"
        assert loop.assessor.policy == policy.replace(checkpoint_every=0)

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
            FuzzerConfig(policy="sharded")
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            WorkflowConfig(policy={"backend": "sharded"})
        with pytest.raises(AttackError, match="ExecutionPolicy"):
            RandomFuzz(policy="batched")
        with pytest.raises(ReliabilityError, match="ExecutionPolicy"):
            ReliabilityAssessor(scenario.partition, scenario.profile, policy="batched")
        # positional arguments that once reached a knob now land on policy
        with pytest.raises(ReliabilityError, match="ExecutionPolicy"):
            CellRobustnessEvaluator(scenario.partition, 10, None, True, 64)
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            scenario.query_engine("sharded")


# --------------------------------------------------------------------------- #
# Scenario.query_engine: typed cache parameter + policy routing
# --------------------------------------------------------------------------- #
class TestScenarioQueryEngine:
    def test_policy_selects_backend(self, scenario):
        engine = scenario.query_engine(policy=ExecutionPolicy(batch_size=9))
        assert isinstance(engine, SequentialBackend)
        assert engine.batch_size == 9
        assert engine.naturalness is scenario.naturalness

    def test_cache_accepts_backend_instance(self, scenario):
        cache = QueryCache(max_entries=16)
        engine = scenario.query_engine(cache=cache)
        x = scenario.operational_data.x[:4]
        engine.predict_proba(x)
        assert len(cache) == 4  # the handed-in backend is the live cache

    def test_cache_rejects_bools(self, scenario):
        with pytest.raises(ConfigurationError, match="CacheBackend"):
            scenario.query_engine(cache=True)
        with pytest.raises(ConfigurationError, match="CacheBackend"):
            scenario.query_engine(cache=False)


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
                    'backend = "batched"',
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

    def test_legacy_knobs_in_sections_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            CampaignSpec.from_dict(self._spec(fuzzer={"num_workers": 2}))
        with pytest.raises(ConfigurationError, match="policy"):
            CampaignSpec.from_dict(self._spec(workflow={"cache_dir": "/tmp/x"}))
        # derived from ExecutionPolicy's fields, so newer ones are covered too
        with pytest.raises(ConfigurationError, match="'policy' section"):
            CampaignSpec.from_dict(self._spec(workflow={"transport": "threads"}))
        # the retired execution alias is pointed at the policy section; the
        # control-flow values stay allowed
        with pytest.raises(ConfigurationError, match="backend='sharded'"):
            CampaignSpec.from_dict(self._spec(fuzzer={"execution": "sharded"}))
        spec = CampaignSpec.from_dict(self._spec(fuzzer={"execution": "sequential"}))
        assert spec.fuzzer["execution"] == "sequential"

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="seed"):
            CampaignSpec.from_dict(self._spec(seed=None))
        with pytest.raises(ConfigurationError, match="seed"):
            CampaignSpec.from_dict(self._spec(seed="2021"))

    def test_bad_backend_name_rejected(self):
        payload = self._spec()
        payload["policy"]["backend"] = "quantum"
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            CampaignSpec.from_dict(payload)

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
        "policy": {"backend": "batched", "cache": True, "checkpoint_every": 1},
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

    def test_malformed_spec_never_creates_a_run(self, tmp_path, capsys):
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        bad = dict(self.SPEC, fuzzer={"num_workers": 2})
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(bad))
        assert cli_main(["--runs-dir", runs_dir, "run", "--spec", str(spec_path)]) == 1
        assert "policy" in capsys.readouterr().err
        assert RunRegistry(runs_dir).runs() == []

    def test_from_run_requires_stored_spec(self, tmp_path, capsys):
        from repro.store import RunRegistry
        from repro.store.cli import main as cli_main

        runs_dir = str(tmp_path / "runs")
        RunRegistry(runs_dir).create("old-format", {"scenario": "two-moons"})
        assert cli_main(["--runs-dir", runs_dir, "run", "--from-run", "run-0001"]) == 1
        assert "spec" in capsys.readouterr().err
