"""Integration tests for the five-step operational testing loop (Figure 1)."""

import copy

import numpy as np
import pytest

from repro.core import OperationalTestingLoop, WorkflowConfig
from repro.evaluation import make_glyph_scenario
from repro.exceptions import ConfigurationError
from repro.fuzzing import FuzzerConfig, OperationalFuzzer
from repro.fuzzing.fuzzer import FuzzCampaignResult
from repro.reliability import StoppingRule
from repro.retraining import RetrainingConfig
from repro.runtime import ExecutionPolicy
from repro.sampling import OperationalSeedSampler
from repro.types import CampaignReport


@pytest.fixture(scope="module")
def loop_and_inputs(cluster_profile, clusters_split, cluster_naturalness):
    train, _ = clusters_split
    loop = OperationalTestingLoop(
        profile=cluster_profile,
        train_data=train,
        naturalness=cluster_naturalness,
        fuzzer_config=FuzzerConfig(epsilon=0.1, queries_per_seed=15),
        retraining_config=RetrainingConfig(epochs=4),
        stopping_rule=StoppingRule(target_pmi=0.02, max_iterations=3, confidence=0.85),
        workflow_config=WorkflowConfig(
            test_budget_per_iteration=250,
            seeds_per_iteration=15,
            operational_dataset_size=300,
        ),
        rng=0,
    )
    return loop


class TestWorkflowConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"test_budget_per_iteration": 0},
            {"seeds_per_iteration": 0},
            {"operational_dataset_size": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkflowConfig(**kwargs)


class TestOperationalTestingLoop:
    def test_end_to_end_run(self, loop_and_inputs, trained_cluster_model, operational_cluster_data):
        loop = loop_and_inputs
        final_model, report = loop.run(trained_cluster_model, operational_cluster_data)
        assert isinstance(report, CampaignReport)
        assert 1 <= report.num_iterations <= 3
        assert report.total_test_cases > 0
        assert np.isfinite(report.final_pmi)
        # the returned model must be usable
        predictions = final_model.predict(operational_cluster_data.x[:10])
        assert predictions.shape == (10,)

    def test_original_model_not_modified(
        self, loop_and_inputs, trained_cluster_model, operational_cluster_data
    ):
        weights_before = trained_cluster_model.get_weights()
        loop_and_inputs.run(trained_cluster_model, operational_cluster_data)
        weights_after = trained_cluster_model.get_weights()
        for before, after in zip(weights_before, weights_after):
            for key in before:
                np.testing.assert_allclose(before[key], after[key])

    def test_reliability_does_not_collapse(
        self, loop_and_inputs, trained_cluster_model, operational_cluster_data
    ):
        _, report = loop_and_inputs.run(trained_cluster_model, operational_cluster_data)
        first = report.iterations[0]
        last = report.iterations[-1]
        # retraining on detected operational AEs must not make things much worse
        assert last.pmi_after <= first.pmi_before + 0.05

    def test_iteration_reports_are_consistent(
        self, loop_and_inputs, trained_cluster_model, operational_cluster_data
    ):
        _, report = loop_and_inputs.run(trained_cluster_model, operational_cluster_data)
        for iteration in report.iterations:
            assert iteration.seeds_selected > 0
            assert iteration.test_cases_used > 0
            assert 0.0 <= iteration.pmi_after <= 1.0
            assert iteration.operational_accuracy_after == pytest.approx(
                1.0 - iteration.pmi_after
            )
            assert "pmi_upper_after" in iteration.notes

    def test_synthesises_operational_data_when_missing(
        self, cluster_profile, clusters_split, cluster_naturalness, trained_cluster_model
    ):
        train, _ = clusters_split
        loop = OperationalTestingLoop(
            profile=cluster_profile,
            train_data=train,
            naturalness=cluster_naturalness,
            fuzzer_config=FuzzerConfig(queries_per_seed=10),
            retraining_config=RetrainingConfig(epochs=2),
            stopping_rule=StoppingRule(target_pmi=0.02, max_iterations=1),
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=100,
                seeds_per_iteration=8,
                operational_dataset_size=150,
            ),
            rng=1,
        )
        _, report = loop.run(trained_cluster_model)
        assert report.num_iterations == 1

    def test_detected_aes_accumulate(
        self, loop_and_inputs, trained_cluster_model, operational_cluster_data
    ):
        loop = loop_and_inputs
        before = len(loop.detected_aes)
        _, report = loop.run(trained_cluster_model, operational_cluster_data)
        assert len(loop.detected_aes) >= before
        assert len(loop.detected_aes) - before == report.total_aes


class TestCacheAcrossRetraining:
    """The loop retrains the model between assessments, so a query cache
    must never serve the retrained model its predecessor's predictions:
    with the cache on, the loop computes exactly what it computes with the
    cache off."""

    def _run(self, policy, profile, train, naturalness, model, data):
        loop = OperationalTestingLoop(
            profile=profile,
            train_data=train,
            naturalness=naturalness,
            fuzzer_config=FuzzerConfig(epsilon=0.1, queries_per_seed=15),
            retraining_config=RetrainingConfig(epochs=4),
            # unreachable target: every iteration runs and retrains
            stopping_rule=StoppingRule(target_pmi=1e-9, max_iterations=3),
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=250, seeds_per_iteration=15, policy=policy
            ),
            rng=0,
        )
        _, report = loop.run(model, data)
        return loop, report

    def test_cache_on_and_off_compute_the_same(
        self,
        cluster_profile,
        clusters_split,
        cluster_naturalness,
        trained_cluster_model,
        operational_cluster_data,
    ):
        args = (
            cluster_profile,
            clusters_split[0],
            cluster_naturalness,
            trained_cluster_model,
            operational_cluster_data,
        )
        cached_loop, cached = self._run(ExecutionPolicy(cache=True), *args)
        plain_loop, plain = self._run(ExecutionPolicy(), *args)
        assert cached_loop.query_stats.cache_hits > 0  # the cache was used
        assert plain_loop.query_stats.cache_hits == 0
        assert cached.num_iterations == plain.num_iterations == 3
        assert plain.iterations[0].aes_detected > 0  # the model is retrained
        for with_cache, without in zip(cached.iterations, plain.iterations):
            assert with_cache.test_cases_used == without.test_cases_used
            assert with_cache.aes_detected == without.aes_detected
            assert with_cache.pmi_before == without.pmi_before
            assert with_cache.pmi_after == without.pmi_after
            assert (
                with_cache.notes["pmi_upper_after"]
                == without.notes["pmi_upper_after"]
            )
        assert cached_loop.last_estimate.to_dict() == plain_loop.last_estimate.to_dict()
        assert len(cached_loop.detected_aes) == len(plain_loop.detected_aes)
        for with_cache, without in zip(cached_loop.detected_aes, plain_loop.detected_aes):
            np.testing.assert_array_equal(with_cache.seed, without.seed)
            np.testing.assert_array_equal(with_cache.perturbed, without.perturbed)


class TestPaperDimension:
    """The loop at MNIST's d = 784, where the KDE's log normaliser (above
    1,100) overflows every linear density: weights and naturalness must come
    from log densities."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return make_glyph_scenario(num_samples=300, image_size=28, epochs=2, rng=0)

    def test_glyph_loop_completes_at_d_784(self, scenario):
        assert scenario.train_data.num_features == 784
        loop = OperationalTestingLoop(
            profile=scenario.profile,
            train_data=scenario.train_data,
            partition=scenario.partition,
            naturalness=scenario.naturalness,
            fuzzer_config=FuzzerConfig(epsilon=0.1),
            retraining_config=RetrainingConfig(epochs=2),
            stopping_rule=StoppingRule(target_pmi=1e-9, max_iterations=1),
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=200, seeds_per_iteration=10
            ),
            rng=0,
        )
        _, report = loop.run(scenario.model, scenario.operational_data)
        assert report.num_iterations == 1
        assert 0 < report.total_test_cases <= 200
        assert np.isfinite(report.final_pmi)
        operational = scenario.naturalness.score(scenario.operational_data.x)
        assert np.all(np.isfinite(operational))
        noise = scenario.naturalness.score(np.random.default_rng(0).random((100, 784)))
        assert np.median(operational) > noise.max()

    def test_log_naturalness_ranks_noise_at_d_784(self, scenario):
        # every linear score of these rows underflows to 0; their log scores
        # stay distinct, so naturalness still orders them
        noise = np.random.default_rng(0).random((100, 784))
        log_noise = scenario.naturalness.score(noise, log=True)
        assert len(np.unique(log_noise)) == 100
        log_operational = scenario.naturalness.score(scenario.operational_data.x, log=True)
        assert log_noise.max() < np.median(log_operational)


class TestLoopDensityInvariants:
    """One run evaluates the operational rows' OP log densities once and the
    training rows' at most once: the sampler and the retrainer reuse the
    loop's, with the same bits as their own evaluations."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return make_glyph_scenario(num_samples=750, rng=2021)

    def _run(self, scenario, monkeypatch, sampler_profile=None, retrainer_profile=None):
        """A 2-iteration run; the loop profile's full-row density evaluations
        by rows, and the keyword arguments of every ``select`` call."""
        profile, data, train = scenario.profile, scenario.operational_data, scenario.train_data
        evaluations = {"operational": 0, "train": 0}
        density = type(profile).density

        def counting_density(instance, x, log=False):
            if instance is profile and x is data.x:
                evaluations["operational"] += 1
            elif instance is profile and x is train.x:
                evaluations["train"] += 1
            return density(instance, x, log=log)

        monkeypatch.setattr(type(profile), "density", counting_density)
        loop = OperationalTestingLoop(
            profile=profile,
            train_data=train,
            partition=scenario.partition,
            naturalness=scenario.naturalness,
            sampler=(
                OperationalSeedSampler(profile=sampler_profile)
                if sampler_profile is not None
                else None
            ),
            fuzzer_config=FuzzerConfig(epsilon=0.1),
            retraining_config=RetrainingConfig(epochs=2),
            stopping_rule=StoppingRule(target_pmi=1e-9, max_iterations=2),
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=300, seeds_per_iteration=20
            ),
            rng=0,
        )
        if retrainer_profile is not None:
            loop.retrainer.profile = retrainer_profile
        select_kwargs = []
        select = loop.sampler.select

        def spying_select(*args, **kwargs):
            select_kwargs.append(kwargs)
            return select(*args, **kwargs)

        monkeypatch.setattr(loop.sampler, "select", spying_select)
        _, report = loop.run(scenario.model, data)
        return loop, report, evaluations, select_kwargs

    def test_each_invariant_is_evaluated_once(self, scenario, monkeypatch):
        _, report, evaluations, select_kwargs = self._run(scenario, monkeypatch)
        assert report.num_iterations == 2
        assert all(it.aes_detected > 0 for it in report.iterations)  # both retrain
        # 3 and 2 if the sampler and the retrainer made their own
        assert evaluations == {"operational": 1, "train": 1}
        assert all(kwargs["log_density"] is not None for kwargs in select_kwargs)

    def test_a_run_without_aes_evaluates_no_training_density(self, scenario, monkeypatch):
        monkeypatch.setattr(
            OperationalFuzzer, "fuzz", lambda self, *args, **kwargs: FuzzCampaignResult()
        )
        _, report, evaluations, _ = self._run(scenario, monkeypatch)
        assert report.total_aes == 0
        assert evaluations == {"operational": 1, "train": 0}

    def test_reuse_moves_no_bit(self, scenario, monkeypatch):
        # a sampler and a retrainer on an equal copy of the profile score
        # with their own evaluations; the campaign is bit-identical
        other = copy.deepcopy(scenario.profile)
        shared_loop, shared, _, _ = self._run(scenario, monkeypatch)
        own_loop, own, evaluations, select_kwargs = self._run(
            scenario, monkeypatch, sampler_profile=other, retrainer_profile=other
        )
        assert all(kwargs["log_density"] is None for kwargs in select_kwargs)
        assert evaluations == {"operational": 1, "train": 0}
        assert own.total_aes == shared.total_aes > 0
        for mine, theirs in zip(own.iterations, shared.iterations):
            assert mine.test_cases_used == theirs.test_cases_used
            assert mine.pmi_after == theirs.pmi_after
            assert mine.notes["pmi_upper_after"] == theirs.notes["pmi_upper_after"]
        for mine, theirs in zip(own_loop.detected_aes, shared_loop.detected_aes):
            np.testing.assert_array_equal(mine.perturbed, theirs.perturbed)
            assert mine.op_density == theirs.op_density
