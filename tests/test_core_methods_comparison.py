"""Tests for the detection methods and the comparison harness."""

import copy

import numpy as np
import pytest

from repro.core import (
    AttackOnUniformSeeds,
    MethodComparison,
    OperationalAECriterion,
    OperationalAEDetection,
    OperationalTestingBaseline,
    RandomFuzzBaseline,
)
from repro.evaluation import make_clusters_scenario
from repro.exceptions import ConfigurationError
from repro.fuzzing import FuzzerConfig
from repro.sampling import OperationalSeedSampler, UniformSeedSampler
from repro.types import AdversarialExample, DetectionResult


@pytest.fixture()
def all_methods(cluster_profile, cluster_naturalness, clusters_split):
    train, _ = clusters_split
    return [
        OperationalAEDetection(
            profile=cluster_profile,
            naturalness=cluster_naturalness,
            fuzzer_config=FuzzerConfig(queries_per_seed=15),
        ),
        AttackOnUniformSeeds(
            profile=cluster_profile, naturalness=cluster_naturalness, seed_pool=train
        ),
        RandomFuzzBaseline(
            profile=cluster_profile, naturalness=cluster_naturalness, seed_pool=train
        ),
        OperationalTestingBaseline(profile=cluster_profile, naturalness=cluster_naturalness),
    ]


class TestDetectionMethods:
    def test_all_methods_respect_budget_and_annotate(
        self, all_methods, trained_cluster_model, operational_cluster_data
    ):
        budget = 200
        for method in all_methods:
            result = method.detect(trained_cluster_model, operational_cluster_data, budget, rng=0)
            assert isinstance(result, DetectionResult)
            assert result.method == method.name
            assert result.budget == budget
            assert result.test_cases_used <= budget
            assert result.seeds_attacked > 0
            for ae in result.adversarial_examples:
                assert ae.true_label != ae.predicted_label
                assert ae.op_density is not None

    def test_detected_aes_are_really_misclassified(
        self, all_methods, trained_cluster_model, operational_cluster_data
    ):
        for method in all_methods:
            result = method.detect(trained_cluster_model, operational_cluster_data, 150, rng=1)
            for ae in result.adversarial_examples:
                prediction = trained_cluster_model.predict(np.atleast_2d(ae.perturbed))[0]
                assert prediction == ae.predicted_label

    @pytest.mark.parametrize("kind", ["operational", "attack"])
    def test_reference_density_is_evaluated_once_per_detect(
        self,
        kind,
        monkeypatch,
        cluster_profile,
        cluster_naturalness,
        clusters_split,
        trained_cluster_model,
        operational_cluster_data,
    ):
        # the operational data's densities are the reference of every round's
        # relative densities; they do not change between rounds
        data = operational_cluster_data
        density, select = type(cluster_profile).density, UniformSeedSampler.select
        reference_evaluations, rounds = [], []

        def counting_density(profile, x, log=False):
            reference_evaluations.append(x is data.x)
            return density(profile, x, log=log)

        def counting_select(sampler, *args, **kwargs):
            rounds.append(args)
            return select(sampler, *args, **kwargs)

        monkeypatch.setattr(type(cluster_profile), "density", counting_density)
        monkeypatch.setattr(UniformSeedSampler, "select", counting_select)
        if kind == "operational":
            method = OperationalAEDetection(
                profile=cluster_profile,
                naturalness=cluster_naturalness,
                fuzzer_config=FuzzerConfig(queries_per_seed=20),
                sampler=UniformSeedSampler(),
            )
        else:
            method = AttackOnUniformSeeds(
                profile=cluster_profile,
                naturalness=cluster_naturalness,
                seed_pool=clusters_split[0],
            )
        method.detect(trained_cluster_model, data, 2000, rng=0)
        assert len(rounds) >= 2
        assert sum(reference_evaluations) == 1

    def test_default_sampler_reuses_the_reference_densities(self, monkeypatch):
        # one evaluation of the 1,000 operational rows' densities serves every
        # sampling round (14 in this setting if each round made its own), with
        # the same detections as a sampler that scores with its own equal profile
        scenario = make_clusters_scenario(rng=2021)
        profile, data = scenario.profile, scenario.operational_data

        def detect(sampler=None):
            method = OperationalAEDetection(
                profile=profile,
                naturalness=scenario.naturalness,
                fuzzer_config=FuzzerConfig(queries_per_seed=20),
                sampler=sampler,
            )
            return method.detect(scenario.model, data, 2000, rng=0)

        own = detect(OperationalSeedSampler(profile=copy.deepcopy(profile)))
        density, select = type(profile).density, OperationalSeedSampler.select
        full_evaluations, rounds = [], []

        def counting_density(instance, x, log=False):
            full_evaluations.append(x is data.x)
            return density(instance, x, log=log)

        def counting_select(sampler, *args, **kwargs):
            rounds.append(kwargs["log_density"])
            return select(sampler, *args, **kwargs)

        monkeypatch.setattr(type(profile), "density", counting_density)
        monkeypatch.setattr(OperationalSeedSampler, "select", counting_select)
        shared = detect()
        assert len(rounds) > 1 and all(log is not None for log in rounds)
        assert sum(full_evaluations) == 1
        assert shared.test_cases_used == own.test_cases_used
        assert shared.seeds_attacked == own.seeds_attacked
        assert len(shared.adversarial_examples) == len(own.adversarial_examples) > 0
        for mine, theirs in zip(shared.adversarial_examples, own.adversarial_examples):
            np.testing.assert_array_equal(mine.perturbed, theirs.perturbed)
            assert mine.op_density == theirs.op_density

    def test_proposed_method_finds_aes(
        self, cluster_profile, cluster_naturalness, trained_cluster_model, operational_cluster_data
    ):
        method = OperationalAEDetection(profile=cluster_profile, naturalness=cluster_naturalness)
        result = method.detect(trained_cluster_model, operational_cluster_data, 400, rng=0)
        assert result.num_detected > 0

    def test_proposed_aes_have_higher_naturalness_than_pgd(
        self,
        cluster_profile,
        cluster_naturalness,
        trained_cluster_model,
        operational_cluster_data,
        clusters_split,
    ):
        train, _ = clusters_split
        proposed = OperationalAEDetection(
            profile=cluster_profile, naturalness=cluster_naturalness
        ).detect(trained_cluster_model, operational_cluster_data, 400, rng=0)
        pgd = AttackOnUniformSeeds(
            profile=cluster_profile, naturalness=cluster_naturalness, seed_pool=train
        ).detect(trained_cluster_model, operational_cluster_data, 400, rng=0)
        if proposed.num_detected and pgd.num_detected:
            assert proposed.mean_naturalness() >= pgd.mean_naturalness() - 0.05

    def test_invalid_budget(self, all_methods, trained_cluster_model, operational_cluster_data):
        for method in all_methods:
            with pytest.raises(ConfigurationError):
                method.detect(trained_cluster_model, operational_cluster_data, 0)

    def test_budget_below_one_seed_raises(
        self, cluster_profile, trained_cluster_model, operational_cluster_data
    ):
        method = AttackOnUniformSeeds(profile=cluster_profile)  # default PGD: at most 21 a seed
        with pytest.raises(ConfigurationError, match="up to 21"):
            method.detect(trained_cluster_model, operational_cluster_data, 20, rng=0)
        result = method.detect(trained_cluster_model, operational_cluster_data, 21, rng=0)
        assert result.seeds_attacked == 1
        assert result.test_cases_used <= 21

    def test_operational_testing_counts_only_natural_failures(
        self, cluster_profile, cluster_naturalness, trained_cluster_model, operational_cluster_data
    ):
        method = OperationalTestingBaseline(
            profile=cluster_profile, naturalness=cluster_naturalness
        )
        result = method.detect(trained_cluster_model, operational_cluster_data, 200, rng=0)
        for ae in result.adversarial_examples:
            assert ae.distance == 0.0


class TestOperationalAECriterion:
    def _ae(self, naturalness, density):
        return AdversarialExample(
            seed=np.zeros(2),
            perturbed=np.zeros(2),
            true_label=0,
            predicted_label=1,
            distance=0.1,
            naturalness=naturalness,
            op_density=density,
        )

    def test_requires_both_thresholds(self):
        criterion = OperationalAECriterion(min_naturalness=0.5, min_op_density=0.5)
        assert criterion.is_operational(self._ae(0.9, 0.9))
        assert not criterion.is_operational(self._ae(0.9, 0.1))
        assert not criterion.is_operational(self._ae(0.1, 0.9))

    def test_missing_annotations(self):
        strict = OperationalAECriterion(require_annotations=True)
        lenient = OperationalAECriterion(require_annotations=False)
        unannotated = AdversarialExample(
            seed=np.zeros(2), perturbed=np.zeros(2), true_label=0, predicted_label=1, distance=0.1
        )
        assert not strict.is_operational(unannotated)
        assert lenient.is_operational(unannotated)

    def test_count(self):
        criterion = OperationalAECriterion(0.5, 0.5)
        result = DetectionResult(
            method="m",
            adversarial_examples=[self._ae(0.9, 0.9), self._ae(0.1, 0.9), self._ae(0.9, 0.8)],
        )
        assert criterion.count(result) == 2


class TestMethodComparison:
    def test_report_structure(self, all_methods, trained_cluster_model, operational_cluster_data):
        comparison = MethodComparison(all_methods[:2])
        report = comparison.run(
            trained_cluster_model, operational_cluster_data, budgets=[100, 200], repeats=1, rng=0
        )
        assert len(report.scores) == 4  # 2 methods x 2 budgets
        rows = report.as_rows()
        assert len(rows) == 4
        assert {row["method"] for row in rows} == {all_methods[0].name, all_methods[1].name}
        assert report.for_budget(100)
        assert report.for_method(all_methods[0].name)

    def test_best_method_lookup(self, all_methods, trained_cluster_model, operational_cluster_data):
        comparison = MethodComparison(all_methods[:2])
        report = comparison.run(
            trained_cluster_model, operational_cluster_data, budgets=[150], repeats=1, rng=0
        )
        best = report.best_method_by_operational_aes(150)
        assert best in {m.name for m in all_methods[:2]}
        assert report.best_method_by_operational_aes(999) is None

    def test_repeats_average(self, all_methods, trained_cluster_model, operational_cluster_data):
        comparison = MethodComparison([all_methods[3]])
        report = comparison.run(
            trained_cluster_model, operational_cluster_data, budgets=[100], repeats=2, rng=0
        )
        assert report.scores[0].repeats == 2

    def test_invalid_configuration(self, all_methods):
        with pytest.raises(ConfigurationError):
            MethodComparison([])
        with pytest.raises(ConfigurationError):
            MethodComparison([all_methods[0], all_methods[0]])

    def test_invalid_run_args(self, all_methods, trained_cluster_model, operational_cluster_data):
        comparison = MethodComparison(all_methods[:1])
        with pytest.raises(ConfigurationError):
            comparison.run(trained_cluster_model, operational_cluster_data, budgets=[])
        with pytest.raises(ConfigurationError):
            comparison.run(trained_cluster_model, operational_cluster_data, budgets=[0])
        with pytest.raises(ConfigurationError):
            comparison.run(
                trained_cluster_model, operational_cluster_data, budgets=[10], repeats=0
            )
