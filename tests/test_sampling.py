"""Tests for auxiliary weights and seed samplers (RQ2)."""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.sampling import (
    CellStratifiedSeedSampler,
    OperationalSeedSampler,
    SurpriseWeight,
    UniformSeedSampler,
    available_weight_functions,
    entropy_weight,
    gradient_norm_weight,
    loss_weight,
    margin_weight,
    weight_function_from_name,
)


class TestWeightFunctions:
    def test_all_in_unit_interval(self, trained_cluster_model, operational_cluster_data):
        data = operational_cluster_data
        for weight_function in (margin_weight, entropy_weight, loss_weight, gradient_norm_weight):
            scores = weight_function(trained_cluster_model, data.x, data.y)
            assert scores.shape == (len(data),)
            assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_margin_ranks_misclassified_highest(self, trained_cluster_model, operational_cluster_data):
        data = operational_cluster_data
        predictions = trained_cluster_model.predict(data.x)
        scores = margin_weight(trained_cluster_model, data.x, data.y)
        wrong = predictions != data.y
        if np.any(wrong) and np.any(~wrong):
            assert scores[wrong].mean() > scores[~wrong].mean()

    def test_margin_without_labels(self, trained_cluster_model, operational_cluster_data):
        scores = margin_weight(trained_cluster_model, operational_cluster_data.x, None)
        assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_loss_weight_requires_labels(self, trained_cluster_model, operational_cluster_data):
        with pytest.raises(SamplingError):
            loss_weight(trained_cluster_model, operational_cluster_data.x, None)

    def test_loss_correlates_with_margin(self, trained_cluster_model, operational_cluster_data):
        data = operational_cluster_data
        loss_scores = loss_weight(trained_cluster_model, data.x, data.y)
        margin_scores = margin_weight(trained_cluster_model, data.x, data.y)
        correlation = np.corrcoef(loss_scores, margin_scores)[0, 1]
        assert correlation > 0.5

    def test_entropy_high_for_uncertain_points(self, trained_cluster_model, clusters_split):
        train, _ = clusters_split
        # midpoints between two cluster centres are maximally uncertain
        centre_a = train.x[train.y == 0].mean(axis=0)
        centre_b = train.x[train.y == 1].mean(axis=0)
        midpoint = ((centre_a + centre_b) / 2)[None, :]
        uncertain = entropy_weight(trained_cluster_model, midpoint)
        confident = entropy_weight(trained_cluster_model, centre_a[None, :])
        assert uncertain[0] >= confident[0]

    def test_constant_scores_normalise_to_ones(self, trained_cluster_model):
        # a single input: min == max, so the normalised score is 1
        x = np.full((1, 2), 0.5)
        assert margin_weight(trained_cluster_model, x, None)[0] == 1.0

    def test_surprise_weight(self, trained_cluster_model, clusters_split):
        train, test = clusters_split
        surprise = SurpriseWeight(train.x, train.y)
        scores = surprise(trained_cluster_model, test.x[:50], test.y[:50])
        assert scores.shape == (50,)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        # an input far from every training point of its class is more surprising
        outlier = np.array([[0.01, 0.99]])
        inlier = train.x[:1]
        assert surprise(trained_cluster_model, outlier)[0] >= surprise(trained_cluster_model, inlier)[0]

    def test_surprise_requires_two_classes(self, clusters_split):
        train, _ = clusters_split
        with pytest.raises(Exception):
            SurpriseWeight(train.x[train.y == 0], train.y[train.y == 0])

    def test_registry(self):
        names = available_weight_functions()
        assert "margin" in names and "gradient-norm" in names
        assert weight_function_from_name("margin") is margin_weight
        with pytest.raises(SamplingError):
            weight_function_from_name("surprise")


class TestUniformSampler:
    def test_selects_requested_count(self, trained_cluster_model, operational_cluster_data):
        selection = UniformSeedSampler().select(
            operational_cluster_data, trained_cluster_model, 25, rng=0
        )
        assert len(selection) == 25
        assert selection.x.shape == (25, 2)

    def test_probabilities_uniform(self, trained_cluster_model, operational_cluster_data):
        selection = UniformSeedSampler().select(
            operational_cluster_data, trained_cluster_model, 10, rng=0
        )
        np.testing.assert_allclose(
            selection.probabilities, 1.0 / len(operational_cluster_data)
        )

    def test_oversampling_uses_replacement(self, trained_cluster_model, operational_cluster_data):
        selection = UniformSeedSampler().select(
            operational_cluster_data, trained_cluster_model, len(operational_cluster_data) + 50, rng=0
        )
        assert len(selection) == len(operational_cluster_data) + 50

    def test_invalid_budget(self, trained_cluster_model, operational_cluster_data):
        with pytest.raises(SamplingError):
            UniformSeedSampler().select(operational_cluster_data, trained_cluster_model, 0)


class TestOperationalSampler:
    def test_prefers_high_density_failure_prone_seeds(
        self, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        sampler = OperationalSeedSampler(profile=cluster_profile)
        uniform = UniformSeedSampler()
        weighted_selection = sampler.select(
            operational_cluster_data, trained_cluster_model, 50, rng=0
        )
        uniform_selection = uniform.select(
            operational_cluster_data, trained_cluster_model, 50, rng=0
        )
        # the weighted sampler's seeds must be at least as failure-prone
        weighted_margin = margin_weight(
            trained_cluster_model, weighted_selection.x, weighted_selection.y
        ).mean()
        uniform_margin = margin_weight(
            trained_cluster_model, uniform_selection.x, uniform_selection.y
        ).mean()
        assert weighted_margin >= uniform_margin - 0.05

    def test_op_exponent_zero_ignores_density(
        self, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        sampler = OperationalSeedSampler(profile=cluster_profile, op_exponent=0.0)
        selection = sampler.select(operational_cluster_data, trained_cluster_model, 20, rng=0)
        np.testing.assert_allclose(selection.op_density, np.ones(20))

    def test_failure_exponent_zero_ignores_failure(
        self, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        sampler = OperationalSeedSampler(profile=cluster_profile, failure_exponent=0.0)
        selection = sampler.select(operational_cluster_data, trained_cluster_model, 20, rng=0)
        np.testing.assert_allclose(selection.failure_weight, np.ones(20))

    def test_without_profile_density_is_uniform(
        self, trained_cluster_model, operational_cluster_data
    ):
        sampler = OperationalSeedSampler(profile=None)
        selection = sampler.select(operational_cluster_data, trained_cluster_model, 15, rng=0)
        np.testing.assert_allclose(selection.op_density, np.ones(15))

    def test_probabilities_sum_to_one(
        self, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        sampler = OperationalSeedSampler(profile=cluster_profile)
        selection = sampler.select(operational_cluster_data, trained_cluster_model, 5, rng=0)
        assert selection.probabilities.sum() == pytest.approx(1.0)

    def test_invalid_config(self):
        with pytest.raises(SamplingError):
            OperationalSeedSampler(op_exponent=-1.0)
        with pytest.raises(SamplingError):
            OperationalSeedSampler(failure_floor=1.0)

    @pytest.mark.parametrize("kind", ["operational", "stratified"])
    def test_passed_log_density_gives_the_same_selection(
        self, kind, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        from repro.data import GridPartition

        data = operational_cluster_data
        sampler = (
            OperationalSeedSampler(profile=cluster_profile)
            if kind == "operational"
            else CellStratifiedSeedSampler(
                partition=GridPartition(2, bins_per_dim=4), profile=cluster_profile
            )
        )
        own = sampler.select(data, trained_cluster_model, 20, rng=0)
        passed = sampler.select(
            data, trained_cluster_model, 20, rng=0,
            log_density=cluster_profile.density(data.x, log=True),
        )
        for field in ("indices", "probabilities", "op_density", "failure_weight"):
            np.testing.assert_array_equal(getattr(passed, field), getattr(own, field))

    @pytest.mark.parametrize("length_change", [-1, 1])
    def test_log_density_of_the_wrong_length_rejected(
        self, length_change, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        data = operational_cluster_data
        with pytest.raises(SamplingError, match="log_density"):
            OperationalSeedSampler(profile=cluster_profile).select(
                data, trained_cluster_model, 5, rng=0,
                log_density=np.zeros(len(data) + length_change),
            )


class TestCellStratifiedSampler:
    def test_covers_high_mass_cells(
        self, trained_cluster_model, operational_cluster_data, cluster_profile
    ):
        from repro.data import GridPartition

        partition = GridPartition(2, bins_per_dim=4)
        sampler = CellStratifiedSeedSampler(
            partition=partition, profile=cluster_profile, min_per_cell=0
        )
        selection = sampler.select(operational_cluster_data, trained_cluster_model, 30, rng=0)
        assert 0 < len(selection) <= 30
        selected_cells = set(partition.assign(selection.x).tolist())
        assert len(selected_cells) >= 3

    def test_requires_partition_and_profile(self):
        with pytest.raises(SamplingError):
            CellStratifiedSeedSampler()
