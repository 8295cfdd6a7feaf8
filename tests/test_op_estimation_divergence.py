"""Tests for OP estimation (RQ1) and divergence measures."""

import numpy as np
import pytest

from repro.data import GridPartition, make_gaussian_clusters
from repro.exceptions import DataError, ProfileError, ShapeError
from repro.op import (
    FrequencyProfileEstimator,
    GMMProfileEstimator,
    KDEProfileEstimator,
    empirical_distribution,
    ground_truth_profile_for_clusters,
    hellinger_distance,
    js_divergence,
    kl_divergence,
    profile_divergence,
    total_variation,
)


@pytest.fixture(scope="module")
def reference_data():
    return make_gaussian_clusters(600, num_classes=4, cluster_std=0.06, rng=3)


@pytest.fixture(scope="module")
def operational_stream(reference_data):
    """Operational inputs drawn with a skewed class prior."""
    rng = np.random.default_rng(4)
    priors = np.array([0.6, 0.2, 0.1, 0.1])
    labels = rng.choice(4, size=500, p=priors)
    rows = []
    for label in labels:
        members = reference_data.indices_of_class(int(label))
        rows.append(rng.choice(members))
    return reference_data.x[rows], reference_data.y[rows]


class TestFrequencyEstimator:
    def test_recovers_skewed_priors(self, reference_data, operational_stream):
        x, labels = operational_stream
        estimator = FrequencyProfileEstimator(reference=reference_data, smoothing=0.0)
        profile = estimator.fit(x, labels)
        prior = profile.class_prior(4)
        assert prior[0] == pytest.approx(0.6, abs=0.06)
        assert prior[0] > prior[1] > prior[3] - 0.05

    def test_pseudo_labels_via_model(self, reference_data, operational_stream, trained_cluster_model):
        x, _ = operational_stream
        estimator = FrequencyProfileEstimator(reference=reference_data, model=trained_cluster_model)
        profile = estimator.fit(x)
        assert profile.class_prior(4)[0] > 0.4

    def test_requires_labels_or_model(self, reference_data):
        estimator = FrequencyProfileEstimator(reference=reference_data)
        with pytest.raises(ProfileError):
            estimator.fit(np.zeros((5, 2)))

    def test_smoothing_keeps_unseen_classes_positive(self, reference_data):
        estimator = FrequencyProfileEstimator(reference=reference_data, smoothing=1.0)
        profile = estimator.fit(reference_data.x[:10], np.zeros(10, dtype=int))
        assert np.all(profile.class_prior(4) > 0)

    def test_empty_input_rejected(self, reference_data):
        estimator = FrequencyProfileEstimator(reference=reference_data)
        with pytest.raises(DataError):
            estimator.fit(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestKDEEstimator:
    def test_density_concentrates_on_data(self, operational_stream):
        x, labels = operational_stream
        profile = KDEProfileEstimator(rng=0).fit(x, labels)
        on_data = profile.density(x[:100]).mean()
        off_data = profile.density(np.random.default_rng(0).random((100, 2))).mean()
        assert on_data > off_data

    def test_subsampling_respects_max_samples(self, operational_stream):
        x, _ = operational_stream
        profile = KDEProfileEstimator(max_samples=50, rng=0).fit(x)
        assert len(profile.samples) == 50

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            KDEProfileEstimator().fit(np.zeros((0, 2)))

    def test_misaligned_labels_rejected(self):
        with pytest.raises(DataError):
            KDEProfileEstimator().fit(np.zeros((5, 2)), np.zeros(3, dtype=int))


class TestGMMEstimator:
    def test_recovers_cluster_means(self):
        truth = ground_truth_profile_for_clusters(3, 2, 0.04)
        data = truth.sample(900, rng=0)
        estimated = GMMProfileEstimator(num_components=3, rng=0).fit(data)
        # every true mean should be close to some estimated mean
        for true_mean in truth.means:
            distances = np.linalg.norm(estimated.means - true_mean, axis=1)
            assert distances.min() < 0.08

    def test_attaches_majority_labels(self, operational_stream):
        x, labels = operational_stream
        profile = GMMProfileEstimator(num_components=4, rng=0).fit(x, labels)
        assert profile.component_labels is not None
        assert set(np.unique(profile.component_labels)).issubset({0, 1, 2, 3})

    def test_log_likelihood_better_than_random_profile(self, operational_stream):
        x, _ = operational_stream
        fitted = GMMProfileEstimator(num_components=4, rng=0).fit(x)
        random_profile = ground_truth_profile_for_clusters(4, 2, 0.5)
        assert fitted.density(x, log=True).mean() > random_profile.density(x, log=True).mean()

    def test_needs_enough_samples(self):
        with pytest.raises(DataError):
            GMMProfileEstimator(num_components=10).fit(np.zeros((3, 2)))

    def test_invalid_config(self):
        with pytest.raises(ProfileError):
            GMMProfileEstimator(num_components=0).fit(np.random.default_rng(0).random((10, 2)))


class TestDivergences:
    def test_zero_for_identical(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
        assert total_variation(p, p) == pytest.approx(0.0)
        assert hellinger_distance(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_different(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        assert kl_divergence(p, q) > 0
        assert js_divergence(p, q) > 0
        assert total_variation(p, q) == pytest.approx(0.8)
        assert hellinger_distance(p, q) > 0

    def test_js_symmetric_kl_not(self):
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.3, 0.3, 0.4])
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_js_bounded_by_log2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert js_divergence(p, q) <= np.log(2) + 1e-9

    def test_unnormalised_inputs_are_normalised(self):
        assert total_variation(np.array([2.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ShapeError):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0]))
        with pytest.raises(ShapeError):
            js_divergence(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ShapeError):
            total_variation(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))


class TestProfileDivergence:
    def test_estimate_close_to_truth_scores_lower(self, operational_stream):
        x, labels = operational_stream
        partition = GridPartition(2, bins_per_dim=6)
        truth = ground_truth_profile_for_clusters(
            4, 2, 0.06, class_priors=[0.6, 0.2, 0.1, 0.1]
        )
        good = KDEProfileEstimator(rng=0).fit(x, labels)
        bad = ground_truth_profile_for_clusters(4, 2, 0.06)  # uniform priors
        good_div = profile_divergence(good, truth, partition, metric="js", rng=0)
        bad_div = profile_divergence(bad, truth, partition, metric="js", rng=0)
        assert good_div < bad_div

    def test_unknown_metric(self, operational_stream):
        x, _ = operational_stream
        profile = KDEProfileEstimator(rng=0).fit(x)
        with pytest.raises(ShapeError):
            profile_divergence(profile, profile, GridPartition(2, 4), metric="wasserstein")

    def test_empirical_distribution_sums_to_one(self):
        partition = GridPartition(2, bins_per_dim=4)
        dist = empirical_distribution(np.random.default_rng(0).random((200, 2)), partition)
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (16,)

    def test_empirical_distribution_smoothing(self):
        partition = GridPartition(2, bins_per_dim=4)
        dist = empirical_distribution(np.full((5, 2), 0.1), partition, smoothing=1.0)
        assert np.all(dist > 0)
