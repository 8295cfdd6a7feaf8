"""Tests for repro.op.profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import GridPartition, make_gaussian_clusters
from repro.exceptions import DataError, ProfileError, ShapeError
from repro.naturalness import DensityNaturalness
from repro.op import (
    CellProfile,
    EmpiricalProfile,
    GaussianMixtureProfile,
    ground_truth_profile_for_clusters,
    profile_from_dataset,
    relative_density,
)


@pytest.fixture()
def gmm_profile():
    weights = np.array([0.7, 0.3])
    means = np.array([[0.3, 0.3], [0.7, 0.7]])
    variances = np.full((2, 2), 0.01)
    return GaussianMixtureProfile(weights, means, variances, component_labels=np.array([0, 1]))


class TestGaussianMixtureProfile:
    def test_density_higher_at_means(self, gmm_profile):
        at_mean = gmm_profile.density(np.array([[0.3, 0.3]]))[0]
        far = gmm_profile.density(np.array([[0.05, 0.95]]))[0]
        assert at_mean > far

    def test_density_respects_weights(self, gmm_profile):
        heavy = gmm_profile.density(np.array([[0.3, 0.3]]))[0]
        light = gmm_profile.density(np.array([[0.7, 0.7]]))[0]
        assert heavy > light

    def test_responsibilities_sum_to_one(self, gmm_profile):
        x = np.random.default_rng(0).random((20, 2))
        resp = gmm_profile.responsibilities(x)
        np.testing.assert_allclose(resp.sum(axis=1), np.ones(20), atol=1e-12)

    def test_samples_follow_weights(self, gmm_profile):
        x, labels = gmm_profile.sample_labeled(4000, rng=0)
        assert np.mean(labels == 0) == pytest.approx(0.7, abs=0.03)
        assert np.all(x >= 0) and np.all(x <= 1)

    def test_sample_without_labels(self):
        profile = GaussianMixtureProfile(
            np.array([1.0]), np.array([[0.5, 0.5]]), np.array([[0.01, 0.01]])
        )
        x, labels = profile.sample_labeled(10, rng=0)
        assert labels is None
        assert x.shape == (10, 2)

    def test_class_prior(self, gmm_profile):
        np.testing.assert_allclose(gmm_profile.class_prior(2), [0.7, 0.3])

    def test_class_prior_requires_labels(self):
        profile = GaussianMixtureProfile(
            np.array([1.0]), np.array([[0.5, 0.5]]), np.array([[0.01, 0.01]])
        )
        with pytest.raises(ProfileError):
            profile.class_prior(2)

    def test_cell_probabilities_sum_to_one(self, gmm_profile):
        partition = GridPartition(2, bins_per_dim=5)
        probs = gmm_profile.cell_probabilities(partition, num_samples=2000, rng=0)
        assert probs.shape == (25,)
        assert probs.sum() == pytest.approx(1.0)

    def test_wrong_dimension_rejected(self, gmm_profile):
        with pytest.raises(ShapeError):
            gmm_profile.density(np.zeros((3, 5)))

    @pytest.mark.parametrize(
        "weights,means,variances",
        [
            (np.array([0.5]), np.zeros((2, 2)), np.ones((2, 2))),
            (np.array([-0.5, 1.5]), np.zeros((2, 2)), np.ones((2, 2))),
            (np.array([0.5, 0.5]), np.zeros((2, 2)), np.zeros((2, 2))),
        ],
    )
    def test_invalid_construction(self, weights, means, variances):
        with pytest.raises(ProfileError):
            GaussianMixtureProfile(weights, means, variances)

    def test_invalid_sample_size(self, gmm_profile):
        with pytest.raises(ProfileError):
            gmm_profile.sample(0)


class TestEmpiricalProfile:
    def test_density_peaks_near_samples(self):
        samples = np.array([[0.2, 0.2], [0.8, 0.8]])
        profile = EmpiricalProfile(samples, bandwidth=0.05)
        near = profile.density(np.array([[0.21, 0.2]]))[0]
        far = profile.density(np.array([[0.5, 0.5]]))[0]
        assert near > far

    def test_weights_change_density(self):
        samples = np.array([[0.2, 0.2], [0.8, 0.8]])
        skewed = EmpiricalProfile(samples, weights=np.array([0.9, 0.1]), bandwidth=0.05)
        assert skewed.density(np.array([[0.2, 0.2]]))[0] > skewed.density(np.array([[0.8, 0.8]]))[0]

    def test_sampling_respects_weights(self):
        samples = np.array([[0.0, 0.0], [1.0, 1.0]])
        profile = EmpiricalProfile(
            samples, labels=np.array([0, 1]), weights=np.array([0.85, 0.15])
        )
        _, labels = profile.sample_labeled(3000, rng=0)
        assert np.mean(labels == 0) == pytest.approx(0.85, abs=0.03)

    def test_resample_noise_moves_points(self):
        samples = np.full((5, 3), 0.5)
        noisy = EmpiricalProfile(samples, resample_noise=0.05)
        drawn = noisy.sample(50, rng=0)
        assert not np.allclose(drawn, 0.5)
        assert np.all(drawn >= 0) and np.all(drawn <= 1)

    def test_class_prior(self):
        profile = EmpiricalProfile(np.zeros((4, 2)), labels=np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(profile.class_prior(2), [0.5, 0.5])

    def test_class_prior_requires_labels(self):
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((4, 2))).class_prior(2)

    def test_invalid_construction(self):
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((0, 2)))
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((3, 2)), weights=np.array([1.0, 1.0]))
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((3, 2)), bandwidth=-1.0)


def broadcast_density(profile, x):
    """The KDE with exact per-row squared distances, by broadcasting.

    The reference for :meth:`EmpiricalProfile.density`, which expands the
    distances into one matrix product per block; this form has no cross-row
    rounding, at the cost of a (block, pool, features) temporary.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h2 = profile.bandwidth**2
    log_norm = -0.5 * profile.num_features * np.log(2 * np.pi * h2)
    densities = np.zeros(len(x))
    block = 256
    for start in range(0, len(x), block):
        chunk = x[start : start + block]
        sq_dist = np.sum((chunk[:, None, :] - profile.samples[None, :, :]) ** 2, axis=2)
        log_kernel = log_norm - 0.5 * sq_dist / h2
        max_log = log_kernel.max(axis=1, keepdims=True)
        weighted = profile.weights[None, :] * np.exp(log_kernel - max_log)
        densities[start : start + block] = np.exp(max_log[:, 0]) * weighted.sum(axis=1)
    return densities


#: The Scott-bandwidth tolerance; the measured worst case is under 1e-12 (d = 144).
SCOTT_RTOL = 1e-10


def expansion_rtol(profile, x):
    """Per-row tolerance of the distance expansion at the profile's bandwidth.

    ``||x||^2 + ||s||^2 - 2 x.s`` loses about ``eps (||x||^2 + ||s||^2)`` to
    cancellation, and the kernel divides that by ``2 h^2``; 16 covers the
    rounding of the dot product (measured: 4.3e-10 against a bound of
    3.5e-9 at d = 144, h = 0.01).
    """
    sq_norms = np.einsum("ij,ij->i", x, x)
    pool_max = np.einsum("ij,ij->i", profile.samples, profile.samples).max()
    return 16 * np.finfo(float).eps * (sq_norms + pool_max) / profile.bandwidth**2


def assert_density_close(actual, expected, rtol):
    # subnormal densities carry too few bits for a relative comparison
    tiny = np.finfo(float).tiny
    np.testing.assert_array_equal(actual == 0, expected == 0)
    assert np.all(np.abs(actual - expected) <= rtol * np.abs(expected) + tiny)


@st.composite
def kde_cases(draw):
    """A weighted pool and query rows on it, near it, around it and far off."""
    d = draw(st.sampled_from([2, 16, 144]))
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = rng.random((n, d))
    if n > 1 and draw(st.booleans()):
        pool[-1] = pool[0]  # a duplicated pool row
    weights = rng.random(n) + 0.01 if draw(st.booleans()) else None
    bandwidth = draw(st.one_of(st.none(), st.sampled_from([0.01, 0.05, 0.3, 1.0])))
    offset = draw(st.floats(min_value=1.0, max_value=50.0))
    picks = rng.integers(0, n, size=4)
    x = np.concatenate(
        [
            pool[picks[:2]],  # distance exactly 0
            pool[picks[2:]] + rng.normal(0.0, 1e-3, size=(2, d)),
            rng.random((3, d)),  # uniform noise
            rng.random((2, d)) + offset,  # off the manifold
        ]
    )
    profile = EmpiricalProfile(pool, weights=weights, bandwidth=bandwidth)
    return profile, x, bandwidth is None


class TestEmpiricalDensityExpansion:
    @given(kde_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_broadcast_reference(self, case):
        profile, x, scott = case
        rtol = SCOTT_RTOL if scott else expansion_rtol(profile, x)
        assert_density_close(profile.density(x), broadcast_density(profile, x), rtol)

    @pytest.mark.parametrize("bandwidth", [None, 0.05])
    def test_row_alone_agrees_with_its_block(self, bandwidth):
        # the contract the expansion changes: one row's density may move in
        # its last bits with the rows sharing its call, within the tolerance
        rng = np.random.default_rng(3)
        profile = EmpiricalProfile(rng.random((600, 144)), bandwidth=bandwidth)
        block = np.concatenate(
            [profile.samples[:128], profile.samples[128:256] + rng.normal(0, 0.01, (128, 144))]
        )
        together = profile.density(block)
        alone = np.concatenate([profile.density(row) for row in block])
        rtol = SCOTT_RTOL if bandwidth is None else expansion_rtol(profile, block)
        assert_density_close(alone, together, rtol)
        np.testing.assert_array_equal(profile.density(block), together)


class TestNonFiniteRows:
    """A NaN or infinite row is an error, not a NaN density."""

    @pytest.fixture(params=["gaussian-mixture", "empirical", "cell"])
    def profile(self, request, gmm_profile):
        if request.param == "gaussian-mixture":
            return gmm_profile
        if request.param == "empirical":
            return EmpiricalProfile(np.random.default_rng(0).random((20, 2)))
        return CellProfile(GridPartition(2, bins_per_dim=2), np.full(4, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_names_the_row(self, profile, bad):
        x = np.full((5, 2), 0.5)
        x[2, 1] = bad
        with pytest.raises(DataError, match="row 2"):
            profile.density(x)

    def test_naturalness_score_raises(self, profile):
        # a NaN score passes the fuzzer's `naturalness < floor` rejection
        scorer = DensityNaturalness(profile=profile).fit(np.full((4, 2), 0.5))
        with pytest.raises(DataError, match="row 0"):
            scorer.score(np.array([[np.nan, 0.5]]))


class TestCellProfile:
    def test_density_and_sampling(self):
        partition = GridPartition(2, bins_per_dim=2)
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        profile = CellProfile(partition, probs)
        # density at a point in cell 0 equals its cell probability
        point = partition.cell_center(0)[None, :]
        assert profile.density(point)[0] == pytest.approx(0.7)
        samples = profile.sample(2000, rng=0)
        cells = partition.assign(samples)
        assert np.mean(cells == 0) == pytest.approx(0.7, abs=0.05)

    def test_cell_probabilities_same_partition(self):
        partition = GridPartition(2, bins_per_dim=2)
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        profile = CellProfile(partition, probs)
        np.testing.assert_allclose(profile.cell_probabilities(partition), probs)

    def test_invalid_construction(self):
        partition = GridPartition(2, bins_per_dim=2)
        with pytest.raises(ProfileError):
            CellProfile(partition, np.array([0.5, 0.5]))
        with pytest.raises(ProfileError):
            CellProfile(partition, np.array([-1.0, 1.0, 0.5, 0.5]))


class TestFactories:
    def test_ground_truth_matches_generator(self):
        priors = [0.4, 0.3, 0.2, 0.1]
        dataset = make_gaussian_clusters(
            5000, num_classes=4, cluster_std=0.05, class_priors=priors, rng=0
        )
        profile = ground_truth_profile_for_clusters(4, 2, 0.05, class_priors=priors)
        # data drawn from the generator should have much higher density than
        # uniform points under the ground-truth profile
        data_density = profile.density(dataset.x[:200]).mean()
        uniform_density = profile.density(np.random.default_rng(1).random((200, 2))).mean()
        assert data_density > 2 * uniform_density
        np.testing.assert_allclose(profile.class_prior(4), np.array(priors))

    def test_profile_from_dataset_reweights_classes(self):
        dataset = make_gaussian_clusters(400, num_classes=4, rng=0)
        profile = profile_from_dataset(dataset, class_priors=[0.7, 0.1, 0.1, 0.1])
        np.testing.assert_allclose(profile.class_prior(4), [0.7, 0.1, 0.1, 0.1], atol=1e-9)
        _, labels = profile.sample_labeled(2000, rng=0)
        assert np.mean(labels == 0) == pytest.approx(0.7, abs=0.04)

    def test_profile_from_dataset_invalid_priors(self):
        dataset = make_gaussian_clusters(100, num_classes=4, rng=0)
        with pytest.raises(ProfileError):
            profile_from_dataset(dataset, class_priors=[0.5, 0.5])


def profile_and_rows(kind, d):
    """A profile of ``kind`` at dimension ``d``, query rows and reference rows."""
    rng = np.random.default_rng(d)
    if kind == "cell":
        partition = GridPartition(d, bins_per_dim=2, grid_dims=2)
        profile = CellProfile(partition, np.array([0.4, 0.3, 0.2, 0.1]))
        return profile, rng.random((20, d)), rng.random((30, d))
    if kind == "gaussian-mixture":
        profile = GaussianMixtureProfile(
            np.array([0.6, 0.4]), rng.random((2, d)), np.full((2, d), 0.02)
        )
    else:
        profile = EmpiricalProfile(rng.random((50, d)), weights=rng.random(50) + 0.1)
    x = np.concatenate([profile.sample(10, rng=rng), rng.random((10, d))])
    return profile, x, profile.sample(30, rng=rng)


@pytest.mark.parametrize("d", [2, 144])
@pytest.mark.parametrize("kind", ["gaussian-mixture", "empirical", "cell"])
class TestRelativeDensity:
    """One rule in log space, checked against its linear form where that is finite."""

    def test_matches_density_over_reference_mean(self, kind, d):
        profile, x, reference = profile_and_rows(kind, d)
        np.testing.assert_allclose(
            relative_density(profile.density(x, log=True), profile.density(reference, log=True)),
            profile.density(x) / profile.density(reference).mean(),
            rtol=1e-12,
        )

    def test_log_scale_is_log_of_density(self, kind, d):
        profile, x, _ = profile_and_rows(kind, d)
        np.testing.assert_allclose(
            profile.density(x, log=True), np.log(profile.density(x)), rtol=1e-12
        )


@pytest.mark.parametrize("d", [2, 144])
def test_zero_mass_reference_raises(d):
    partition = GridPartition(d, bins_per_dim=2, grid_dims=2)
    probabilities = np.zeros(4)
    probabilities[partition.assign(np.full((1, d), 0.1))[0]] = 1.0
    profile = CellProfile(partition, probabilities)
    reference = np.random.default_rng(d).uniform(0.6, 1.0, size=(10, d))
    assert np.all(profile.density(reference, log=True) == -np.inf)
    with pytest.raises(ProfileError, match="no operational density"):
        relative_density(profile.density(reference[:2], log=True), profile.density(reference, log=True))
    # the median-relative naturalness has the same nothing to divide by
    with pytest.raises(ProfileError, match="no operational density"):
        DensityNaturalness(profile=profile).fit(reference)
