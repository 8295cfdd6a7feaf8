"""Tests for the naturalness scorers (local-OP proxies)."""

import numpy as np
import pytest

from repro.data import make_gaussian_clusters, make_glyph_digits
from repro.exceptions import ConfigurationError, NotFittedError
from repro.naturalness import (
    CompositeNaturalness,
    DensityNaturalness,
    ReconstructionNaturalness,
    default_naturalness_scorer,
)
from repro.op import ground_truth_profile_for_clusters


@pytest.fixture(scope="module")
def natural_2d():
    return make_gaussian_clusters(400, num_classes=3, cluster_std=0.05, rng=0).x


@pytest.fixture(scope="module")
def natural_images():
    return make_glyph_digits(200, image_size=10, num_classes=4, rng=1).x


class TestDensityNaturalness:
    def test_natural_scores_near_one(self, natural_2d):
        scorer = DensityNaturalness(rng=0).fit(natural_2d)
        scores = scorer.score(natural_2d[:100])
        assert np.median(scores) == pytest.approx(1.0, rel=0.25)

    def test_off_manifold_scores_lower(self, natural_2d):
        scorer = DensityNaturalness(rng=0).fit(natural_2d)
        natural_score = scorer.score(natural_2d[:100]).mean()
        corner = np.full((20, 2), 0.01)
        assert scorer.score(corner).mean() < natural_score

    def test_uses_supplied_profile(self, natural_2d):
        profile = ground_truth_profile_for_clusters(3, 2, 0.05)
        scorer = DensityNaturalness(profile=profile).fit(natural_2d)
        centre_score = scorer.score(profile.means[:1])
        gap_score = scorer.score(np.array([[0.05, 0.95]]))
        assert centre_score[0] > gap_score[0]

    def test_requires_fit(self, natural_2d):
        with pytest.raises(NotFittedError):
            DensityNaturalness().score(natural_2d[:2])

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            DensityNaturalness().fit(np.zeros((0, 2)))

    def test_invalid_max_pool(self):
        with pytest.raises(ConfigurationError):
            DensityNaturalness(max_pool=0)


class TestReconstructionNaturalness:
    def test_natural_scores_higher_than_noise(self, natural_images):
        scorer = ReconstructionNaturalness(rng=0).fit(natural_images)
        natural_scores = scorer.score(natural_images[:50])
        noise = np.random.default_rng(2).random((50, natural_images.shape[1]))
        noise_scores = scorer.score(noise)
        assert natural_scores.mean() > noise_scores.mean()

    def test_scores_positive(self, natural_images):
        scorer = ReconstructionNaturalness(rng=0).fit(natural_images)
        assert np.all(scorer.score(natural_images[:20]) > 0)

    def test_requires_fit(self, natural_images):
        with pytest.raises(NotFittedError):
            ReconstructionNaturalness().score(natural_images[:2])

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            ReconstructionNaturalness().fit(np.zeros((0, 4)))


class TestCompositeNaturalness:
    def test_combines_scorers(self, natural_2d):
        composite = CompositeNaturalness(
            [DensityNaturalness(rng=0), DensityNaturalness(bandwidth=0.1, rng=1)]
        ).fit(natural_2d)
        scores = composite.score(natural_2d[:30])
        assert scores.shape == (30,)
        assert np.all(scores > 0)

    def test_off_manifold_still_lower(self, natural_2d):
        composite = CompositeNaturalness([DensityNaturalness(rng=0)]).fit(natural_2d)
        assert composite.score(np.full((5, 2), 0.01)).mean() < composite.score(natural_2d[:50]).mean()

    def test_weights_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeNaturalness([])

    def test_is_fitted_reflects_members(self, natural_2d):
        composite = CompositeNaturalness([DensityNaturalness(rng=0)])
        assert not composite.is_fitted
        composite.fit(natural_2d)
        assert composite.is_fitted


SCORERS = {
    "density": lambda: DensityNaturalness(rng=0),
    "reconstruction": lambda: ReconstructionNaturalness(rng=0),
    "composite": lambda: CompositeNaturalness(
        [DensityNaturalness(rng=0), ReconstructionNaturalness(rng=0)]
    ),
}


class TestLogScores:
    """``score(x, log=True)`` is the log of the linear score, computed
    without exponentiating it."""

    @pytest.mark.parametrize("kind", sorted(SCORERS))
    @pytest.mark.parametrize("d", [2, 144])
    def test_log_score_is_the_log_of_the_linear_score(self, kind, d, natural_2d):
        natural = natural_2d
        if d == 144:
            natural = make_glyph_digits(200, image_size=12, num_classes=4, rng=1).x
        scorer = SCORERS[kind]().fit(natural)
        noise = np.random.default_rng(4).random((50, natural.shape[1]))
        x = np.concatenate([natural[:50], noise])
        log_scores = scorer.score(x, log=True)
        linear = scorer.score(x)
        assert np.all(np.isfinite(log_scores))
        positive = linear > 0
        assert positive.sum() >= 50
        np.testing.assert_allclose(log_scores[positive], np.log(linear[positive]), rtol=1e-12)


class TestDefaultScorer:
    def test_low_dim_uses_density_only(self, natural_2d):
        scorer = default_naturalness_scorer(natural_2d, use_autoencoder=True, rng=0)
        assert isinstance(scorer, DensityNaturalness)

    def test_high_dim_uses_composite(self, natural_images):
        scorer = default_naturalness_scorer(natural_images, use_autoencoder=True, rng=0)
        assert isinstance(scorer, CompositeNaturalness)
        assert scorer.is_fitted

    def test_scores_discriminate(self, natural_images):
        scorer = default_naturalness_scorer(natural_images, use_autoencoder=True, rng=0)
        natural = scorer.score(natural_images[:40]).mean()
        perturbed = np.clip(
            natural_images[:40] + np.random.default_rng(3).uniform(-0.4, 0.4, (40, natural_images.shape[1])),
            0,
            1,
        )
        assert scorer.score(perturbed).mean() < natural
