"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    available_datasets,
    make_concentric_rings,
    make_dataset,
    make_gaussian_clusters,
    make_glyph_digits,
    make_shape_scenes,
    make_two_moons,
)
from repro.exceptions import ConfigurationError, DataError


ALL_GENERATORS = [
    ("gaussian-clusters", make_gaussian_clusters, {}),
    ("two-moons", make_two_moons, {}),
    ("concentric-rings", make_concentric_rings, {}),
    ("glyph-digits", make_glyph_digits, {"num_samples": 200}),
    ("shape-scenes", make_shape_scenes, {"num_samples": 200}),
]


@pytest.mark.parametrize("name,factory,kwargs", ALL_GENERATORS, ids=[g[0] for g in ALL_GENERATORS])
class TestAllGenerators:
    def test_inputs_in_unit_interval(self, name, factory, kwargs):
        dataset = factory(rng=0, **kwargs)
        assert np.all(dataset.x >= 0.0) and np.all(dataset.x <= 1.0)

    def test_labels_in_range(self, name, factory, kwargs):
        dataset = factory(rng=0, **kwargs)
        assert dataset.y.min() >= 0
        assert dataset.y.max() < dataset.num_classes

    def test_deterministic_with_seed(self, name, factory, kwargs):
        a = factory(rng=42, **kwargs)
        b = factory(rng=42, **kwargs)
        np.testing.assert_allclose(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self, name, factory, kwargs):
        a = factory(rng=1, **kwargs)
        b = factory(rng=2, **kwargs)
        assert not np.allclose(a.x, b.x)

    def test_class_names_present(self, name, factory, kwargs):
        dataset = factory(rng=0, **kwargs)
        assert dataset.class_names is not None
        assert len(dataset.class_names) == dataset.num_classes


class TestGaussianClusters:
    def test_respects_class_priors(self):
        priors = [0.7, 0.1, 0.1, 0.1]
        dataset = make_gaussian_clusters(4000, class_priors=priors, rng=0)
        freqs = dataset.class_frequencies()
        assert freqs[0] == pytest.approx(0.7, abs=0.03)

    def test_higher_dimensional(self):
        dataset = make_gaussian_clusters(100, num_features=5, rng=0)
        assert dataset.num_features == 5

    def test_clusters_are_separated_for_small_std(self):
        dataset = make_gaussian_clusters(500, cluster_std=0.02, rng=0)
        centers = [dataset.x[dataset.y == c].mean(axis=0) for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(centers[i] - centers[j]) > 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_samples": 0},
            {"num_classes": 1},
            {"num_features": 1},
            {"cluster_std": 0.0},
        ],
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_gaussian_clusters(**{"num_samples": 100, **kwargs})

    def test_invalid_priors(self):
        with pytest.raises(DataError):
            make_gaussian_clusters(100, class_priors=[0.5, 0.5])


class TestTwoMoons:
    def test_binary(self):
        assert make_two_moons(100, rng=0).num_classes == 2

    def test_skewed_priors(self):
        dataset = make_two_moons(2000, class_priors=[0.9, 0.1], rng=0)
        assert dataset.class_frequencies()[0] == pytest.approx(0.9, abs=0.03)

    def test_invalid_noise(self):
        with pytest.raises(ConfigurationError):
            make_two_moons(100, noise=-0.1)


class TestConcentricRings:
    def test_ring_radii_ordered(self):
        dataset = make_concentric_rings(1500, num_rings=3, ring_width=0.01, rng=0)
        center = np.array([0.5, 0.5])
        radii = [
            np.linalg.norm(dataset.x[dataset.y == c] - center, axis=1).mean() for c in range(3)
        ]
        assert radii[0] < radii[1] < radii[2]

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            make_concentric_rings(100, num_rings=1)
        with pytest.raises(ConfigurationError):
            make_concentric_rings(100, ring_width=0.0)


class TestGlyphDigits:
    def test_image_shape_metadata(self):
        dataset = make_glyph_digits(50, image_size=12, rng=0)
        assert dataset.image_shape == (1, 12, 12)
        assert dataset.num_features == 144

    def test_glyph_classes_are_distinguishable(self):
        # mean images of different digits should differ substantially
        dataset = make_glyph_digits(400, num_classes=4, noise=0.02, max_shift=0, rng=0)
        means = [dataset.x[dataset.y == c].mean(axis=0) for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 0.5

    def test_skewed_priors(self):
        priors = [0.5, 0.3, 0.1, 0.1]
        dataset = make_glyph_digits(2000, num_classes=4, class_priors=priors, rng=0)
        assert dataset.class_frequencies()[0] == pytest.approx(0.5, abs=0.04)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_classes": 11},
            {"num_classes": 1},
            {"image_size": 6},
            {"num_samples": 0},
            {"noise": -0.1},
        ],
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_glyph_digits(**{"num_samples": 10, **kwargs})

    @pytest.mark.parametrize(
        "image_size, digest", [(12, "9eaba99ba0493b84"), (28, "67fc9b426083cd51")]
    )
    def test_output_bytes_are_pinned(self, image_size, digest):
        # the images and labels of the loop benchmark's scenario size, at
        # d = 144 and at MNIST's d = 784
        dataset = make_glyph_digits(750, image_size=image_size, rng=2021)
        data = dataset.x.tobytes() + dataset.y.astype(np.int64).tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest


class TestShapeScenes:
    def test_four_classes(self):
        dataset = make_shape_scenes(40, rng=0)
        assert dataset.num_classes == 4
        assert dataset.class_names == ["circle", "square", "triangle", "cross"]

    def test_shapes_have_positive_mass(self):
        dataset = make_shape_scenes(40, noise=0.0, rng=0)
        assert np.all(dataset.x.sum(axis=1) > 1.0)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            make_shape_scenes(0)
        with pytest.raises(ConfigurationError):
            make_shape_scenes(10, image_size=4)


class TestRegistry:
    def test_available_datasets(self):
        names = available_datasets()
        assert "glyph-digits" in names and "two-moons" in names

    def test_make_dataset_dispatch(self):
        dataset = make_dataset("two-moons", num_samples=50, rng=0)
        assert dataset.name == "two-moons"

    def test_make_dataset_unknown(self):
        with pytest.raises(ConfigurationError):
            make_dataset("mnist")
