"""Tests for repro.data.transforms and repro.data.partition."""

import numpy as np
import pytest

from repro.data import (
    AnchorPartition,
    Augmenter,
    Dataset,
    GridPartition,
    brightness_shift,
    build_partition_for_dataset,
    contrast_scale,
    default_augmenter,
    feature_dropout,
    gaussian_noise,
    image_translate,
    make_glyph_digits,
    uniform_noise,
)
from repro.exceptions import ConfigurationError, DataError, ShapeError


RNG = np.random.default_rng(0)


@pytest.mark.parametrize(
    "transform",
    [
        gaussian_noise(0.1),
        uniform_noise(0.1),
        feature_dropout(0.2),
        brightness_shift(0.2),
        contrast_scale(0.5, 1.5),
    ],
    ids=["gaussian", "uniform", "dropout", "brightness", "contrast"],
)
class TestTransformsCommon:
    def test_output_in_unit_interval(self, transform):
        x = RNG.random((20, 9))
        out = transform(x, np.random.default_rng(1))
        assert out.shape == x.shape
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_does_not_mutate_input(self, transform):
        x = RNG.random((5, 9))
        original = x.copy()
        transform(x, np.random.default_rng(1))
        np.testing.assert_allclose(x, original)


class TestTransformValidation:
    def test_gaussian_negative_std(self):
        with pytest.raises(ConfigurationError):
            gaussian_noise(-0.1)

    def test_dropout_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            feature_dropout(1.0)

    def test_contrast_bounds(self):
        with pytest.raises(ConfigurationError):
            contrast_scale(1.5, 0.5)

    def test_image_translate_negative(self):
        with pytest.raises(ConfigurationError):
            image_translate((1, 4, 4), max_pixels=-1)


class TestImageTranslate:
    def test_preserves_shape_and_mass_roughly(self):
        transform = image_translate((1, 6, 6), max_pixels=1)
        x = np.zeros((3, 36))
        x[:, 14] = 1.0  # a single bright pixel away from the border
        out = transform(x, np.random.default_rng(0))
        assert out.shape == x.shape
        assert np.all(out.sum(axis=1) == pytest.approx(1.0))

    def test_rejects_wrong_width(self):
        transform = image_translate((1, 6, 6))
        with pytest.raises(ShapeError):
            transform(np.zeros((2, 10)), np.random.default_rng(0))


class TestAugmenter:
    def _dataset(self):
        x = RNG.random((30, 9))
        y = RNG.integers(0, 3, 30)
        return Dataset(x, y, 3)

    def test_augment_size_with_original(self):
        augmenter = Augmenter([gaussian_noise(0.05)], copies=2, rng=0)
        out = augmenter.augment(self._dataset())
        assert len(out) == 90

    def test_augment_size_without_original(self):
        augmenter = Augmenter([gaussian_noise(0.05)], copies=1, include_original=False, rng=0)
        out = augmenter.augment(self._dataset())
        assert len(out) == 30

    def test_labels_preserved(self):
        dataset = self._dataset()
        augmenter = Augmenter([gaussian_noise(0.05)], copies=1, rng=0)
        out = augmenter.augment(dataset)
        np.testing.assert_array_equal(out.y[:30], dataset.y)
        np.testing.assert_array_equal(out.y[30:], dataset.y)

    def test_requires_transforms(self):
        with pytest.raises(ConfigurationError):
            Augmenter([], copies=1)

    def test_invalid_copies(self):
        with pytest.raises(ConfigurationError):
            Augmenter([gaussian_noise(0.1)], copies=0)

    def test_default_augmenter_for_images(self):
        dataset = make_glyph_digits(20, image_size=10, rng=0)
        augmenter = default_augmenter(dataset.image_shape, copies=1, rng=0)
        out = augmenter.augment(dataset)
        assert len(out) == 40
        assert np.all(out.x >= 0) and np.all(out.x <= 1)

    def test_default_augmenter_tabular(self):
        augmenter = default_augmenter(None, copies=1, rng=0)
        out = augmenter.augment(self._dataset())
        assert len(out) == 60


class TestGridPartition:
    def test_num_cells(self):
        assert GridPartition(2, bins_per_dim=10).num_cells == 100

    def test_assign_in_range(self):
        partition = GridPartition(2, bins_per_dim=8)
        x = RNG.random((100, 2))
        cells = partition.assign(x)
        assert cells.min() >= 0 and cells.max() < 64

    def test_center_assigns_to_own_cell(self):
        partition = GridPartition(2, bins_per_dim=7)
        for cell_id in [0, 10, 33, 48]:
            center = partition.cell_center(cell_id)
            assert partition.assign(center[None, :])[0] == cell_id

    def test_sample_in_cell_stays_in_cell(self):
        partition = GridPartition(2, bins_per_dim=5)
        for cell_id in [0, 7, 24]:
            samples = partition.sample_in_cell(cell_id, 20, rng=0)
            assert np.all(partition.assign(samples) == cell_id)

    def test_cell_radius(self):
        assert GridPartition(2, bins_per_dim=10).cell_radius(0) == pytest.approx(0.05)

    def test_extra_dims_ignored(self):
        partition = GridPartition(5, bins_per_dim=4, grid_dims=2)
        assert partition.num_cells == 16
        x = RNG.random((10, 5))
        assert partition.assign(x).max() < 16

    def test_wrong_feature_count_rejected(self):
        with pytest.raises(ShapeError):
            GridPartition(2, bins_per_dim=4).assign(np.zeros((3, 3)))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            GridPartition(0)
        with pytest.raises(ConfigurationError):
            GridPartition(2, bins_per_dim=0)
        with pytest.raises(ConfigurationError):
            GridPartition(10, bins_per_dim=10, grid_dims=10)  # too many cells

    def test_invalid_cell_id(self):
        partition = GridPartition(2, bins_per_dim=4)
        with pytest.raises(ConfigurationError):
            partition.cell_center(16)
        with pytest.raises(ConfigurationError):
            partition.sample_in_cell(0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        # unchecked, the int cast puts a NaN row in cell 4 and an inf row in
        # cell 32, with only a RuntimeWarning
        x = np.array([[0.2, 0.3], [0.5, bad]])
        with pytest.raises(DataError, match="row 1"):
            GridPartition(2, bins_per_dim=8).assign(x)


class TestAnchorPartition:
    def test_assign_to_nearest_anchor(self):
        anchors = np.array([[0.1, 0.1], [0.9, 0.9]])
        partition = AnchorPartition(anchors, radius=0.2)
        cells = partition.assign(np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(cells, [0, 1])

    def test_cell_center_is_anchor(self):
        anchors = RNG.random((5, 3))
        partition = AnchorPartition(anchors, radius=0.1)
        np.testing.assert_allclose(partition.cell_center(3), anchors[3])

    def test_samples_stay_within_radius(self):
        anchors = RNG.random((4, 6)) * 0.5 + 0.25
        partition = AnchorPartition(anchors, radius=0.1)
        samples = partition.sample_in_cell(2, 50, rng=0)
        assert np.max(np.abs(samples - anchors[2])) <= 0.1 + 1e-12

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            AnchorPartition(np.zeros((0, 2)))
        with pytest.raises(ConfigurationError):
            AnchorPartition(np.zeros((2, 2)), radius=0.0)
        partition = AnchorPartition(RNG.random((3, 2)), radius=0.1)
        with pytest.raises(ConfigurationError):
            partition.cell_center(3)
        with pytest.raises(ConfigurationError):
            partition.cell_radius(-1)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, True, "0.1"])
    def test_radius_must_be_a_finite_number(self, radius):
        # unchecked, radius=nan fails only later, in sample_in_cell
        with pytest.raises(ConfigurationError, match="radius"):
            AnchorPartition(np.zeros((2, 2)), radius=radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_anchor_rejected(self, bad):
        anchors = np.array([[0.1, 0.1], [bad, 0.9]])
        with pytest.raises(DataError, match="row 1"):
            AnchorPartition(anchors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        # argmin over a NaN distance row would answer cell 0
        partition = AnchorPartition(np.array([[0.1, 0.1], [0.9, 0.9]]))
        with pytest.raises(DataError, match="row 2"):
            partition.assign(np.array([[0.0, 0.0], [1.0, 1.0], [bad, 0.5]]))

    def test_exact_tie_goes_to_lowest_anchor(self):
        partition = AnchorPartition(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(partition.assign(np.array([[0.5, 0.0]])), [0])

    @pytest.mark.parametrize("d", [2, 144, 784])
    def test_duplicate_anchors_go_to_lowest_index(self, d):
        rng = np.random.default_rng(d)
        distinct = rng.random((5, d))
        # anchor 3 repeats anchor 1, anchor 6 repeats anchor 4
        anchors = distinct[[0, 1, 2, 1, 3, 4, 3]]
        x = np.concatenate([distinct, distinct + rng.normal(0, 0.01, (5, d))])
        cells = AnchorPartition(anchors).assign(x)
        assert not np.isin(cells, [3, 6]).any()
        np.testing.assert_array_equal(cells[:5], [0, 1, 2, 4, 5])

    def test_assign_crosses_block_boundaries(self):
        # rows beyond the first 256-row block are assigned like the rest
        anchors = RNG.random((7, 4))
        x = RNG.random((600, 4))
        exact = ((x[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        np.testing.assert_array_equal(AnchorPartition(anchors).assign(x), exact)
        assert AnchorPartition(anchors).assign(np.zeros((0, 4))).shape == (0,)


class TestBuildPartition:
    def test_auto_low_dim_is_grid(self):
        partition = build_partition_for_dataset(RNG.random((50, 2)))
        assert isinstance(partition, GridPartition)

    def test_auto_high_dim_is_anchor(self):
        partition = build_partition_for_dataset(RNG.random((50, 20)), rng=0)
        assert isinstance(partition, AnchorPartition)

    def test_anchor_subsampling(self):
        partition = build_partition_for_dataset(
            RNG.random((300, 10)), scheme="anchor", max_anchors=100, rng=0
        )
        assert partition.num_cells == 100

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            build_partition_for_dataset(RNG.random((10, 2)), scheme="voronoi")
