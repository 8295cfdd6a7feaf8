"""Tests for repro.nn.metrics."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.metrics import accuracy, prediction_margin, weighted_accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_partial(self):
        assert accuracy(np.array([0, 1, 2, 3]), np.array([0, 1, 0, 0])) == 0.5

    def test_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([0, 1]), np.array([0]))


class TestWeightedAccuracy:
    def test_uniform_weights_match_plain(self):
        y_true = np.array([0, 1, 1, 0])
        y_pred = np.array([0, 1, 0, 0])
        assert weighted_accuracy(y_true, y_pred, np.ones(4)) == accuracy(y_true, y_pred)

    def test_weights_emphasise_errors(self):
        y_true = np.array([0, 1])
        y_pred = np.array([0, 0])
        assert weighted_accuracy(y_true, y_pred, np.array([1.0, 9.0])) == pytest.approx(0.1)

    def test_zero_weights(self):
        assert weighted_accuracy(np.array([0]), np.array([0]), np.array([0.0])) == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ShapeError):
            weighted_accuracy(np.array([0]), np.array([0]), np.array([-1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_accuracy(np.array([0, 1]), np.array([0, 1]), np.array([1.0]))


class TestPredictionMargin:
    def test_positive_for_correct_confident(self):
        probs = np.array([[0.9, 0.1]])
        assert prediction_margin(probs, np.array([0]))[0] == pytest.approx(0.8)

    def test_negative_for_misclassified(self):
        probs = np.array([[0.2, 0.8]])
        assert prediction_margin(probs, np.array([0]))[0] == pytest.approx(-0.6)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=50)
        margins = prediction_margin(probs, rng.integers(0, 5, 50))
        assert np.all(margins <= 1.0) and np.all(margins >= -1.0)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            prediction_margin(np.zeros((2, 3)), np.array([0]))
