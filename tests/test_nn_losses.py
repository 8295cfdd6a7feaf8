"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy


class TestSoftmaxCrossEntropy:
    def test_matches_manual_computation(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        targets = np.array([0, 2])
        value = loss.forward(logits, targets)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(2), targets]))
        assert value == pytest.approx(expected)

    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(4, 3))
        targets = np.array([0, 1, 2, 1])
        loss.forward(logits, targets)
        analytic = loss.backward()
        eps = 1e-6
        numerical = np.zeros_like(logits)
        for index in np.ndindex(*logits.shape):
            plus, minus = logits.copy(), logits.copy()
            plus[index] += eps
            minus[index] -= eps
            numerical[index] = (
                loss.forward(plus, targets) - loss.forward(minus, targets)
            ) / (2 * eps)
        loss.forward(logits, targets)  # restore state
        np.testing.assert_allclose(analytic, numerical, atol=1e-6)

    def test_sample_weight_zero_removes_contribution(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[3.0, 0.0], [0.0, 3.0]])
        targets = np.array([1, 1])  # first is wrong, second is right
        weighted = loss.forward(logits, targets, sample_weight=np.array([0.0, 1.0]))
        only_correct = loss.forward(logits[1:], targets[1:])
        assert weighted == pytest.approx(only_correct, abs=1e-9)

    def test_sample_weight_shape_error(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError):
            loss.forward(np.zeros((3, 2)), np.zeros(3, dtype=int), sample_weight=np.ones(2))

    def test_negative_sample_weight_rejected(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError):
            loss.forward(np.zeros((2, 2)), np.zeros(2, dtype=int), sample_weight=np.array([-1.0, 1.0]))

    def test_label_out_of_range(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError):
            loss.forward(np.zeros((2, 2)), np.array([0, 5]))

    def test_backward_before_forward(self):
        with pytest.raises(ShapeError):
            SoftmaxCrossEntropy().backward()

    def test_rejects_1d_logits(self):
        with pytest.raises(ShapeError):
            SoftmaxCrossEntropy().forward(np.zeros(3), np.array([0]))


class TestMeanSquaredError:
    def test_zero_for_identical(self):
        loss = MeanSquaredError()
        x = np.random.default_rng(0).random((4, 3))
        assert loss.forward(x, x) == pytest.approx(0.0)

    def test_matches_manual(self):
        loss = MeanSquaredError()
        predictions = np.array([[1.0, 2.0]])
        targets = np.array([[0.0, 0.0]])
        assert loss.forward(predictions, targets) == pytest.approx(2.5)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        loss = MeanSquaredError()
        predictions = rng.random((3, 4))
        targets = rng.random((3, 4))
        loss.forward(predictions, targets)
        analytic = loss.backward()
        eps = 1e-6
        numerical = np.zeros_like(predictions)
        for index in np.ndindex(*predictions.shape):
            plus, minus = predictions.copy(), predictions.copy()
            plus[index] += eps
            minus[index] -= eps
            numerical[index] = (
                loss.forward(plus, targets) - loss.forward(minus, targets)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numerical, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            MeanSquaredError().forward(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_sample_weights_scale(self):
        loss = MeanSquaredError()
        predictions = np.array([[1.0], [0.0]])
        targets = np.array([[0.0], [0.0]])
        # weighting the erroneous sample twice as much increases the loss
        balanced = loss.forward(predictions, targets)
        skewed = loss.forward(predictions, targets, sample_weight=np.array([2.0, 0.0]))
        assert skewed > balanced

