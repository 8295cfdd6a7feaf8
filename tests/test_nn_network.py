"""Tests for repro.nn.network.Sequential."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Sequential


@pytest.fixture()
def small_network():
    return Sequential(
        [Dense(3, 8, rng=0), ReLU(), Dense(8, 4, rng=1)], loss=SoftmaxCrossEntropy()
    )


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_default_loss(self):
        network = Sequential([Dense(2, 2, rng=0)])
        assert isinstance(network.loss, SoftmaxCrossEntropy)


class TestForwardPredict(object):
    def test_logits_shape(self, small_network):
        logits = small_network.predict_logits(np.zeros((5, 3)))
        assert logits.shape == (5, 4)

    def test_single_input_promoted_to_batch(self, small_network):
        logits = small_network.predict_logits(np.zeros(3))
        assert logits.shape == (1, 4)

    def test_proba_rows_sum_to_one(self, small_network):
        probs = small_network.predict_proba(np.random.default_rng(0).random((6, 3)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(probs >= 0)

    def test_predict_consistent_with_proba(self, small_network):
        x = np.random.default_rng(1).random((10, 3))
        np.testing.assert_array_equal(
            small_network.predict(x), small_network.predict_proba(x).argmax(axis=1)
        )


class TestInputGradient:
    def test_matches_numerical(self, small_network):
        rng = np.random.default_rng(4)
        x = rng.random((3, 3))
        y = np.array([0, 1, 2])
        analytic = small_network.loss_input_gradient(x, y)
        eps = 1e-6
        numerical = np.zeros_like(x)
        for index in np.ndindex(*x.shape):
            plus, minus = x.copy(), x.copy()
            plus[index] += eps
            minus[index] -= eps
            numerical[index] = (
                small_network.compute_loss(plus, y) - small_network.compute_loss(minus, y)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numerical, atol=1e-6)

    def test_single_input_shape(self, small_network):
        grad = small_network.loss_input_gradient(np.zeros(3), 1)
        assert grad.shape == (3,)

    def test_gradient_direction_increases_loss(self, small_network):
        rng = np.random.default_rng(5)
        x = rng.random((1, 3))
        y = np.array([2])
        grad = small_network.loss_input_gradient(x, y)
        stepped = x + 0.05 * np.sign(grad)
        assert small_network.compute_loss(stepped, y) >= small_network.compute_loss(x, y) - 1e-9


class TestWeights:
    def test_get_set_roundtrip(self, small_network):
        weights = small_network.get_weights()
        x = np.random.default_rng(6).random((4, 3))
        before = small_network.predict_logits(x)
        # perturb, then restore
        small_network.layers[0].weight += 1.0
        assert not np.allclose(before, small_network.predict_logits(x))
        small_network.set_weights(weights)
        np.testing.assert_allclose(before, small_network.predict_logits(x))

    def test_get_weights_is_a_copy(self, small_network):
        weights = small_network.get_weights()
        weights[0]["weight"][...] = 0.0
        assert not np.allclose(small_network.layers[0].weight, 0.0)

    def test_set_weights_wrong_layer_count(self, small_network):
        with pytest.raises(ShapeError):
            small_network.set_weights([{}])

    def test_set_weights_wrong_shape(self, small_network):
        weights = small_network.get_weights()
        weights[0]["weight"] = np.zeros((2, 2))
        with pytest.raises(ShapeError):
            small_network.set_weights(weights)

    def test_set_weights_wrong_names(self, small_network):
        weights = small_network.get_weights()
        weights[0] = {"kernel": weights[0]["weight"], "bias": weights[0]["bias"]}
        with pytest.raises(ShapeError):
            small_network.set_weights(weights)


class TestTrainingState:
    def test_train_step_returns_loss_and_sets_gradients(self, small_network):
        x = np.random.default_rng(7).random((8, 3))
        y = np.random.default_rng(8).integers(0, 4, size=8)
        value = small_network.train_step_gradients(x, y)
        assert np.isfinite(value)
        assert np.any(small_network.layers[0].grad_weight != 0)
