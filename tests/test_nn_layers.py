"""Tests for repro.nn.layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import Dense, ReLU, Sigmoid


def numerical_input_gradient(layer, x, grad_output, eps=1e-5):
    """Finite-difference gradient of sum(forward(x) * grad_output) w.r.t. x."""
    grad = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        plus = x.copy()
        plus[index] += eps
        minus = x.copy()
        minus[index] -= eps
        f_plus = np.sum(layer.forward(plus) * grad_output)
        f_minus = np.sum(layer.forward(minus) * grad_output)
        grad[index] = (f_plus - f_minus) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape(self):
        layer = Dense(3, 5, rng=0)
        out = layer.forward(np.random.default_rng(0).random((4, 3)))
        assert out.shape == (4, 5)

    def test_forward_rejects_wrong_width(self):
        layer = Dense(3, 5, rng=0)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((4, 2)))

    def test_backward_before_forward_fails(self):
        layer = Dense(3, 5, rng=0)
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((4, 5)))

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 3, rng=0)
        x = rng.random((5, 4))
        grad_output = rng.random((5, 3))
        layer.forward(x)
        analytic = layer.backward(grad_output)
        numerical = numerical_input_gradient(layer, x, grad_output)
        np.testing.assert_allclose(analytic, numerical, atol=1e-6)

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng=0)
        x = rng.random((4, 3))
        grad_output = rng.random((4, 2))
        layer.forward(x)
        layer.backward(grad_output)
        analytic = layer.grad_weight.copy()
        eps = 1e-6
        numerical = np.zeros_like(layer.weight)
        for index in np.ndindex(*layer.weight.shape):
            original = layer.weight[index]
            layer.weight[index] = original + eps
            f_plus = np.sum(layer.forward(x) * grad_output)
            layer.weight[index] = original - eps
            f_minus = np.sum(layer.forward(x) * grad_output)
            layer.weight[index] = original
            numerical[index] = (f_plus - f_minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numerical, atol=1e-5)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 5)

    def test_parameters_and_gradients_keys(self):
        layer = Dense(3, 2, rng=0)
        assert set(layer.parameters()) == {"weight", "bias"}
        assert set(layer.gradients()) == {"weight", "bias"}


@pytest.mark.parametrize(
    "layer_factory",
    [ReLU, Sigmoid],
    ids=["relu", "sigmoid"],
)
def test_activation_gradients_match_numerical(layer_factory):
    rng = np.random.default_rng(3)
    layer = layer_factory()
    x = rng.normal(size=(4, 6))
    grad_output = rng.normal(size=(4, 6))
    layer.forward(x)
    analytic = layer.backward(grad_output)
    numerical = numerical_input_gradient(layer, x, grad_output)
    np.testing.assert_allclose(analytic, numerical, atol=1e-5)


class TestActivations:
    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_sigmoid_range_and_stability(self):
        out = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]))
        assert np.all(out >= 0) and np.all(out <= 1)
        assert out[0, 1] == pytest.approx(0.5)

