"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam


def _train_toy_problem(optimizer, steps=200, seed=0):
    """Fit a linearly separable 2-class problem; return final loss."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(128, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    network = Sequential([Dense(2, 2, rng=1)], loss=SoftmaxCrossEntropy())
    for _ in range(steps):
        network.train_step_gradients(x, y)
        optimizer.step(network.layers)
    return network.compute_loss(x, y)


class TestAdam:
    def test_reduces_loss(self):
        assert _train_toy_problem(Adam(learning_rate=0.05)) < 0.2

    def test_invalid_betas(self):
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(beta2=-0.1)

    def test_invalid_eps(self):
        with pytest.raises(ConfigurationError):
            Adam(eps=0.0)


class TestCommon:
    def test_learning_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0.0)

    def test_non_trainable_layers_skipped(self):
        from repro.nn.layers import ReLU

        optimizer = Adam(learning_rate=0.1)
        optimizer.step([ReLU()])  # must not raise
