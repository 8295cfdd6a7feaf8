"""Tests for repro.nn.models and the autoencoder."""

import hashlib

import numpy as np
import pytest

from repro.data import make_gaussian_clusters
from repro.exceptions import ConfigurationError, NotFittedError
from repro.nn import Adam, AutoencoderConfig, DenseAutoencoder, build_mlp_classifier


class TestModelFactories:
    def test_mlp_output_shape(self):
        model = build_mlp_classifier(10, 3, hidden_sizes=(8, 4), rng=0)
        assert model.predict_logits(np.zeros((2, 10))).shape == (2, 3)

    def test_mlp_invalid_args(self):
        with pytest.raises(ConfigurationError):
            build_mlp_classifier(0, 3)
        with pytest.raises(ConfigurationError):
            build_mlp_classifier(4, 1)
        with pytest.raises(ConfigurationError):
            build_mlp_classifier(4, 3, hidden_sizes=(0,))

    def test_mlp_deterministic_given_seed(self):
        a = build_mlp_classifier(4, 2, rng=7).predict_logits(np.ones((1, 4)))
        b = build_mlp_classifier(4, 2, rng=7).predict_logits(np.ones((1, 4)))
        np.testing.assert_allclose(a, b)

    def test_mlp_initial_weights_are_pinned(self):
        # plain Generator draws, so the same bits on every host: hidden layer
        # i starts from child seed 2i and the output layer from the last
        model = build_mlp_classifier(4, 3, hidden_sizes=(8, 4), rng=7)
        digest = hashlib.sha256()
        for layer in model.get_weights():
            for name in sorted(layer):
                digest.update(np.ascontiguousarray(layer[name]).tobytes())
        assert digest.hexdigest() == (
            "32edd8b9fe2a9f88e0696df1510d79fd0c9eff9fec5331cdd1c49c8d774468ac"
        )


def reference_autoencoder_fit(autoencoder, x):
    """The autoencoder's own training loop, before ``Trainer.fit`` ran it."""
    cfg = autoencoder.config
    network = autoencoder.network
    n = len(x)
    batch_size = min(cfg.batch_size, n)
    optimizer = Adam(learning_rate=cfg.learning_rate)
    for _ in range(cfg.epochs):
        order = autoencoder._rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = x[order[start : start + batch_size]]
            network.loss.forward(network.forward(batch), batch)
            network.backward(network.loss.backward())
            optimizer.step(network.layers)
    autoencoder._fitted = True


class TestAutoencoder:
    @pytest.mark.parametrize(
        "n, d, config",
        [
            (10, 4, AutoencoderConfig(hidden_sizes=(8,), latent_dim=2, epochs=4)),
            (100, 6, AutoencoderConfig(hidden_sizes=(8,), latent_dim=2, epochs=4)),
            (96, 6, AutoencoderConfig(hidden_sizes=(8, 4), latent_dim=2, epochs=3, batch_size=32)),
            # the shape of the glyph scenario's naturalness autoencoder
            (562, 144, AutoencoderConfig(hidden_sizes=(64,), latent_dim=16, epochs=5)),
        ],
        ids=["n<batch", "n%batch!=0", "n%batch==0", "glyph"],
    )
    def test_trainer_fit_matches_reference_loop_bitwise(self, n, d, config):
        x = np.random.default_rng(n).random((n, d))
        fitted = DenseAutoencoder(d, config, rng=7).fit(x)
        reference = DenseAutoencoder(d, config, rng=7)
        reference_autoencoder_fit(reference, x)
        for got, want in zip(fitted.network.get_weights(), reference.network.get_weights()):
            assert got.keys() == want.keys()
            for name in got:
                np.testing.assert_array_equal(got[name], want[name])
        np.testing.assert_array_equal(
            fitted.reconstruction_error(x), reference.reconstruction_error(x)
        )

    def test_fit_reduces_reconstruction_error(self):
        data = make_gaussian_clusters(300, num_classes=3, cluster_std=0.05, rng=0)
        config = AutoencoderConfig(hidden_sizes=(16,), latent_dim=2, epochs=30)
        autoencoder = DenseAutoencoder(2, config, rng=0)
        autoencoder.fit(data.x)
        errors = autoencoder.reconstruction_error(data.x)
        assert errors.mean() < 0.05

    def test_natural_data_reconstructs_better_than_noise(self):
        data = make_gaussian_clusters(300, num_classes=3, cluster_std=0.05, rng=1)
        autoencoder = DenseAutoencoder(
            2, AutoencoderConfig(hidden_sizes=(16,), latent_dim=2, epochs=30), rng=0
        )
        autoencoder.fit(data.x)
        natural_error = autoencoder.reconstruction_error(data.x).mean()
        noise = np.random.default_rng(2).random((300, 2))
        noise_error = autoencoder.reconstruction_error(noise).mean()
        assert noise_error > natural_error

    def test_requires_fit_before_scoring(self):
        autoencoder = DenseAutoencoder(4, rng=0)
        with pytest.raises(NotFittedError):
            autoencoder.reconstruct(np.zeros((1, 4)))
        assert not autoencoder.is_fitted

    def test_rejects_wrong_width(self):
        autoencoder = DenseAutoencoder(4, rng=0)
        with pytest.raises(ConfigurationError):
            autoencoder.fit(np.zeros((10, 3)))

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            AutoencoderConfig(latent_dim=0)
        with pytest.raises(ConfigurationError):
            AutoencoderConfig(hidden_sizes=(0,))
        with pytest.raises(ConfigurationError, match="hidden_sizes must be an integer"):
            AutoencoderConfig(hidden_sizes=(8, 2.5))
        with pytest.raises(ConfigurationError):
            DenseAutoencoder(0)
