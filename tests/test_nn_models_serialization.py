"""Tests for repro.nn.models, serialization and the autoencoder."""

import os

import numpy as np
import pytest

from repro.data import make_gaussian_clusters
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.nn import (
    Adam,
    AutoencoderConfig,
    DenseAutoencoder,
    Trainer,
    TrainerConfig,
    accuracy,
    build_cnn_classifier,
    build_logistic_regression,
    build_mlp_classifier,
    load_weights,
    save_weights,
)
from repro.nn.serialization import flat_dict_to_weights, weights_to_flat_dict


class TestModelFactories:
    def test_mlp_output_shape(self):
        model = build_mlp_classifier(10, 3, hidden_sizes=(8, 4), rng=0)
        assert model.predict_logits(np.zeros((2, 10))).shape == (2, 3)

    def test_mlp_with_dropout_and_batchnorm(self):
        model = build_mlp_classifier(6, 2, hidden_sizes=(8,), dropout=0.3, batch_norm=True, rng=0)
        assert model.predict(np.random.default_rng(0).random((4, 6))).shape == (4,)

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

    def test_logistic_regression(self):
        model = build_logistic_regression(5, 3, rng=0)
        assert model.num_parameters() == 5 * 3 + 3
        with pytest.raises(ConfigurationError):
            build_logistic_regression(5, 1)

    def test_cnn_forward_and_gradient(self):
        model = build_cnn_classifier(8, 3, conv_channels=(4,), dense_width=16, rng=0)
        x = np.random.default_rng(0).random((2, 64))
        assert model.predict_logits(x).shape == (2, 3)
        grad = model.loss_input_gradient(x, np.array([0, 1]))
        assert grad.shape == x.shape
        assert np.any(grad != 0)

    def test_cnn_trains_a_little(self):
        rng = np.random.default_rng(0)
        x = rng.random((60, 64))
        y = (x[:, :32].mean(axis=1) > x[:, 32:].mean(axis=1)).astype(int)
        model = build_cnn_classifier(8, 2, conv_channels=(4,), dense_width=8, rng=1)
        Trainer(Adam(0.01), TrainerConfig(epochs=5, batch_size=16), rng=0).fit(model, x, y)
        assert accuracy(y, model.predict(x)) > 0.55

    def test_cnn_invalid_args(self):
        with pytest.raises(ConfigurationError):
            build_cnn_classifier(3, 2)
        with pytest.raises(ConfigurationError):
            build_cnn_classifier(8, 1)
        with pytest.raises(ConfigurationError):
            build_cnn_classifier(8, 3, conv_channels=(4, 8, 16, 32))


class TestSerialization:
    def test_flat_dict_roundtrip(self):
        model = build_mlp_classifier(4, 3, hidden_sizes=(5,), rng=0)
        weights = model.get_weights()
        flat = weights_to_flat_dict(weights)
        restored = flat_dict_to_weights(flat)
        assert len(restored) >= 1
        np.testing.assert_allclose(restored[0]["weight"], weights[0]["weight"])

    def test_flat_dict_empty(self):
        assert flat_dict_to_weights({}) == []

    def test_flat_dict_malformed_key(self):
        with pytest.raises(ShapeError):
            flat_dict_to_weights({"weight": np.zeros(2)})
        with pytest.raises(ShapeError):
            flat_dict_to_weights({"x::y::z": np.zeros(2), "abc": np.zeros(1)})

    def test_save_load_roundtrip(self, tmp_path):
        model = build_mlp_classifier(6, 3, hidden_sizes=(8,), rng=0)
        x = np.random.default_rng(0).random((4, 6))
        expected = model.predict_logits(x)
        path = os.path.join(tmp_path, "weights", "model.npz")
        save_weights(model, path)
        other = build_mlp_classifier(6, 3, hidden_sizes=(8,), rng=99)
        assert not np.allclose(expected, other.predict_logits(x))
        load_weights(other, path)
        np.testing.assert_allclose(expected, other.predict_logits(x))

    def test_load_into_wrong_architecture(self, tmp_path):
        model = build_mlp_classifier(6, 3, hidden_sizes=(8,), rng=0)
        path = os.path.join(tmp_path, "model.npz")
        save_weights(model, path)
        other = build_mlp_classifier(6, 3, hidden_sizes=(12,), rng=0)
        with pytest.raises(ShapeError):
            load_weights(other, path)

    def test_save_load_accepts_pathlib_path(self, tmp_path):
        model = build_mlp_classifier(6, 3, hidden_sizes=(8,), rng=0)
        x = np.random.default_rng(0).random((4, 6))
        expected = model.predict_logits(x)
        path = tmp_path / "model.npz"  # pathlib.Path, not str
        save_weights(model, path)
        other = build_mlp_classifier(6, 3, hidden_sizes=(8,), rng=99)
        load_weights(other, path)
        np.testing.assert_allclose(expected, other.predict_logits(x))

    def test_save_creates_missing_parent_directories_for_path(self, tmp_path):
        model = build_mlp_classifier(4, 2, hidden_sizes=(5,), rng=0)
        path = tmp_path / "a" / "b" / "c" / "model.npz"  # none of a/b/c exist
        save_weights(model, path)
        assert path.exists()
        other = build_mlp_classifier(4, 2, hidden_sizes=(5,), rng=1)
        load_weights(other, path)
        x = np.random.default_rng(2).random((3, 4))
        np.testing.assert_allclose(model.predict_logits(x), other.predict_logits(x))

    def test_save_relative_path_without_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model = build_mlp_classifier(4, 2, hidden_sizes=(5,), rng=0)
        save_weights(model, "bare.npz")  # no parent component at all
        other = build_mlp_classifier(4, 2, hidden_sizes=(5,), rng=1)
        load_weights(other, "bare.npz")
        x = np.random.default_rng(2).random((3, 4))
        np.testing.assert_allclose(model.predict_logits(x), other.predict_logits(x))


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
            network.loss.forward(network.forward(batch, training=True), batch)
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
        with pytest.raises(ConfigurationError):
            DenseAutoencoder(0)
