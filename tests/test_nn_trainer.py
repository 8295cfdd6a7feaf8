"""Tests for repro.nn.trainer."""

import numpy as np
import pytest

from repro.data import make_gaussian_clusters
from repro.exceptions import ConfigurationError, DataError
from repro.nn import Adam, SGD, Trainer, TrainerConfig, accuracy, build_mlp_classifier
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential


@pytest.fixture(scope="module")
def toy_data():
    dataset = make_gaussian_clusters(400, num_classes=3, cluster_std=0.07, rng=0)
    return dataset.split(0.25, rng=1)


class TestTrainerConfig:
    def test_defaults_valid(self):
        config = TrainerConfig()
        assert config.epochs > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"early_stopping_patience": 0},
            {"min_delta": -1.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainerConfig(**kwargs)


class TestFit:
    def test_training_improves_accuracy(self, toy_data):
        train, test = toy_data
        model = build_mlp_classifier(2, 3, hidden_sizes=(16,), rng=0)
        before = accuracy(test.y, model.predict(test.x))
        trainer = Trainer(Adam(0.01), TrainerConfig(epochs=20, batch_size=32), rng=0)
        history = trainer.fit(model, train.x, train.y)
        after = accuracy(test.y, model.predict(test.x))
        assert after > before
        assert after > 0.85
        assert history.num_epochs == 20
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.is_trained

    def test_history_tracks_validation(self, toy_data):
        train, test = toy_data
        model = build_mlp_classifier(2, 3, hidden_sizes=(8,), rng=1)
        trainer = Trainer(SGD(0.1), TrainerConfig(epochs=5), rng=0)
        history = trainer.fit(model, train.x, train.y, x_val=test.x, y_val=test.y)
        assert len(history.val_loss) == 5
        assert len(history.val_accuracy) == 5
        assert history.best_val_accuracy() > 0

    def test_best_val_accuracy_without_validation(self, toy_data):
        train, _ = toy_data
        model = build_mlp_classifier(2, 3, hidden_sizes=(8,), rng=1)
        history = Trainer(config=TrainerConfig(epochs=2), rng=0).fit(model, train.x, train.y)
        assert history.best_val_accuracy() == 0.0

    def test_early_stopping_halts_before_max_epochs(self, toy_data):
        train, test = toy_data
        model = build_mlp_classifier(2, 3, hidden_sizes=(16,), rng=2)
        config = TrainerConfig(epochs=100, early_stopping_patience=2, min_delta=1e-3)
        trainer = Trainer(Adam(0.02), config, rng=0)
        history = trainer.fit(model, train.x, train.y, x_val=test.x, y_val=test.y)
        assert history.num_epochs < 100

    def test_sample_weights_shift_decision(self):
        # two overlapping classes: weighting class 1 heavily should raise its recall
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.4, 0.1, (200, 2)), rng.normal(0.6, 0.1, (200, 2))])
        y = np.array([0] * 200 + [1] * 200)
        weights = np.where(y == 1, 10.0, 1.0)
        model_plain = build_mlp_classifier(2, 2, hidden_sizes=(8,), rng=3)
        model_weighted = build_mlp_classifier(2, 2, hidden_sizes=(8,), rng=3)
        Trainer(Adam(0.01), TrainerConfig(epochs=15), rng=0).fit(model_plain, x, y)
        Trainer(Adam(0.01), TrainerConfig(epochs=15), rng=0).fit(
            model_weighted, x, y, sample_weight=weights
        )
        recall_plain = np.mean(model_plain.predict(x[y == 1]) == 1)
        recall_weighted = np.mean(model_weighted.predict(x[y == 1]) == 1)
        assert recall_weighted >= recall_plain

    def test_epoch_callback_invoked(self, toy_data):
        train, _ = toy_data
        model = build_mlp_classifier(2, 3, hidden_sizes=(8,), rng=4)
        calls = []
        Trainer(config=TrainerConfig(epochs=3), rng=0).fit(
            model, train.x, train.y, epoch_callback=lambda e, h: calls.append(e)
        )
        assert calls == [0, 1, 2]

    def test_regression_targets_record_no_accuracy(self, toy_data):
        # targets shaped like the output are regression targets: kept as
        # floats, with a loss history and no accuracy
        train, test = toy_data
        network = Sequential(
            [Dense(2, 8, rng=0), ReLU(), Dense(8, 2, rng=1)], loss=MeanSquaredError()
        )
        history = Trainer(Adam(0.01), TrainerConfig(epochs=4), rng=0).fit(
            network, train.x, train.x, x_val=test.x, y_val=test.x
        )
        assert history.num_epochs == len(history.val_loss) == 4
        assert history.train_accuracy == [] and history.val_accuracy == []
        assert history.train_loss[-1] < history.train_loss[0]
        assert network.is_trained

    def test_shuffle_off_is_deterministic(self, toy_data):
        train, _ = toy_data
        results = []
        for _ in range(2):
            model = build_mlp_classifier(2, 3, hidden_sizes=(8,), rng=5)
            Trainer(Adam(0.01), TrainerConfig(epochs=3, shuffle=False), rng=0).fit(
                model, train.x, train.y
            )
            results.append(model.predict_logits(train.x[:5]))
        np.testing.assert_allclose(results[0], results[1])


class TestFitValidation:
    def test_rejects_empty_dataset(self):
        model = build_mlp_classifier(2, 2, rng=0)
        with pytest.raises(DataError):
            Trainer(rng=0).fit(model, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_rejects_mismatched_lengths(self):
        model = build_mlp_classifier(2, 2, rng=0)
        with pytest.raises(DataError):
            Trainer(rng=0).fit(model, np.zeros((4, 2)), np.zeros(3, dtype=int))

    def test_rejects_3d_inputs(self):
        model = build_mlp_classifier(2, 2, rng=0)
        with pytest.raises(DataError):
            Trainer(rng=0).fit(model, np.zeros((4, 2, 1)), np.zeros(4, dtype=int))

    def test_rejects_bad_sample_weight_shape(self):
        model = build_mlp_classifier(2, 2, rng=0)
        with pytest.raises(DataError):
            Trainer(rng=0).fit(
                model, np.zeros((4, 2)), np.zeros(4, dtype=int), sample_weight=np.ones(3)
            )


class TestEvaluate:
    def test_returns_loss_and_accuracy(self, toy_data):
        train, test = toy_data
        model = build_mlp_classifier(2, 3, hidden_sizes=(8,), rng=6)
        trainer = Trainer(Adam(0.01), TrainerConfig(epochs=10), rng=0)
        trainer.fit(model, train.x, train.y)
        metrics = trainer.evaluate(model, test.x, test.y)
        assert set(metrics) == {"loss", "accuracy"}
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["loss"] >= 0.0
