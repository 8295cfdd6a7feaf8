"""Tests for repro.nn.trainer."""

import numpy as np
import pytest

from repro.data import make_gaussian_clusters
from repro.exceptions import ConfigurationError, DataError
from repro.nn import Adam, Trainer, TrainerConfig, accuracy, build_mlp_classifier


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
        loss_before = model.compute_loss(train.x, train.y)
        trainer = Trainer(Adam(0.01), TrainerConfig(epochs=20, batch_size=32), rng=0)
        trainer.fit(model, train.x, train.y)
        after = accuracy(test.y, model.predict(test.x))
        assert after > before
        assert after > 0.85
        assert model.compute_loss(train.x, train.y) < loss_before

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

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("n", [10, 150], ids=["n<batch", "n>batch"])
    def test_classifier_fit_matches_reference_loop_bitwise(self, n, weighted):
        hidden_sizes = (8, 4)
        data = np.random.default_rng(n)
        x = data.random((n, 4))
        y = data.integers(0, 3, size=n)
        weights = data.random(n) * 3.0 if weighted else None
        config = TrainerConfig(epochs=3, batch_size=64)

        # as the scenarios do: one generator builds the model, then shuffles
        rng = np.random.default_rng(7)
        fitted = build_mlp_classifier(4, 3, hidden_sizes=hidden_sizes, rng=rng)
        Trainer(Adam(0.01), config, rng=rng).fit(fitted, x, y, sample_weight=weights)

        # the reference skips exactly the builder's one draw of
        # 2 * len(hidden_sizes) + 1 child seeds, then permutes once per epoch
        reference = build_mlp_classifier(4, 3, hidden_sizes=hidden_sizes, rng=7)
        rng = np.random.default_rng(7)
        rng.integers(0, 2**31 - 1, size=2 * len(hidden_sizes) + 1)
        optimizer = Adam(0.01)
        batch_size = min(config.batch_size, n)
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_weight = weights[idx] if weighted else None
                reference.train_step_gradients(x[idx], y[idx], batch_weight)
                optimizer.step(reference.layers)

        for got, want in zip(fitted.get_weights(), reference.get_weights()):
            assert got.keys() == want.keys()
            for name in got:
                np.testing.assert_array_equal(got[name], want[name])


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

