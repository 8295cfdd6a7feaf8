"""Tests for OP-aware retraining (RQ4)."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.exceptions import ConfigurationError, DataError
from repro.nn import accuracy
from repro.retraining import (
    OperationalRetrainer,
    RetrainingConfig,
    StandardAdversarialTrainer,
)
from repro.types import AdversarialExample


@pytest.fixture()
def detected_aes(trained_cluster_model, operational_cluster_data, cluster_naturalness):
    """A handful of real operational AEs found by PGD on low-margin seeds."""
    from repro.attacks import PGD
    from repro.nn.metrics import prediction_margin

    data = operational_cluster_data
    probs = trained_cluster_model.predict_proba(data.x)
    margins = prediction_margin(probs, data.y)
    correct = trained_cluster_model.predict(data.x) == data.y
    order = [i for i in np.argsort(margins) if correct[i]][:30]
    seeds, labels = data.x[order], data.y[order]
    result = PGD(epsilon=0.1, num_steps=10).run(trained_cluster_model, seeds, labels, rng=0)
    aes = []
    for i in np.flatnonzero(result.success):
        aes.append(
            AdversarialExample(
                seed=seeds[i],
                perturbed=result.adversarial_x[i],
                true_label=int(labels[i]),
                predicted_label=int(result.predicted_labels[i]),
                distance=float(np.max(np.abs(result.adversarial_x[i] - seeds[i]))),
                naturalness=float(cluster_naturalness.score(result.adversarial_x[i][None, :])[0]),
                op_density=1.0,
                method="pgd",
            )
        )
    return aes


class TestRetrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"ae_replication": 0},
            {"ae_weight_boost": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetrainingConfig(**kwargs)


class TestOperationalRetrainer:
    def test_fixes_most_detected_aes(
        self, trained_cluster_model, clusters_split, cluster_profile, detected_aes
    ):
        if len(detected_aes) < 3:
            pytest.skip("not enough AEs found to make the test meaningful")
        train, test = clusters_split
        retrainer = OperationalRetrainer(
            config=RetrainingConfig(epochs=8), profile=cluster_profile, rng=0
        )
        retrained = retrainer.retrain(trained_cluster_model, train, detected_aes)
        ae_inputs = np.stack([ae.perturbed for ae in detected_aes])
        ae_labels = np.array([ae.true_label for ae in detected_aes])
        before = accuracy(ae_labels, trained_cluster_model.predict(ae_inputs))
        after = accuracy(ae_labels, retrained.predict(ae_inputs))
        assert after > before

    def test_does_not_destroy_clean_accuracy(
        self, trained_cluster_model, clusters_split, cluster_profile, detected_aes
    ):
        train, test = clusters_split
        retrainer = OperationalRetrainer(
            config=RetrainingConfig(epochs=5), profile=cluster_profile, rng=0
        )
        retrained = retrainer.retrain(trained_cluster_model, train, detected_aes)
        before = accuracy(test.y, trained_cluster_model.predict(test.x))
        after = accuracy(test.y, retrained.predict(test.x))
        assert after >= before - 0.08

    def test_original_model_untouched_by_default(
        self, trained_cluster_model, clusters_split, detected_aes
    ):
        train, _ = clusters_split
        weights_before = trained_cluster_model.get_weights()
        OperationalRetrainer(config=RetrainingConfig(epochs=2), rng=0).retrain(
            trained_cluster_model, train, detected_aes
        )
        weights_after = trained_cluster_model.get_weights()
        for before, after in zip(weights_before, weights_after):
            for key in before:
                np.testing.assert_allclose(before[key], after[key])

    def test_in_place_modifies_model(self, trained_cluster_model, clusters_split, detected_aes):
        import copy

        train, _ = clusters_split
        model = copy.deepcopy(trained_cluster_model)
        OperationalRetrainer(config=RetrainingConfig(epochs=2), rng=0).retrain(
            model, train, detected_aes, in_place=True
        )
        assert not np.allclose(
            model.get_weights()[0]["weight"], trained_cluster_model.get_weights()[0]["weight"]
        )

    def test_works_without_aes(self, trained_cluster_model, clusters_split):
        train, _ = clusters_split
        retrained = OperationalRetrainer(config=RetrainingConfig(epochs=1), rng=0).retrain(
            trained_cluster_model, train, []
        )
        assert retrained is not trained_cluster_model

    def test_empty_training_set_rejected(self, trained_cluster_model, clusters_split):
        train, _ = clusters_split
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), train.num_classes)
        with pytest.raises(DataError):
            OperationalRetrainer(rng=0).retrain(trained_cluster_model, empty, [])

    def test_passed_log_density_gives_the_same_model(
        self, trained_cluster_model, clusters_split, detected_aes, cluster_profile
    ):
        train, _ = clusters_split

        def retrain(**kwargs):
            retrainer = OperationalRetrainer(
                config=RetrainingConfig(epochs=2), profile=cluster_profile, rng=0
            )
            return retrainer.retrain(trained_cluster_model, train, detected_aes, **kwargs)

        own = retrain().get_weights()
        passed = retrain(log_density=cluster_profile.density(train.x, log=True)).get_weights()
        for mine, theirs in zip(own, passed):
            for key in mine:
                np.testing.assert_array_equal(mine[key], theirs[key])
        with pytest.raises(DataError, match="log_density"):
            retrain(log_density=np.zeros(len(train) - 1))


class TestStandardAdversarialTrainer:
    def test_improves_pgd_robustness(self, trained_cluster_model, clusters_split):
        from repro.attacks import PGD

        train, test = clusters_split
        trainer = StandardAdversarialTrainer(
            epsilon=0.08, pgd_steps=3, epochs=3, learning_rate=3e-4, rng=0
        )
        hardened = trainer.retrain(trained_cluster_model, train)
        attack = PGD(epsilon=0.08, num_steps=10)
        correct = trained_cluster_model.predict(test.x) == test.y
        seeds, labels = test.x[correct][:80], test.y[correct][:80]
        before = attack.run(trained_cluster_model, seeds, labels, rng=1).success_rate
        after = attack.run(hardened, seeds, labels, rng=1).success_rate
        assert after <= before + 0.05

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            StandardAdversarialTrainer(epochs=0)
        with pytest.raises(ConfigurationError):
            StandardAdversarialTrainer(learning_rate=0.0)

    def test_empty_training_set_rejected(self, trained_cluster_model):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 4)
        with pytest.raises(DataError):
            StandardAdversarialTrainer(rng=0).retrain(trained_cluster_model, empty)
