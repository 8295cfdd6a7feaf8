"""Tests for the attack library."""

import numpy as np
import pytest

from repro.attacks import (
    FGSM,
    PGD,
    BoundaryNudge,
    GaussianNoise,
    RandomFuzz,
    attack_from_name,
    available_attacks,
)
from repro.exceptions import AttackError, ShapeError
from repro.nn import accuracy


@pytest.fixture(scope="module")
def correctly_classified(trained_cluster_model, clusters_split):
    """A batch of test points the model classifies correctly."""
    _, test = clusters_split
    predictions = trained_cluster_model.predict(test.x)
    mask = predictions == test.y
    return test.x[mask][:60], test.y[mask][:60]


ATTACKS = [
    ("fgsm", lambda: FGSM(epsilon=0.15)),
    ("pgd", lambda: PGD(epsilon=0.15, num_steps=8)),
    ("random-fuzz", lambda: RandomFuzz(epsilon=0.15, num_trials=15)),
    ("gaussian-noise", lambda: GaussianNoise(epsilon=0.15, num_trials=15)),
    ("boundary-nudge", lambda: BoundaryNudge(epsilon=0.15, num_directions=4)),
]


@pytest.mark.parametrize("name,factory", ATTACKS, ids=[a[0] for a in ATTACKS])
class TestAllAttacks:
    def test_perturbations_respect_epsilon_and_domain(
        self, name, factory, trained_cluster_model, correctly_classified
    ):
        x, y = correctly_classified
        result = factory().run(trained_cluster_model, x, y, rng=0)
        assert result.adversarial_x.shape == x.shape
        assert np.all(result.adversarial_x >= 0) and np.all(result.adversarial_x <= 1)
        assert np.max(np.abs(result.adversarial_x - x)) <= 0.15 + 1e-9

    def test_success_flags_are_accurate(
        self, name, factory, trained_cluster_model, correctly_classified
    ):
        x, y = correctly_classified
        result = factory().run(trained_cluster_model, x, y, rng=0)
        predictions = trained_cluster_model.predict(result.adversarial_x)
        np.testing.assert_array_equal(predictions != y, result.success)
        np.testing.assert_array_equal(predictions, result.predicted_labels)

    def test_query_accounting(self, name, factory, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        result = factory().run(trained_cluster_model, x, y, rng=0)
        assert result.queries == result.queries_per_seed.sum()
        assert np.all(result.queries_per_seed >= 1)

    def test_empty_batch_rejected(self, name, factory, trained_cluster_model):
        with pytest.raises(AttackError):
            factory().run(trained_cluster_model, np.zeros((0, 2)), np.zeros(0, dtype=int))


#: a few settings of every attack, with the most queries each can charge a seed
QUERY_BOUNDS = [
    ("fgsm", lambda: FGSM(epsilon=0.05), 2),
    ("fgsm-wide", lambda: FGSM(epsilon=0.3), 2),
    ("pgd-3", lambda: PGD(epsilon=0.15, num_steps=3), 7),
    ("pgd-8-exhaustive", lambda: PGD(epsilon=0.05, num_steps=8, early_stop=False), 17),
    ("pgd-5-fixed-start", lambda: PGD(epsilon=0.3, num_steps=5, random_start=False), 11),
    ("random-fuzz-7", lambda: RandomFuzz(epsilon=0.05, num_trials=7), 8),
    (
        "random-fuzz-12-exhaustive",
        lambda: RandomFuzz(epsilon=0.3, num_trials=12, early_stop=False),
        13,
    ),
    ("gaussian-noise-6", lambda: GaussianNoise(epsilon=0.05, num_trials=6), 7),
    ("gaussian-noise-9", lambda: GaussianNoise(epsilon=0.3, std_fraction=1.0, num_trials=9), 10),
    (
        "boundary-nudge-3-2",
        lambda: BoundaryNudge(epsilon=0.05, num_directions=3, num_bisections=2),
        6,
    ),
    (
        "boundary-nudge-6-5",
        lambda: BoundaryNudge(epsilon=0.3, num_directions=6, num_bisections=5),
        12,
    ),
]


@pytest.mark.parametrize(
    "factory,bound", [b[1:] for b in QUERY_BOUNDS], ids=[b[0] for b in QUERY_BOUNDS]
)
def test_no_seed_is_charged_past_the_stated_bound(
    factory, bound, trained_cluster_model, correctly_classified
):
    x, y = correctly_classified
    attack = factory()
    assert attack.max_queries_per_seed == bound
    result = attack.run(trained_cluster_model, x, y, rng=0)
    assert result.queries_per_seed.max() <= bound
    if not getattr(attack, "early_stop", True):
        # an exhaustive attack charges every seed the whole bound
        assert np.all(result.queries_per_seed == bound)


class TestGradientAttacks:
    def test_pgd_roughly_as_strong_as_fgsm(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        fgsm = FGSM(epsilon=0.12).run(trained_cluster_model, x, y, rng=0)
        pgd = PGD(epsilon=0.12, num_steps=10).run(trained_cluster_model, x, y, rng=0)
        # PGD's random start makes single-run comparisons noisy; allow slack
        assert pgd.success_rate >= fgsm.success_rate - 0.1

    def test_pgd_reduces_accuracy(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        result = PGD(epsilon=0.15, num_steps=10).run(trained_cluster_model, x, y, rng=0)
        adversarial_accuracy = accuracy(y, trained_cluster_model.predict(result.adversarial_x))
        assert adversarial_accuracy < 1.0

    def test_larger_epsilon_finds_more(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        small = PGD(epsilon=0.03, num_steps=10).run(trained_cluster_model, x, y, rng=0)
        large = PGD(epsilon=0.25, num_steps=10).run(trained_cluster_model, x, y, rng=0)
        assert large.success_rate >= small.success_rate

    def test_early_stop_uses_fewer_queries(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        eager = PGD(epsilon=0.2, num_steps=10, early_stop=True).run(
            trained_cluster_model, x, y, rng=0
        )
        exhaustive = PGD(epsilon=0.2, num_steps=10, early_stop=False).run(
            trained_cluster_model, x, y, rng=0
        )
        assert eager.queries <= exhaustive.queries

    def test_pgd_invalid_config(self):
        with pytest.raises(AttackError):
            PGD(num_steps=0)
        with pytest.raises(AttackError):
            PGD(step_size=0.0)
        with pytest.raises(AttackError):
            FGSM(epsilon=0.0)

    def test_fgsm_queries_two_per_seed(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        result = FGSM(epsilon=0.1).run(trained_cluster_model, x, y, rng=0)
        assert result.queries == 2 * len(x)


class TestBlackBoxAttacks:
    def test_random_fuzz_invalid_trials(self):
        with pytest.raises(AttackError):
            RandomFuzz(num_trials=0)

    def test_gaussian_noise_invalid_std(self):
        with pytest.raises(AttackError):
            GaussianNoise(std_fraction=0.0)

    def test_boundary_nudge_shrinks_distance(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        result = BoundaryNudge(epsilon=0.2, num_directions=6, num_bisections=5).run(
            trained_cluster_model, x, y, rng=0
        )
        if np.any(result.success):
            distances = result.distances(x)[result.success]
            assert np.all(distances <= 0.2 + 1e-9)

    def test_boundary_nudge_invalid(self):
        with pytest.raises(AttackError):
            BoundaryNudge(num_directions=0)


class TestAttackResult:
    def test_distances_shape_check(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        result = FGSM(epsilon=0.1).run(trained_cluster_model, x, y, rng=0)
        with pytest.raises(ShapeError):
            result.distances(x[:3])

    def test_distances_l2(self, trained_cluster_model, correctly_classified):
        x, y = correctly_classified
        result = FGSM(epsilon=0.1).run(trained_cluster_model, x, y, rng=0)
        l2 = result.distances(x, order=2)
        linf = result.distances(x, order=np.inf)
        assert np.all(l2 >= linf - 1e-12)

    def test_success_rate_empty(self):
        from repro.attacks import AttackResult

        result = AttackResult(
            adversarial_x=np.zeros((0, 2)),
            success=np.zeros(0, dtype=bool),
            predicted_labels=np.zeros(0, dtype=int),
            queries=0,
            queries_per_seed=np.zeros(0, dtype=int),
        )
        assert result.success_rate == 0.0


class TestRegistry:
    def test_all_names_construct(self):
        for name in available_attacks():
            attack = attack_from_name(name)
            assert attack.epsilon > 0

    def test_kwargs_forwarded(self):
        attack = attack_from_name("pgd", epsilon=0.3, num_steps=3)
        assert attack.epsilon == 0.3
        assert attack.num_steps == 3

    def test_unknown_name(self):
        with pytest.raises(AttackError):
            attack_from_name("carlini-wagner")
