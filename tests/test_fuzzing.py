"""Tests for the naturalness-guided operational fuzzer (RQ3)."""

import numpy as np
import pytest

from repro.exceptions import FuzzingError
from repro.fuzzing import (
    FuzzerConfig,
    GaussianMutation,
    GradientMutation,
    InterpolationMutation,
    MutationContext,
    OperationalFuzzer,
    SparseMutation,
    default_operators,
)


@pytest.fixture()
def vulnerable_seeds(trained_cluster_model, operational_cluster_data):
    """Operational points closest to the decision boundary (low margin)."""
    from repro.nn.metrics import prediction_margin

    data = operational_cluster_data
    probs = trained_cluster_model.predict_proba(data.x)
    margins = prediction_margin(probs, data.y)
    correct = trained_cluster_model.predict(data.x) == data.y
    order = np.argsort(margins)
    picked = [i for i in order if correct[i]][:10]
    return data.x[picked], data.y[picked]


@pytest.fixture()
def robust_seeds(cluster_profile):
    """Cluster centres: maximally robust points."""
    means = cluster_profile.means
    labels = cluster_profile.component_labels
    return means, labels


def _context(model, seed, label, rng_seed=0, neighbours=None):
    return MutationContext(
        seed=seed,
        current=seed.copy(),
        label=int(label),
        epsilon=0.1,
        model=model,
        natural_neighbours=neighbours,
        rng=np.random.default_rng(rng_seed),
    )


class TestMutations:
    @pytest.mark.parametrize(
        "operator",
        [GaussianMutation(), SparseMutation(), InterpolationMutation(), GradientMutation()],
        ids=["gaussian", "sparse", "interpolation", "gradient"],
    )
    def test_proposals_stay_in_cell_and_domain(
        self, operator, trained_cluster_model, operational_cluster_data
    ):
        seed = operational_cluster_data.x[0]
        label = operational_cluster_data.y[0]
        neighbours = operational_cluster_data.x[1:6]
        context = _context(trained_cluster_model, seed, label, neighbours=neighbours)
        for trial in range(10):
            context.rng = np.random.default_rng(trial)
            candidate = operator.propose(context)
            assert candidate.shape == seed.shape
            assert np.max(np.abs(candidate - seed)) <= 0.1 + 1e-12
            assert np.all(candidate >= 0) and np.all(candidate <= 1)

    def test_gradient_mutation_increases_loss(self, trained_cluster_model, operational_cluster_data):
        seed = operational_cluster_data.x[0]
        label = int(operational_cluster_data.y[0])
        context = _context(trained_cluster_model, seed, label)
        candidate = GradientMutation(step_fraction=0.5).propose(context)
        before = trained_cluster_model.compute_loss(seed[None, :], [label])
        after = trained_cluster_model.compute_loss(candidate[None, :], [label])
        assert after >= before - 1e-9

    def test_interpolation_falls_back_without_neighbours(
        self, trained_cluster_model, operational_cluster_data
    ):
        seed = operational_cluster_data.x[0]
        context = _context(trained_cluster_model, seed, 0, neighbours=None)
        candidate = InterpolationMutation().propose(context)
        assert candidate.shape == seed.shape

    def test_invalid_operator_configs(self):
        with pytest.raises(FuzzingError):
            GaussianMutation(scale_fraction=0.0)
        with pytest.raises(FuzzingError):
            SparseMutation(fraction=1.5)
        with pytest.raises(FuzzingError):
            InterpolationMutation(max_step=0.0)
        with pytest.raises(FuzzingError):
            GradientMutation(step_fraction=2.0)

    def test_default_operator_mix(self):
        with_gradient = default_operators(use_gradient=True)
        without_gradient = default_operators(use_gradient=False)
        assert any(op.queries_model for op in with_gradient)
        assert not any(op.queries_model for op in without_gradient)


class TestFuzzerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"queries_per_seed": 0},
            {"naturalness_threshold": -0.1},
            {"loss_weight": 0.0, "naturalness_weight": 0.0},
            {"gradient_probability": 1.5},
            {"min_energy": 0.0},
            {"min_energy": 2.0, "max_energy": 1.0},
            {"stall_limit": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(FuzzingError):
            FuzzerConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = FuzzerConfig()
        assert config.epsilon > 0


class TestOperationalFuzzer:
    def test_finds_aes_around_vulnerable_seeds(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data, vulnerable_seeds
    ):
        seeds, labels = vulnerable_seeds
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(epsilon=0.12, queries_per_seed=30, naturalness_threshold=0.2),
            natural_pool=operational_cluster_data.x,
        )
        result = fuzzer.fuzz(trained_cluster_model, seeds, labels, rng=0)
        assert result.detection_rate > 0.2
        for ae in result.adversarial_examples:
            # the report must be internally consistent
            assert ae.predicted_label != ae.true_label
            assert ae.distance <= 0.12 + 1e-9
            prediction = trained_cluster_model.predict(ae.perturbed[None, :])[0]
            assert prediction == ae.predicted_label

    def test_robust_seeds_rarely_yield_aes(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data, robust_seeds
    ):
        seeds, labels = robust_seeds
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(epsilon=0.05, queries_per_seed=20),
            natural_pool=operational_cluster_data.x,
        )
        result = fuzzer.fuzz(trained_cluster_model, seeds, labels, rng=0)
        assert result.detection_rate <= 0.5

    def test_respects_total_budget(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(queries_per_seed=20),
            natural_pool=data.x,
        )
        budget = 100
        result = fuzzer.fuzz(trained_cluster_model, data.x[:50], data.y[:50], budget=budget, rng=0)
        assert result.total_queries <= budget

    def test_naturalness_constraint_raises_ae_naturalness(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data, vulnerable_seeds
    ):
        seeds, labels = vulnerable_seeds
        constrained = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(epsilon=0.15, queries_per_seed=40, naturalness_threshold=0.8),
            natural_pool=operational_cluster_data.x,
        ).fuzz(trained_cluster_model, seeds, labels, rng=0)
        unconstrained = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(epsilon=0.15, queries_per_seed=40, naturalness_threshold=0.0),
            natural_pool=operational_cluster_data.x,
        ).fuzz(trained_cluster_model, seeds, labels, rng=0)
        if constrained.adversarial_examples and unconstrained.adversarial_examples:
            constrained_nat = np.mean([ae.naturalness for ae in constrained.adversarial_examples])
            unconstrained_nat = np.mean([ae.naturalness for ae in unconstrained.adversarial_examples])
            assert constrained_nat >= unconstrained_nat - 0.1

    def test_energy_scales_with_op_density(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data, robust_seeds
    ):
        seeds, labels = robust_seeds
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(queries_per_seed=20, stall_limit=0),
            natural_pool=operational_cluster_data.x,
        )
        densities = np.array([4.0, 1.0, 1.0, 0.25])
        result = fuzzer.fuzz(
            trained_cluster_model, seeds, labels, op_densities=densities, rng=0
        )
        queries = [r.queries for r in result.per_seed]
        # the densest seed gets the most search effort, the rarest the least
        assert queries[0] >= queries[3]

    def test_already_misclassified_seed_counts_immediately(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        predictions = trained_cluster_model.predict(data.x)
        wrong = np.flatnonzero(predictions != data.y)
        if len(wrong) == 0:
            pytest.skip("model has no natural failures on the operational data")
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(queries_per_seed=10),
            natural_pool=data.x,
        )
        result = fuzzer.fuzz(trained_cluster_model, data.x[wrong[:1]], data.y[wrong[:1]], rng=0)
        assert result.detection_rate == 1.0
        assert result.per_seed[0].adversarial_example.distance == 0.0
        assert result.per_seed[0].queries == 1

    def test_op_density_annotation_propagates(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data, vulnerable_seeds
    ):
        seeds, labels = vulnerable_seeds
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(epsilon=0.12, queries_per_seed=30, naturalness_threshold=0.2),
            natural_pool=operational_cluster_data.x,
        )
        densities = np.linspace(0.5, 2.0, len(seeds))
        result = fuzzer.fuzz(trained_cluster_model, seeds, labels, op_densities=densities, rng=0)
        for seed_result in result.per_seed:
            ae = seed_result.adversarial_example
            if ae is not None:
                assert ae.op_density == pytest.approx(densities[seed_result.seed_index])

    def test_input_validation(self, trained_cluster_model, cluster_naturalness):
        fuzzer = OperationalFuzzer(naturalness=cluster_naturalness)
        with pytest.raises(FuzzingError):
            fuzzer.fuzz(trained_cluster_model, np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(FuzzingError):
            fuzzer.fuzz(trained_cluster_model, np.zeros((2, 2)), np.zeros(3, dtype=int))
        with pytest.raises(FuzzingError):
            fuzzer.fuzz(
                trained_cluster_model,
                np.zeros((2, 2)),
                np.zeros(2, dtype=int),
                op_densities=np.ones(3),
            )

    def test_requires_at_least_one_operator(self, cluster_naturalness):
        with pytest.raises(FuzzingError):
            OperationalFuzzer(naturalness=cluster_naturalness, operators=[])

    @pytest.mark.parametrize("execution", ["population", "sequential"])
    @pytest.mark.parametrize("neighbour_count", [0, 1, 5])
    def test_neighbour_count_edge_cases(
        self,
        execution,
        neighbour_count,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
    ):
        # k=1 squeezes the cKDTree result axis; both paths must survive it
        data = operational_cluster_data
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(
                queries_per_seed=8, neighbour_count=neighbour_count, execution=execution
            ),
            natural_pool=data.x,
        )
        result = fuzzer.fuzz(trained_cluster_model, data.x[:4], data.y[:4], rng=0)
        assert len(result.per_seed) == 4

    def test_single_row_natural_pool(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(queries_per_seed=8),
            natural_pool=data.x[:1],
        )
        result = fuzzer.fuzz(trained_cluster_model, data.x[:3], data.y[:3], rng=0)
        assert len(result.per_seed) == 3
