"""Tests for the cell-based reliability assessment (RQ5)."""

import numpy as np
import pytest

from repro.data import GridPartition
from repro.exceptions import ReliabilityError
from repro.reliability import (
    BayesianCellModel,
    BetaPrior,
    CellEvidence,
    CellPosterior,
    CellEvidenceTable,
    CellRobustnessEvaluator,
    ReliabilityAssessor,
    ReliabilityEstimate,
    StoppingRule,
)


class TestCellEvidence:
    def test_unastuteness(self):
        evidence = CellEvidence(cell_id=0, label=1, trials=10, failures=3)
        assert evidence.unastuteness == pytest.approx(0.3)

    def test_unastuteness_no_trials(self):
        assert CellEvidence(cell_id=0, label=None).unastuteness == 0.0

    def test_merge(self):
        a = CellEvidence(cell_id=2, label=1, trials=10, failures=2, support=3)
        b = CellEvidence(cell_id=2, label=1, trials=5, failures=1, support=2)
        merged = a.merge(b)
        assert merged.trials == 15
        assert merged.failures == 3
        assert merged.support == 5

    def test_merge_different_cells_rejected(self):
        with pytest.raises(ReliabilityError):
            CellEvidence(cell_id=0, label=1).merge(CellEvidence(cell_id=1, label=1))


class TestCellEvidenceTable:
    def test_add_merges_same_cell(self):
        partition = GridPartition(2, bins_per_dim=2)
        table = CellEvidenceTable(partition=partition)
        table.add(CellEvidence(cell_id=0, label=1, trials=4, failures=1))
        table.add(CellEvidence(cell_id=0, label=1, trials=6, failures=2))
        assert table.cells[0].trials == 10
        assert table.cells[0].failures == 3

    def test_vectors(self):
        partition = GridPartition(2, bins_per_dim=2)
        table = CellEvidenceTable(partition=partition)
        table.add(CellEvidence(cell_id=1, label=0, trials=10, failures=5))
        unastuteness = table.unastuteness_vector()
        trials = table.trials_vector()
        failures = table.failures_vector()
        assert unastuteness[1] == pytest.approx(0.5)
        assert unastuteness[0] == 0.0
        assert trials[1] == 10 and failures[1] == 5
        assert table.evaluated_cells == [1]


class TestCellRobustnessEvaluator:
    def test_collects_evidence_for_occupied_cells(
        self, trained_cluster_model, operational_cluster_data
    ):
        partition = GridPartition(2, bins_per_dim=6)
        evaluator = CellRobustnessEvaluator(partition, samples_per_cell=5)
        table = evaluator.evaluate(trained_cluster_model, operational_cluster_data, rng=0)
        occupied = set(np.unique(partition.assign(operational_cluster_data.x)).tolist())
        assert set(table.cells) == occupied
        assert table.queries > 0
        for evidence in table.cells.values():
            assert evidence.trials > 0
            assert 0 <= evidence.failures <= evidence.trials
            assert evidence.label is not None

    def test_accurate_model_has_low_unastuteness(
        self, trained_cluster_model, operational_cluster_data
    ):
        partition = GridPartition(2, bins_per_dim=6)
        evaluator = CellRobustnessEvaluator(partition, samples_per_cell=5)
        table = evaluator.evaluate(trained_cluster_model, operational_cluster_data, rng=0)
        weights = np.array([table.cells[c].support for c in table.cells], dtype=float)
        values = np.array([table.cells[c].unastuteness for c in table.cells])
        weighted_mean = float(np.average(values, weights=weights))
        assert weighted_mean < 0.35

    def test_subset_of_cells(self, trained_cluster_model, operational_cluster_data):
        partition = GridPartition(2, bins_per_dim=6)
        evaluator = CellRobustnessEvaluator(partition, samples_per_cell=3)
        table = evaluator.evaluate(
            trained_cluster_model, operational_cluster_data, cell_ids=np.array([0, 1]), rng=0
        )
        assert set(table.cells).issubset({0, 1})

    def test_invalid_config(self):
        with pytest.raises(ReliabilityError):
            CellRobustnessEvaluator(GridPartition(2, 4), samples_per_cell=0)


class TestBayesianCellModel:
    def test_posterior_mean_between_prior_and_mle(self):
        model = BayesianCellModel(BetaPrior(1.0, 9.0))
        posterior = model.posterior_for(trials=10, failures=5)
        assert 0.1 < posterior.mean < 0.5

    def test_upper_bound_above_mean_and_decreasing_with_evidence(self):
        model = BayesianCellModel(BetaPrior(1.0, 9.0))
        weak = model.posterior_for(trials=5, failures=0)
        strong = model.posterior_for(trials=500, failures=0)
        assert weak.upper_bound(0.95) > weak.mean
        assert strong.upper_bound(0.95) < weak.upper_bound(0.95)

    def test_lower_bound_below_mean(self):
        posterior = BayesianCellModel().posterior_for(trials=20, failures=10)
        assert posterior.lower_bound(0.95) < posterior.mean

    def test_invalid_evidence(self):
        with pytest.raises(ReliabilityError):
            BayesianCellModel().posterior_for(trials=2, failures=3)

    def test_invalid_prior(self):
        with pytest.raises(ReliabilityError):
            BetaPrior(alpha=0.0)

    def test_invalid_confidence(self):
        posterior = BayesianCellModel().posterior_for(10, 1)
        with pytest.raises(ReliabilityError):
            posterior.upper_bound(1.5)

    def test_unexplored_cells_pessimistic_by_default(self):
        partition = GridPartition(2, bins_per_dim=2)
        table = CellEvidenceTable(partition=partition)
        table.add(CellEvidence(cell_id=0, label=0, trials=100, failures=0))
        model = BayesianCellModel(BetaPrior(1.0, 9.0))
        means = model.posterior_means(table)
        assert means[0] < 0.02
        assert means[1] == pytest.approx(0.1)  # the prior mean

    def test_unexplored_cells_optimistic_when_configured(self):
        partition = GridPartition(2, bins_per_dim=2)
        table = CellEvidenceTable(partition=partition)
        model = BayesianCellModel(unexplored_pessimistic=False)
        assert np.all(model.posterior_means(table) < 0.01)


def random_evidence_table(num_cells: int) -> CellEvidenceTable:
    """Evidence on two thirds of a partition's cells, zero-trial cells included."""
    rng = np.random.default_rng(0)
    partition = GridPartition(2, bins_per_dim=int(np.sqrt(num_cells)))
    table = CellEvidenceTable(partition=partition)
    for cell_id in rng.permutation(partition.num_cells)[: 2 * partition.num_cells // 3]:
        trials = int(rng.integers(0, 60))
        failures = int(rng.integers(0, trials + 1))
        table.add(CellEvidence(int(cell_id), label=0, trials=trials, failures=failures))
    return table


class TestArrayBounds:
    """The one-call array bounds equal the per-cell scalar bounds, bit for bit."""

    # one ulp above 0.5, the 1 - c quantile exceeds the c quantile on many
    # cells; the lower bound's clamp must keep lower <= upper there
    @pytest.mark.parametrize(
        "confidence", [0.5, np.nextafter(0.5, 1.0), 0.5 + 1e-10, 0.9, 0.95]
    )
    @pytest.mark.parametrize("pessimistic", [True, False])
    def test_equal_to_per_cell_posteriors(self, confidence, pessimistic):
        table = random_evidence_table(900)
        model = BayesianCellModel(BetaPrior(1.0, 9.0), unexplored_pessimistic=pessimistic)
        unexplored = (
            CellPosterior(-1, 1.0, 9.0) if pessimistic else CellPosterior(-1, 1e-3, 1e3)
        )
        posteriors = [
            model.posterior_for(ev.trials, ev.failures, cid)
            if (ev := table.cells.get(cid)) is not None
            else None
            for cid in range(table.partition.num_cells)
        ]
        expected_means = [(p or unexplored).mean for p in posteriors]
        expected_upper = [(p or unexplored).upper_bound(confidence) for p in posteriors]
        expected_lower = [0.0 if p is None else p.lower_bound(confidence) for p in posteriors]
        upper = model.posterior_upper_bounds(table, confidence)
        lower = model.posterior_lower_bounds(table, confidence)
        np.testing.assert_array_equal(model.posterior_means(table), expected_means)
        np.testing.assert_array_equal(upper, expected_upper)
        np.testing.assert_array_equal(lower, expected_lower)
        assert np.all(lower <= upper)

    def test_failures_above_trials_raise(self):
        table = CellEvidenceTable(partition=GridPartition(2, bins_per_dim=2))
        table.add(CellEvidence(cell_id=1, label=0, trials=2, failures=3))
        model = BayesianCellModel()
        for vector in (
            model.posterior_means,
            model.posterior_upper_bounds,
            model.posterior_lower_bounds,
        ):
            with pytest.raises(ReliabilityError, match="failures <= trials"):
                vector(table)

    def test_confidence_outside_unit_interval_raises(self):
        table = random_evidence_table(16)
        model = BayesianCellModel()
        for confidence in (0.0, 1.0):
            with pytest.raises(ReliabilityError, match="confidence"):
                model.posterior_upper_bounds(table, confidence)
            with pytest.raises(ReliabilityError, match="confidence"):
                model.posterior_lower_bounds(table, confidence)

    @pytest.mark.parametrize("confidence", [0.3, 0.05, np.nextafter(0.5, 0.0)])
    def test_confidence_below_one_half_raises(self, confidence, cluster_profile):
        # below 0.5 the one-sided quantiles swap: posterior_for(40, 3) has
        # lower_bound(0.3) 0.0954 above upper_bound(0.3) 0.0565
        posterior = BayesianCellModel().posterior_for(40, 3)
        table = random_evidence_table(16)
        model = BayesianCellModel()
        for bound in (
            posterior.upper_bound,
            posterior.lower_bound,
            lambda c: model.posterior_upper_bounds(table, c),
            lambda c: model.posterior_lower_bounds(table, c),
        ):
            with pytest.raises(ReliabilityError, match=r"\[0\.5, 1\)"):
                bound(confidence)
        with pytest.raises(ReliabilityError, match="confidence"):
            StoppingRule(confidence=confidence)
        with pytest.raises(ReliabilityError, match="confidence"):
            ReliabilityAssessor(GridPartition(2, 4), cluster_profile, confidence=confidence)

    def test_confidence_one_half_is_the_median(self):
        posterior = BayesianCellModel().posterior_for(40, 3)
        assert posterior.lower_bound(0.5) == posterior.upper_bound(0.5)
        StoppingRule(confidence=0.5)


class TestReliabilityAssessor:
    @pytest.fixture()
    def assessor(self, cluster_profile):
        partition = GridPartition(2, bins_per_dim=6)
        return ReliabilityAssessor(
            partition=partition, profile=cluster_profile, confidence=0.9, rng=0
        )

    def test_cell_probabilities_sum_to_one(self, assessor):
        assert assessor.cell_probabilities.sum() == pytest.approx(1.0)

    def test_assess_produces_consistent_estimate(
        self, assessor, trained_cluster_model, operational_cluster_data
    ):
        estimate = assessor.assess(trained_cluster_model, operational_cluster_data, rng=0)
        assert isinstance(estimate, ReliabilityEstimate)
        assert 0.0 <= estimate.pmi <= 1.0
        assert estimate.pmi_lower <= estimate.pmi <= estimate.pmi_upper
        assert estimate.operational_accuracy == pytest.approx(1.0 - estimate.pmi)
        assert estimate.cells_evaluated > 0
        assert 0.0 < estimate.total_op_mass_evaluated <= 1.0
        assert estimate.queries > 0

    def test_pmi_matches_manual_weighted_sum(
        self, assessor, trained_cluster_model, operational_cluster_data
    ):
        table = assessor.evaluator.evaluate(
            trained_cluster_model, operational_cluster_data, rng=0
        )
        estimate = assessor.assess_from_evidence(table)
        manual = float(
            np.dot(assessor.cell_probabilities, assessor.bayes.posterior_means(table))
        )
        assert estimate.pmi == pytest.approx(manual)

    def test_pmi_bounds_equal_per_cell_reference(
        self, assessor, trained_cluster_model, operational_cluster_data
    ):
        table = assessor.evaluator.evaluate(
            trained_cluster_model, operational_cluster_data, rng=0
        )
        estimate = assessor.assess_from_evidence(table)
        posteriors = {
            cid: assessor.bayes.posterior_for(ev.trials, ev.failures, cid)
            for cid, ev in table.cells.items()
        }
        prior = CellPosterior(-1, assessor.bayes.prior.alpha, assessor.bayes.prior.beta)
        upper = [
            posteriors.get(cid, prior).upper_bound(assessor.confidence)
            for cid in range(assessor.partition.num_cells)
        ]
        lower = [
            posteriors[cid].lower_bound(assessor.confidence) if cid in posteriors else 0.0
            for cid in range(assessor.partition.num_cells)
        ]
        weights = assessor.cell_probabilities
        assert estimate.pmi_upper == float(np.dot(weights, upper))
        assert estimate.pmi_lower == float(np.dot(weights, lower))

    def test_bad_model_scores_worse(self, assessor, trained_cluster_model, operational_cluster_data):
        from repro.nn import build_mlp_classifier

        untrained = build_mlp_classifier(2, 4, hidden_sizes=(8,), rng=0)
        good = assessor.assess(trained_cluster_model, operational_cluster_data, rng=0)
        bad = assessor.assess(untrained, operational_cluster_data, rng=0)
        assert bad.pmi > good.pmi

    def test_monte_carlo_accuracy_consistent(
        self, assessor, trained_cluster_model, operational_cluster_data
    ):
        mc = assessor.operational_accuracy_monte_carlo(
            trained_cluster_model, operational_cluster_data, num_samples=500, rng=0
        )
        estimate = assessor.assess(trained_cluster_model, operational_cluster_data, rng=0)
        assert abs(mc - estimate.operational_accuracy) < 0.25

    def test_identify_weak_cells(self, assessor, trained_cluster_model, operational_cluster_data):
        table = assessor.evaluator.evaluate(
            trained_cluster_model, operational_cluster_data, rng=0
        )
        weak = assessor.identify_weak_cells(table, top_k=5)
        assert 0 < len(weak) <= 5
        with pytest.raises(ReliabilityError):
            assessor.identify_weak_cells(table, top_k=0)

    def test_meets_target(self):
        estimate = ReliabilityEstimate(
            pmi=0.01,
            pmi_upper=0.03,
            pmi_lower=0.005,
            operational_accuracy=0.99,
            confidence=0.9,
            cells_evaluated=10,
            total_op_mass_evaluated=0.9,
        )
        assert estimate.meets_target(0.05, conservative=True)
        assert not estimate.meets_target(0.02, conservative=True)
        assert estimate.meets_target(0.02, conservative=False)
        with pytest.raises(ReliabilityError):
            estimate.meets_target(0.0)

    def test_invalid_confidence(self, cluster_profile):
        with pytest.raises(ReliabilityError):
            ReliabilityAssessor(GridPartition(2, 4), cluster_profile, confidence=1.0)


class TestStoppingRule:
    def _estimate(self, pmi_upper):
        return ReliabilityEstimate(
            pmi=pmi_upper / 2,
            pmi_upper=pmi_upper,
            pmi_lower=0.0,
            operational_accuracy=1 - pmi_upper / 2,
            confidence=0.9,
            cells_evaluated=5,
            total_op_mass_evaluated=0.8,
        )

    def test_stops_when_target_met(self):
        rule = StoppingRule(target_pmi=0.05, max_iterations=10)
        assert rule.should_stop(self._estimate(0.01), iteration=0, test_cases_used=10)

    def test_continues_when_not_met(self):
        rule = StoppingRule(target_pmi=0.05, max_iterations=10)
        assert not rule.should_stop(self._estimate(0.2), iteration=0, test_cases_used=10)

    def test_stops_at_max_iterations(self):
        rule = StoppingRule(target_pmi=0.001, max_iterations=3)
        assert rule.should_stop(self._estimate(0.2), iteration=2, test_cases_used=10)

    def test_stops_at_budget(self):
        rule = StoppingRule(target_pmi=0.001, max_iterations=10, max_test_cases=100)
        assert rule.should_stop(self._estimate(0.2), iteration=0, test_cases_used=150)

    def test_non_conservative_uses_point_estimate(self):
        rule = StoppingRule(target_pmi=0.06, conservative=False, max_iterations=10)
        assert rule.should_stop(self._estimate(0.1), iteration=0, test_cases_used=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_pmi": 0.0},
            {"confidence": 1.0},
            {"max_iterations": 0},
            {"max_test_cases": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ReliabilityError):
            StoppingRule(**kwargs)
