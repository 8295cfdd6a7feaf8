"""Tests for experiment scenarios and text reporting."""

import numpy as np
import pytest

from repro.evaluation import (
    available_scenarios,
    campaign_to_rows,
    format_table,
    make_clusters_scenario,
    make_moons_scenario,
    make_scenario,
    summarize_series,
)
from repro.exceptions import ConfigurationError
from repro.nn import accuracy
from repro.types import CampaignReport, IterationReport


class TestScenarios:
    @pytest.fixture(scope="class")
    def small_clusters(self):
        return make_clusters_scenario(num_samples=400, epochs=10, rng=0)

    def test_clusters_scenario_components(self, small_clusters):
        scenario = small_clusters
        assert len(scenario.train_data) > 0
        assert len(scenario.operational_data) > 0
        assert scenario.naturalness.is_fitted
        assert scenario.partition.num_cells > 0
        assert scenario.operational_priors.sum() == pytest.approx(1.0)

    def test_model_is_reasonably_accurate(self, small_clusters):
        scenario = small_clusters
        acc = accuracy(scenario.test_data.y, scenario.model.predict(scenario.test_data.x))
        assert acc > 0.8

    def test_operational_data_is_skewed(self, small_clusters):
        scenario = small_clusters
        freqs = scenario.operational_data.class_frequencies()
        # the operational profile concentrates on class 0
        assert freqs[0] > 1.5 / scenario.operational_data.num_classes

    def test_profile_density_integrates_with_partition(self, small_clusters):
        scenario = small_clusters
        probs = scenario.profile.cell_probabilities(scenario.partition, num_samples=1000, rng=0)
        assert probs.sum() == pytest.approx(1.0)

    def test_moons_scenario(self):
        scenario = make_moons_scenario(num_samples=400, epochs=10, rng=0)
        assert scenario.train_data.num_classes == 2
        acc = accuracy(scenario.test_data.y, scenario.model.predict(scenario.test_data.x))
        assert acc > 0.8

    def test_registry(self):
        assert set(available_scenarios()) == {"gaussian-clusters", "two-moons", "glyph-digits"}
        scenario = make_scenario("gaussian-clusters", num_samples=300, epochs=5, rng=1)
        assert scenario.name == "gaussian-clusters"
        with pytest.raises(ConfigurationError):
            make_scenario("imagenet")

    def test_invalid_priors_rejected(self):
        with pytest.raises(ConfigurationError):
            make_clusters_scenario(num_samples=300, operational_priors=[0.5, 0.5], rng=0)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"method": "a", "score": 1.2345, "count": 10},
            {"method": "longer-name", "score": 0.5, "count": 2},
        ]
        text = format_table(rows, title="results")
        lines = text.splitlines()
        assert lines[0] == "results"
        assert "method" in lines[1]
        assert len(lines) == 5

    def test_format_table_handles_missing_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_campaign_to_rows(self):
        campaign = CampaignReport()
        campaign.append(
            IterationReport(
                iteration=0,
                seeds_selected=5,
                test_cases_used=50,
                aes_detected=2,
                pmi_before=0.1,
                pmi_after=0.08,
                operational_accuracy_before=0.9,
                operational_accuracy_after=0.92,
                reliability_target=0.05,
                target_met=False,
            )
        )
        rows = campaign_to_rows(campaign)
        assert len(rows) == 1
        assert rows[0]["AEs"] == 2
        assert rows[0]["pmi-after"] == pytest.approx(0.08)

    def test_summarize_series(self):
        text = summarize_series("budget vs AEs", [100, 200], [3, 7])
        assert "budget vs AEs" in text
        assert len(text.splitlines()) == 3

    def test_summarize_series_mismatch(self):
        with pytest.raises(ConfigurationError):
            summarize_series("x", [1, 2], [1])
