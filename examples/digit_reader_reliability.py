"""Full workflow on an image-like workload: a deployed digit reader.

Scenario: a glyph-digit classifier (a stand-in for an MNIST-scale model) is
deployed where the digit frequencies are heavily skewed — think postal codes
in one region, where a few leading digits dominate.  The training data was
balanced, so the operational profile and the training distribution disagree.

The script runs the paper's five-step loop end to end (Figure 1): synthesise
the operational dataset from the OP, sample seeds, fuzz for operational AEs,
retrain with OP-aware weights and re-assess delivered reliability, iterating
until the pmi target is reached or the iteration cap fires.

Run with:  python examples/digit_reader_reliability.py
"""

from __future__ import annotations

import numpy as np

from repro.core import OperationalTestingLoop, WorkflowConfig
from repro.evaluation import campaign_to_rows, format_table, make_glyph_scenario
from repro.fuzzing import FuzzerConfig
from repro.nn import accuracy, weighted_accuracy
from repro.op import relative_density
from repro.reliability import (
    BetaPrior,
    CellRobustnessEvaluator,
    ReliabilityAssessor,
    StoppingRule,
)
from repro.retraining import RetrainingConfig

SEED = 7


def main() -> None:
    # a reduced glyph scenario keeps the example under a couple of minutes; the
    # model is trained only briefly, as a freshly deployed reader would be
    scenario = make_glyph_scenario(
        num_samples=900, image_size=10, num_classes=8, epochs=8, rng=SEED
    )
    model = scenario.model
    test = scenario.test_data

    print("digit reader under test")
    print(f"  balanced test accuracy:      {accuracy(test.y, model.predict(test.x)):.3f}")
    # relative, not raw, densities: the raw KDE overflows at MNIST's d = 784
    log_density = scenario.profile.density(test.x, log=True)
    operational_weights = relative_density(log_density, log_density)
    print(
        "  operational (OP-weighted) accuracy:"
        f" {weighted_accuracy(test.y, model.predict(test.x), operational_weights):.3f}"
    )
    print(f"  operational class priors:   {np.round(scenario.operational_priors, 3)}")
    print()

    # for the image-like (anchor-cell) partition the default assessor is very
    # conservative; use more trials per cell and a weaker prior so the pmi
    # estimate is driven by evidence rather than by the prior
    assessor = ReliabilityAssessor(
        partition=scenario.partition,
        profile=scenario.profile,
        evaluator=CellRobustnessEvaluator(scenario.partition, samples_per_cell=25),
        prior=BetaPrior(0.5, 24.5),
        confidence=0.85,
        rng=SEED,
    )
    loop = OperationalTestingLoop(
        profile=scenario.profile,
        train_data=scenario.train_data,
        partition=scenario.partition,
        naturalness=scenario.naturalness,
        fuzzer_config=FuzzerConfig(epsilon=0.15, queries_per_seed=20, naturalness_threshold=0.4),
        retraining_config=RetrainingConfig(epochs=4),
        stopping_rule=StoppingRule(target_pmi=0.02, confidence=0.85, max_iterations=3),
        workflow_config=WorkflowConfig(test_budget_per_iteration=400, seeds_per_iteration=20),
        assessor=assessor,
        rng=SEED,
    )
    improved_model, campaign = loop.run(model, scenario.operational_data)

    print(format_table(campaign_to_rows(campaign), "five-step loop, per iteration"))
    print()
    print(
        f"total test cases spent: {campaign.total_test_cases}, "
        f"operational AEs detected: {campaign.total_aes}, "
        f"final pmi: {campaign.final_pmi:.4f} "
        f"(target {loop.stopping_rule.target_pmi}, met: {campaign.target_met})"
    )
    print(
        "operational accuracy of the improved model: "
        f"{weighted_accuracy(test.y, improved_model.predict(test.x), operational_weights):.3f}"
    )


if __name__ == "__main__":
    main()
