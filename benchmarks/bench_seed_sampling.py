"""E6 — Seed-sampling strategies: weight-based sampling vs uniform (RQ2).

For each auxiliary-information source, measures (a) how failure-prone the
selected seeds are (fraction whose epsilon-cell contains an AE, estimated with
a PGD probe) and (b) how much operational-profile mass the seeds carry.  The
paper's requirement is that seeds score highly on both.
"""

from __future__ import annotations

import numpy as np
from conftest import single_run

from repro.attacks import PGD
from repro.evaluation import format_table
from repro.op import relative_density
from repro.sampling import (
    OperationalSeedSampler,
    SurpriseWeight,
    UniformSeedSampler,
    entropy_weight,
    gradient_norm_weight,
    loss_weight,
    margin_weight,
)


NUM_SEEDS = 60


def _evaluate_samplers(scenario):
    surprise = SurpriseWeight(scenario.train_data.x, scenario.train_data.y)
    samplers = {
        "uniform": UniformSeedSampler(),
        "op+margin": OperationalSeedSampler(profile=scenario.profile, weight_function=margin_weight),
        "op+entropy": OperationalSeedSampler(profile=scenario.profile, weight_function=entropy_weight),
        "op+loss": OperationalSeedSampler(profile=scenario.profile, weight_function=loss_weight),
        "op+gradient-norm": OperationalSeedSampler(
            profile=scenario.profile, weight_function=gradient_norm_weight
        ),
        "op+surprise": OperationalSeedSampler(profile=scenario.profile, weight_function=surprise),
    }
    probe = PGD(epsilon=0.1, num_steps=8)
    log_reference = scenario.profile.density(scenario.operational_data.x, log=True)

    rows = []
    for name, sampler in samplers.items():
        selection = sampler.select(scenario.operational_data, scenario.model, NUM_SEEDS, rng=7)
        attack = probe.run(scenario.model, selection.x, selection.y, rng=7)
        density = relative_density(scenario.profile.density(selection.x, log=True), log_reference)
        rows.append(
            {
                "sampler": name,
                "attackable-fraction": round(float(attack.success_rate), 3),
                "mean-op-density": round(float(density.mean()), 3),
                "product-score": round(float(attack.success_rate * density.mean()), 3),
            }
        )
    return rows


def test_e6_seed_sampling_strategies(benchmark, clusters_scenario):
    rows = single_run(benchmark, _evaluate_samplers, clusters_scenario)
    print()
    print(format_table(rows, "E6: seed quality by sampling strategy"))
    uniform = next(r for r in rows if r["sampler"] == "uniform")
    margin = next(r for r in rows if r["sampler"] == "op+margin")
    # weight-based sampling must select more attackable seeds than uniform
    assert margin["attackable-fraction"] >= uniform["attackable-fraction"]
