"""Quickstart: detect operational adversarial examples for a small classifier.

This walks through the paper's pipeline on a 2-D synthetic problem in under a
minute:

1. train a classifier on balanced data,
2. define the operational profile (operation is dominated by one class),
3. detect *operational* AEs with OP-weighted seeds + naturalness-guided fuzzing,
4. retrain on what was found, and
5. assess the delivered reliability before and after,
6. (bonus) one ExecutionPolicy drives the runtime: the testing loop
   checkpoints its campaign, and a fresh loop resumes it bit-identically.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import OperationalAEDetection, OperationalTestingLoop, WorkflowConfig
from repro.data import build_partition_for_dataset, make_gaussian_clusters
from repro.evaluation import format_table
from repro.fuzzing import FuzzerConfig
from repro.naturalness import default_naturalness_scorer
from repro.nn import Adam, Trainer, TrainerConfig, accuracy, build_mlp_classifier
from repro.op import ground_truth_profile_for_clusters, synthesize_operational_dataset
from repro.reliability import ReliabilityAssessor, StoppingRule
from repro.retraining import OperationalRetrainer, RetrainingConfig
from repro.runtime import ExecutionPolicy

SEED = 2021
CLUSTER_STD = 0.10
OPERATIONAL_PRIORS = [0.55, 0.25, 0.15, 0.05]  # operation is dominated by class 0


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. train a model on balanced data (the usual development situation)
    # ------------------------------------------------------------------ #
    dataset = make_gaussian_clusters(1200, num_classes=4, cluster_std=CLUSTER_STD, rng=SEED)
    train, test = dataset.split(0.25, rng=SEED + 1)
    model = build_mlp_classifier(2, 4, hidden_sizes=(32, 16), rng=SEED)
    Trainer(Adam(0.01), TrainerConfig(epochs=25, batch_size=64), rng=SEED).fit(
        model, train.x, train.y
    )
    print(f"test accuracy on balanced data: {accuracy(test.y, model.predict(test.x)):.3f}")

    # ------------------------------------------------------------------ #
    # 2. the operational profile: how the model will actually be used
    # ------------------------------------------------------------------ #
    profile = ground_truth_profile_for_clusters(
        4, 2, CLUSTER_STD, class_priors=OPERATIONAL_PRIORS
    )
    operational_data = synthesize_operational_dataset(profile, 800, reference=dataset, rng=SEED)
    print(
        "operational class frequencies:",
        np.round(operational_data.class_frequencies(), 3),
    )

    # ------------------------------------------------------------------ #
    # 3. detect operational AEs (OP-weighted seeds + naturalness-guided fuzzing)
    # ------------------------------------------------------------------ #
    naturalness = default_naturalness_scorer(train.x, profile=profile, rng=SEED)
    detector = OperationalAEDetection(profile=profile, naturalness=naturalness)
    detection = detector.detect(model, operational_data, budget=600, rng=SEED)
    print(
        f"detected {detection.num_detected} AEs with {detection.test_cases_used} test cases; "
        f"mean naturalness {detection.mean_naturalness():.2f}, "
        f"mean OP density {detection.mean_op_density():.2f}"
    )

    # ------------------------------------------------------------------ #
    # 4 + 5. retrain on the detected AEs and re-assess delivered reliability
    # ------------------------------------------------------------------ #
    partition = build_partition_for_dataset(dataset.x, scheme="grid", bins_per_dim=8)
    assessor = ReliabilityAssessor(partition, profile, confidence=0.9, rng=SEED)
    before = assessor.assess(model, operational_data, rng=SEED)

    retrainer = OperationalRetrainer(RetrainingConfig(epochs=6), profile=profile, rng=SEED)
    improved = retrainer.retrain(model, train, detection.adversarial_examples)
    after = assessor.assess(improved, operational_data, rng=SEED)

    rows = [
        {"model": "before retraining", "pmi": round(before.pmi, 4), "pmi-upper": round(before.pmi_upper, 4)},
        {"model": "after retraining", "pmi": round(after.pmi, 4), "pmi-upper": round(after.pmi_upper, 4)},
    ]
    print()
    print(format_table(rows, "delivered reliability (probability of misclassification per input)"))

    # ------------------------------------------------------------------ #
    # 6. the runtime API: one ExecutionPolicy drives the whole campaign
    # ------------------------------------------------------------------ #
    # An ExecutionPolicy captures the entire execution surface — batching,
    # caching, checkpoint cadence, telemetry — in one serializable object.
    # Here the testing loop checkpoints every 2 iterations of a 3-iteration
    # campaign, so the checkpoint holds the state after iteration 2.
    def testing_loop() -> OperationalTestingLoop:
        return OperationalTestingLoop(
            profile=profile,
            train_data=train,
            partition=partition,
            naturalness=naturalness,
            fuzzer_config=FuzzerConfig(queries_per_seed=25),
            retraining_config=RetrainingConfig(epochs=3),
            stopping_rule=StoppingRule(target_pmi=1e-6, max_iterations=3),
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=300,
                seeds_per_iteration=12,
                policy=ExecutionPolicy(checkpoint_every=2),
            ),
            rng=SEED,
        )

    with tempfile.TemporaryDirectory() as store_dir:
        checkpoint = Path(store_dir) / "loop.ckpt"
        _, first = testing_loop().run(
            model, operational_data, checkpoint_path=str(checkpoint)
        )
        # pretend the campaign above was killed during iteration 3: a fresh
        # loop resumes from the checkpoint and replays the tail to the same
        # result
        _, resumed = testing_loop().run(
            model, operational_data, resume_from=str(checkpoint)
        )
        same = (
            first.total_aes == resumed.total_aes
            and first.final_pmi == resumed.final_pmi
        )
        print()
        print(
            f"resumed campaign matches the uninterrupted one: {same} "
            f"({resumed.total_aes} AEs, final pmi {resumed.final_pmi:.4f} "
            "either way)"
        )
    # A whole campaign is also one declarative spec file — scenario +
    # fuzzer + workflow + stopping + policy + seed — recorded verbatim in
    # the run registry (see examples/campaign.json):
    #   python -m repro run --spec examples/campaign.json
    #   python -m repro show run-0001         # stored spec, stats, estimates
    #   python -m repro run --from-run run-0001   # reproduce it from the spec
    #   python -m repro resume run-0001       # after an interruption
    #
    # Add `--telemetry` (or `ExecutionPolicy(telemetry=True)`) and the run
    # also stores trace.jsonl + metrics.json — one span per loop iteration
    # plus the engine's counters — with zero overhead when off and <3% when
    # on, bit-identical results either way:
    #   python -m repro run --spec examples/campaign.json --telemetry
    #   python -m repro trace run-0002                   # timeline
    #   python -m repro trace run-0002 --chrome t.json   # open in Perfetto


if __name__ == "__main__":
    main()
