"""The benchmark's workloads: each drives the public API the way a user does.

A workload splits into a *set-up* (build the scenario, then construct the
loop or fuzzer) and a *campaign* (the timed ``run``/``fuzz`` call).  The
scenario is built once per set-up; every campaign repetition constructs a
fresh loop or fuzzer from it, because a campaign consumes its RNG and
accumulates detections.  All inputs derive from the ``--seed`` integer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core import OperationalTestingLoop, WorkflowConfig
from repro.evaluation import make_clusters_scenario, make_glyph_scenario
from repro.exceptions import FuzzingError
from repro.fuzzing import FuzzerConfig, OperationalFuzzer
from repro.reliability import StoppingRule
from repro.retraining import RetrainingConfig

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 2021
#: The scenario (data, trained model, OP, naturalness, partition) is the
#: system under test and stays fixed; ``--seed`` draws the campaign inputs.
SCENARIO_SEED = 2021


class Checks:
    """Output checks: counts every check attempted and keeps the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _digest(parts: List[bytes]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)
    return hasher.hexdigest()[:16]


def _ae_bytes(ae) -> List[bytes]:
    return [
        np.ascontiguousarray(ae.seed, dtype=float).tobytes(),
        np.ascontiguousarray(ae.perturbed, dtype=float).tobytes(),
        f"{ae.true_label}:{ae.predicted_label}:{ae.queries}".encode(),
    ]


@dataclass
class Outcome:
    """What one campaign produced, reduced to what the benchmark reports."""

    fuzz_queries: int
    assessment_queries: int
    aes: int
    pmi_upper_final: float
    digest: str
    query_stats: Any
    raw: Any


# --------------------------------------------------------------------------- #
# the five-step loop
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoopWorkload:
    """``OperationalTestingLoop.run`` on a scenario, for a fixed iteration count."""

    name: str
    make_scenario: Callable[[], Any]
    iterations: int
    seeds_per_iteration: int
    budget_per_iteration: int
    retraining_epochs: int
    epsilon: float = 0.1
    # no campaign can push the conservative pmi bound this low, so the
    # stopping rule always runs the configured number of iterations
    target_pmi: float = 1e-9

    def construct(self, scenario, seed: int) -> OperationalTestingLoop:
        return OperationalTestingLoop(
            profile=scenario.profile,
            train_data=scenario.train_data,
            partition=scenario.partition,
            naturalness=scenario.naturalness,
            fuzzer_config=FuzzerConfig(epsilon=self.epsilon),
            retraining_config=RetrainingConfig(epochs=self.retraining_epochs),
            stopping_rule=StoppingRule(
                target_pmi=self.target_pmi,
                confidence=0.9,
                max_iterations=self.iterations,
            ),
            workflow_config=WorkflowConfig(
                test_budget_per_iteration=self.budget_per_iteration,
                seeds_per_iteration=self.seeds_per_iteration,
            ),
            rng=np.random.default_rng((seed, 1)),
        )

    def run(self, scenario, loop: OperationalTestingLoop) -> Outcome:
        _, report = loop.run(scenario.model, scenario.operational_data)
        estimate = loop.last_estimate
        per_assessment = [
            int(it.notes["queries_reliability_assessment"]) for it in report.iterations
        ]
        parts: List[bytes] = []
        for ae in loop.detected_aes:
            parts.extend(_ae_bytes(ae))
        for it in report.iterations:
            parts.append(
                f"{it.iteration}:{it.test_cases_used}:{it.aes_detected}:"
                f"{it.pmi_before.hex()}:{it.pmi_after.hex()}:"
                f"{float(it.notes['pmi_upper_after']).hex()}".encode()
            )
        parts.append(
            f"{estimate.pmi_lower.hex()}:{estimate.pmi.hex()}:"
            f"{estimate.pmi_upper.hex()}".encode()
        )
        return Outcome(
            fuzz_queries=report.total_test_cases,
            # the evidence an assessment collects depends only on the
            # operational data, so the initial assessment (before iteration
            # 0) spends what every later one does
            assessment_queries=sum(per_assessment) + per_assessment[0],
            aes=report.total_aes,
            pmi_upper_final=float(estimate.pmi_upper),
            digest=_digest(parts),
            query_stats=loop.query_stats,
            raw=(loop, report),
        )

    def check(self, scenario, outcome: Outcome, checks: Checks) -> None:
        loop, report = outcome.raw
        checks.check(
            report.num_iterations == self.iterations,
            f"ran {report.num_iterations} iterations, configured {self.iterations}",
        )
        previous_after = None
        for it in report.iterations:
            tag = f"iteration {it.iteration}"
            checks.check(
                0 <= it.test_cases_used <= self.budget_per_iteration,
                f"{tag}: {it.test_cases_used} test cases over budget "
                f"{self.budget_per_iteration}",
            )
            upper = float(it.notes["pmi_upper_after"])
            checks.check(
                all(math.isfinite(v) for v in (it.pmi_before, it.pmi_after, upper))
                and 0.0 <= it.pmi_after <= upper <= 1.0,
                f"{tag}: pmi {it.pmi_after} / upper {upper} not ordered and finite",
            )
            if previous_after is not None:
                checks.check(
                    it.pmi_before == previous_after,
                    f"{tag}: pmi_before does not continue the last pmi_after",
                )
            previous_after = it.pmi_after
        estimate = loop.last_estimate
        checks.check(
            all(
                math.isfinite(v)
                for v in (estimate.pmi_lower, estimate.pmi, estimate.pmi_upper)
            )
            and estimate.pmi_lower <= estimate.pmi <= estimate.pmi_upper,
            "final estimate: pmi_lower <= pmi <= pmi_upper does not hold",
        )
        checks.check(
            estimate.pmi == report.iterations[-1].pmi_after,
            "final estimate differs from the last iteration's pmi_after",
        )
        per_iteration = sum(it.aes_detected for it in report.iterations)
        checks.check(
            len(loop.detected_aes) == per_iteration == report.total_aes,
            f"detected {len(loop.detected_aes)} AEs, iterations sum to {per_iteration}",
        )
        for ae in loop.detected_aes:
            distance = float(np.max(np.abs(ae.perturbed - ae.seed)))
            checks.check(
                distance <= self.epsilon + 1e-12,
                f"AE at L-inf distance {distance} > epsilon {self.epsilon}",
            )


# --------------------------------------------------------------------------- #
# one population-scale fuzzing campaign
# --------------------------------------------------------------------------- #
@dataclass
class FuzzInputs:
    fuzzer: OperationalFuzzer
    seeds: np.ndarray
    labels: np.ndarray
    densities: np.ndarray
    seed: int


@dataclass(frozen=True)
class FuzzWorkload:
    """One ``OperationalFuzzer.fuzz`` campaign over many jittered seeds."""

    name: str
    make_scenario: Callable[[], Any]
    num_seeds: int
    jitter: float
    queries_per_seed: int
    budget: int
    naturalness_threshold: float
    epsilon: float = 0.1

    def construct(self, scenario, seed: int) -> FuzzInputs:
        rng = np.random.default_rng((seed, 2))
        data = scenario.operational_data
        picks = rng.integers(0, len(data), size=self.num_seeds)
        seeds = np.clip(
            data.x[picks] + rng.normal(0.0, self.jitter, size=data.x[picks].shape),
            0.0,
            1.0,
        )
        fuzzer = OperationalFuzzer(
            naturalness=scenario.naturalness,
            config=FuzzerConfig(
                epsilon=self.epsilon,
                queries_per_seed=self.queries_per_seed,
                naturalness_threshold=self.naturalness_threshold,
            ),
            natural_pool=data.x,
        )
        return FuzzInputs(
            fuzzer=fuzzer,
            seeds=seeds,
            labels=data.y[picks],
            densities=scenario.profile.density(seeds),
            seed=seed,
        )

    def run(self, scenario, inputs: FuzzInputs) -> Outcome:
        result = inputs.fuzzer.fuzz(
            scenario.model,
            inputs.seeds,
            inputs.labels,
            op_densities=inputs.densities,
            budget=self.budget,
            rng=np.random.default_rng((inputs.seed, 3)),
        )
        parts: List[bytes] = []
        for r in result.per_seed:
            parts.append(
                f"{r.seed_index}:{r.queries}:{r.candidates_rejected_by_naturalness}".encode()
            )
            if r.adversarial_example is not None:
                parts.extend(_ae_bytes(r.adversarial_example))
        return Outcome(
            fuzz_queries=result.total_queries,
            assessment_queries=0,
            aes=len(result.adversarial_examples),
            pmi_upper_final=float("nan"),
            digest=_digest(parts),
            query_stats=inputs.fuzzer.last_query_stats,
            raw=result,
        )

    def check(self, scenario, outcome: Outcome, checks: Checks) -> None:
        result = outcome.raw
        try:
            result.validate_budget(self.budget)
            problem = ""
        except FuzzingError as exc:
            problem = str(exc)
        checks.check(not problem, f"validate_budget: {problem}")
        aes = result.adversarial_examples
        if not aes:
            return
        seeds = np.stack([ae.seed for ae in aes])
        perturbed = np.stack([ae.perturbed for ae in aes])
        predictions = scenario.model.predict(perturbed)
        seed_nat = scenario.naturalness.score(seeds)
        ae_nat = scenario.naturalness.score(perturbed)
        floor = self.naturalness_threshold * seed_nat * (1.0 - 1e-9)
        for i, ae in enumerate(aes):
            distance = float(np.max(np.abs(ae.perturbed - ae.seed)))
            checks.check(
                int(predictions[i]) != ae.true_label
                and int(predictions[i]) == ae.predicted_label,
                f"AE {i}: model predicts {predictions[i]}, label {ae.true_label}",
            )
            checks.check(
                distance <= self.epsilon + 1e-12,
                f"AE {i}: L-inf distance {distance} > epsilon {self.epsilon}",
            )
            checks.check(
                ae_nat[i] >= floor[i],
                f"AE {i}: naturalness {ae_nat[i]} below "
                f"{self.naturalness_threshold} x seed naturalness {seed_nat[i]}",
            )


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        LoopWorkload(
            name="loop-glyph",
            make_scenario=lambda: make_glyph_scenario(
                num_samples=750, rng=SCENARIO_SEED
            ),
            iterations=2,
            seeds_per_iteration=30,
            budget_per_iteration=600,
            retraining_epochs=5,
        ),
        FuzzWorkload(
            name="fuzz-clusters",
            make_scenario=lambda: make_clusters_scenario(rng=SCENARIO_SEED),
            num_seeds=2000,
            jitter=0.01,
            queries_per_seed=30,
            budget=60_000,
            naturalness_threshold=0.3,
        ),
    )
}
