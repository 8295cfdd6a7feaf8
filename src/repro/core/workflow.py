"""The five-step operational testing loop of Figure 1.

Given a DL model and its application, one iteration of the loop performs:

1. **Learn the OP / synthesise the operational dataset** (RQ1) — either the
   caller supplies an operational dataset directly, or a profile plus
   synthesizer generate one.
2. **Sample seeds** from the operational dataset with weights combining OP
   density and failure likelihood (RQ2).
3. **Fuzz** around every seed under naturalness constraints to detect
   operational AEs (RQ3).
4. **Retrain** the model on the detected AEs with OP-aware weights (RQ4).
5. **Assess delivered reliability** of the retrained model (RQ5); the result
   drives the stopping rule and prioritises weak cells for the next loop.

Steps 2–5 repeat until the reliability target is met or the budget/iteration
caps are reached.  :class:`OperationalTestingLoop` wires the subsystem
packages together; every component can be swapped for an ablated or baseline
variant.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..config import RngLike, ensure_rng
from ..data.dataset import Dataset
from ..data.partition import Partition, build_partition_for_dataset
from ..engine.batching import QueryStats
from ..exceptions import CheckpointMismatchError, ConfigurationError
from ..faults.supervision import DegradeEvent, on_degrade
from ..fuzzing.fuzzer import FuzzerConfig, OperationalFuzzer
from ..runtime.policy import ExecutionPolicy, policy_or_default
from ..store.checkpoint import Checkpointer, campaign_fingerprint, read_checkpoint
from ..naturalness.metrics import NaturalnessScorer, default_naturalness_scorer
from ..nn.network import Sequential
from ..op.profile import OperationalProfile
from ..op.synthesis import OperationalDatasetSynthesizer
from ..reliability.assessment import ReliabilityAssessor, ReliabilityEstimate, StoppingRule
from ..retraining.adversarial_training import OperationalRetrainer, RetrainingConfig
from ..sampling.samplers import OperationalSeedSampler, SeedSampler
from ..types import AdversarialExample, CampaignReport, IterationReport


@dataclass
class WorkflowConfig:
    """Configuration of the operational testing loop.

    Attributes
    ----------
    test_budget_per_iteration:
        Model queries the fuzzer may spend per loop iteration.
    seeds_per_iteration:
        Seeds sampled per iteration (capped by the operational dataset size).
    operational_dataset_size:
        Size of the operational dataset synthesised when none is supplied.
    reassess_with_monte_carlo:
        Also record a direct Monte Carlo operational accuracy estimate in the
        iteration notes (slower but an independent cross-check).
    policy:
        One :class:`~repro.runtime.ExecutionPolicy` driving the whole loop:
        it replaces the fuzzer config's execution surface (the fuzzer keeps
        its own ``checkpoint_every``), drives the default reliability
        assessor (without checkpointing), and its ``checkpoint_every`` sets
        the loop's checkpoint cadence (in iterations).  ``None`` (default)
        leaves the fuzzer and assessor at their own policies and disables
        loop checkpoints.  Campaign results are bit-identical across
        policies.
    """

    test_budget_per_iteration: int = 600
    seeds_per_iteration: int = 20
    operational_dataset_size: int = 500
    reassess_with_monte_carlo: bool = False
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self) -> None:
        if self.test_budget_per_iteration <= 0:
            raise ConfigurationError("test_budget_per_iteration must be positive")
        if self.seeds_per_iteration <= 0:
            raise ConfigurationError("seeds_per_iteration must be positive")
        if self.operational_dataset_size <= 0:
            raise ConfigurationError("operational_dataset_size must be positive")
        self.policy = policy_or_default(self.policy, None, "WorkflowConfig")

    @property
    def checkpoint_cadence(self) -> int:
        """Iterations between loop checkpoints (0 disables): the policy's
        ``checkpoint_every``."""
        return self.policy.checkpoint_every if self.policy is not None else 0


class OperationalTestingLoop:
    """End-to-end implementation of the paper's proposed testing method."""

    def __init__(
        self,
        profile: OperationalProfile,
        train_data: Dataset,
        partition: Optional[Partition] = None,
        naturalness: Optional[NaturalnessScorer] = None,
        sampler: Optional[SeedSampler] = None,
        fuzzer_config: Optional[FuzzerConfig] = None,
        retraining_config: Optional[RetrainingConfig] = None,
        stopping_rule: Optional[StoppingRule] = None,
        workflow_config: Optional[WorkflowConfig] = None,
        assessor: Optional[ReliabilityAssessor] = None,
        rng: RngLike = None,
    ) -> None:
        self.profile = profile
        self.train_data = train_data
        self.config = workflow_config if workflow_config is not None else WorkflowConfig()
        self.stopping_rule = stopping_rule if stopping_rule is not None else StoppingRule()
        self.fuzzer_config = fuzzer_config if fuzzer_config is not None else FuzzerConfig()
        workflow_policy = self.config.policy
        assessor_policy = ExecutionPolicy()
        if workflow_policy is not None:
            # one workflow-level policy drives every hot path: the fuzzer's
            # execution surface (its checkpoint cadence stays its own) and
            # the default assessor's, which never checkpoints
            self.fuzzer_config = replace(
                self.fuzzer_config,
                policy=workflow_policy.replace(
                    checkpoint_every=self.fuzzer_config.policy.checkpoint_every
                ),
            )
            assessor_policy = workflow_policy.replace(checkpoint_every=0)
        self._rng = ensure_rng(rng)

        self.partition = (
            partition
            if partition is not None
            else build_partition_for_dataset(train_data.x, rng=self._rng)
        )
        self.naturalness = (
            naturalness
            if naturalness is not None
            else default_naturalness_scorer(train_data.x, profile=profile, rng=self._rng)
        )
        self.sampler = (
            sampler if sampler is not None else OperationalSeedSampler(profile=profile)
        )
        self.retrainer = OperationalRetrainer(
            config=retraining_config, profile=profile, rng=self._rng
        )
        self.assessor = (
            assessor
            if assessor is not None
            else ReliabilityAssessor(
                partition=self.partition,
                profile=profile,
                confidence=self.stopping_rule.confidence,
                policy=assessor_policy,
                rng=self._rng,
            )
        )
        self.synthesizer = OperationalDatasetSynthesizer(
            profile=profile, reference=train_data
        )
        self.detected_aes: List[AdversarialExample] = []
        #: Aggregated fuzzer engine accounting across the whole campaign.
        self.query_stats = QueryStats()
        #: Reliability estimate of the last completed assessment.
        self.last_estimate: Optional[ReliabilityEstimate] = None

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        model: Sequential,
        operational_data: Optional[Dataset] = None,
        in_place: bool = False,
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[str] = None,
    ) -> Tuple[Sequential, CampaignReport]:
        """Run the loop until the stopping rule fires.

        Parameters
        ----------
        model:
            Model under test.  A deep copy is improved and returned unless
            ``in_place`` is set.
        operational_data:
            Pre-built operational dataset (step 1 output); synthesised from
            the profile when omitted.
        checkpoint_path:
            Where to snapshot the campaign every
            ``config.checkpoint_cadence`` iterations (model weights, detected
            AEs, report, the campaign RNG's exact bit-generator state).
        resume_from:
            Checkpoint written by an earlier run of this campaign.  The
            loop must be constructed with the same arguments (training
            data, configs, RNG seed); the snapshot then restores the model
            and the campaign RNG so the remaining iterations replay
            bit-identically to an uninterrupted run — including every
            subsequent reliability estimate.
        """
        current = model if in_place else copy.deepcopy(model)
        report = CampaignReport()
        # the fingerprint hashes configuration *values* (not reprs), so any
        # object carrying the same knob settings identifies the same campaign
        knobs = "|".join(
            str(sorted(dataclasses.asdict(cfg).items()))
            for cfg in (self.config, self.stopping_rule, self.fuzzer_config)
        )
        fingerprint = campaign_fingerprint(
            self.train_data.x, self.train_data.y, extra=knobs
        )
        checkpointer = None
        if checkpoint_path is not None and self.config.checkpoint_cadence > 0:
            checkpointer = Checkpointer(
                checkpoint_path,
                every=self.config.checkpoint_cadence,
                meta={"fingerprint": fingerprint, "kind": "workflow"},
            )

        if resume_from is not None:
            payload = read_checkpoint(resume_from)
            if payload.get("fingerprint") != fingerprint:
                raise CheckpointMismatchError(
                    resume_from, fingerprint, payload.get("fingerprint")
                )
            # restore every piece of mutable campaign state; the shared RNG
            # object drives the sampler, fuzzer, retrainer and assessor, so
            # restoring its bit-generator state resumes the exact stream
            self._rng.bit_generator.state = payload["rng_state"]
            current.set_weights(payload["model_weights"])
            self.detected_aes = list(payload["detected_aes"])
            self.query_stats = payload["query_stats"]
            report = payload["report"]
            operational_data = payload["operational_data"]
            estimate_before = payload["estimate_before"]
            total_test_cases = int(payload["total_test_cases"])
            start_iteration = int(payload["next_iteration"])
            self.last_estimate = estimate_before
        else:
            if operational_data is None:
                operational_data = self.synthesizer.synthesize(
                    self.config.operational_dataset_size, rng=self._rng
                )
            estimate_before = self.assessor.assess(
                current, operational_data, rng=self._rng
            )
            self.last_estimate = estimate_before
            total_test_cases = 0
            start_iteration = 0

        # when the sharded engine exhausts its worker pool mid-iteration it
        # degrades to in-process execution; this listener writes a final
        # checkpoint of the last *completed* iteration first, so nothing is
        # lost even if the host is about to follow its workers down.  The
        # snapshot is value-copied at each iteration boundary: the live
        # report/AE/stats objects mutate mid-iteration, and a checkpoint
        # must describe a consistent iteration boundary to resume from.
        last_snapshot: Optional[Tuple[int, dict]] = None

        def _degrade_checkpoint(event: DegradeEvent) -> None:
            if checkpointer is not None and last_snapshot is not None:
                checkpointer.save(last_snapshot[0], last_snapshot[1])

        with on_degrade(_degrade_checkpoint):
            for iteration in range(start_iteration, self.stopping_rule.max_iterations):
                with telemetry.span(f"iteration-{iteration}", "app",
                                    iteration=iteration):
                    iteration_report, current, estimate_after = self._run_iteration(
                        iteration, current, operational_data, estimate_before
                    )
                total_test_cases += iteration_report.test_cases_used
                report.append(iteration_report)
                self.last_estimate = estimate_after
                if checkpointer is not None:
                    snapshot = {
                        "next_iteration": iteration + 1,
                        "rng_state": self._rng.bit_generator.state,
                        "model_weights": copy.deepcopy(current.get_weights()),
                        "detected_aes": list(self.detected_aes),
                        "query_stats": dataclasses.replace(self.query_stats),
                        "report": copy.deepcopy(report),
                        "operational_data": operational_data,
                        "estimate_before": estimate_after,
                        "total_test_cases": total_test_cases,
                    }
                    last_snapshot = (iteration + 1, snapshot)
                    checkpointer.save_if_due(iteration + 1, lambda: snapshot)
                if self.stopping_rule.should_stop(
                    estimate_after, iteration, total_test_cases
                ):
                    break
                estimate_before = estimate_after
        return current, report

    def _run_iteration(
        self,
        iteration: int,
        model: Sequential,
        operational_data: Dataset,
        estimate_before: ReliabilityEstimate,
    ) -> Tuple[IterationReport, Sequential, ReliabilityEstimate]:
        # ---- step 2: seed sampling -------------------------------------- #
        num_seeds = min(self.config.seeds_per_iteration, len(operational_data))
        selection = self.sampler.select(operational_data, model, num_seeds, rng=self._rng)

        # ---- step 3: naturalness-guided fuzzing -------------------------- #
        fuzzer = OperationalFuzzer(
            naturalness=self.naturalness,
            config=self.fuzzer_config,
            natural_pool=operational_data.x,
        )
        densities = self.profile.density(selection.x)
        mean_density = max(float(self.profile.density(operational_data.x).mean()), 1e-12)
        campaign = fuzzer.fuzz(
            model,
            selection.x,
            selection.y,
            op_densities=densities / mean_density,
            budget=self.config.test_budget_per_iteration,
            rng=self._rng,
        )
        new_aes = campaign.adversarial_examples
        self.detected_aes.extend(new_aes)

        # ---- step 4: OP-aware retraining --------------------------------- #
        if new_aes:
            model = self.retrainer.retrain(model, self.train_data, self.detected_aes)

        # ---- step 5: reliability assessment ------------------------------ #
        estimate_after = self.assessor.assess(model, operational_data, rng=self._rng)
        notes = {
            "pmi_upper_before": estimate_before.pmi_upper,
            "pmi_upper_after": estimate_after.pmi_upper,
            "queries_reliability_assessment": float(estimate_after.queries),
        }
        if fuzzer.last_query_stats is not None:
            # batched-engine accounting: how many physical model calls (and
            # cache hits) the logical fuzzing budget actually cost
            stats = fuzzer.last_query_stats
            self.query_stats.merge(stats)
            notes["fuzzer_model_calls"] = float(stats.model_calls + stats.gradient_calls)
            notes["fuzzer_rows_queried"] = float(stats.rows_queried + stats.gradient_rows)
            notes["fuzzer_cache_hits"] = float(stats.cache_hits)
        if self.config.reassess_with_monte_carlo:
            notes["mc_operational_accuracy"] = self.assessor.operational_accuracy_monte_carlo(
                model, operational_data, rng=self._rng
            )

        iteration_report = IterationReport(
            iteration=iteration,
            seeds_selected=len(selection),
            test_cases_used=campaign.total_queries,
            aes_detected=len(new_aes),
            pmi_before=estimate_before.pmi,
            pmi_after=estimate_after.pmi,
            operational_accuracy_before=estimate_before.operational_accuracy,
            operational_accuracy_after=estimate_after.operational_accuracy,
            reliability_target=self.stopping_rule.target_pmi,
            target_met=estimate_after.meets_target(
                self.stopping_rule.target_pmi, conservative=self.stopping_rule.conservative
            ),
            notes=notes,
        )
        return iteration_report, model, estimate_after


__all__ = ["WorkflowConfig", "OperationalTestingLoop"]
