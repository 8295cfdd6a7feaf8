"""Detection methods: the proposed operational-AE testing and its baselines.

A *detection method* spends a budget of test cases (model queries) trying to
find adversarial examples.  The paper's argument is that state-of-the-art
methods spend that budget without regard to the operational profile, so the
AEs they find are often irrelevant to delivered reliability.  Four methods are
implemented behind one interface so they can be compared fairly:

* :class:`OperationalAEDetection` — the proposed method: OP+failure-weighted
  seed sampling (RQ2) followed by naturalness-guided fuzzing (RQ3).
* :class:`AttackOnUniformSeeds` — state-of-the-art debug testing: a strong
  attack (PGD by default) launched from uniformly sampled seeds.
* :class:`RandomFuzzBaseline` — unguided random fuzzing from uniform seeds.
* :class:`OperationalTestingBaseline` — classic operational testing: execute
  inputs drawn from the OP and record natural failures, with no perturbation
  search at all (the "inefficient at detecting bugs" extreme of Frankl et al.).

Every method annotates the AEs it finds with the seed's OP density and the
candidate's naturalness so the comparison can score *operational* AEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..attacks.base import Attack
from ..attacks.gradient import PGD
from ..attacks.random_search import RandomFuzz
from ..config import RngLike, ensure_rng
from ..data.dataset import Dataset
from ..exceptions import ConfigurationError
from ..fuzzing.fuzzer import FuzzerConfig, OperationalFuzzer
from ..naturalness.metrics import NaturalnessScorer
from ..op.profile import OperationalProfile, relative_density
from ..runtime.policy import ExecutionPolicy
from ..sampling.samplers import OperationalSeedSampler, SeedSampler, UniformSeedSampler
from ..types import AdversarialExample, Classifier, DetectionResult


class DetectionMethod:
    """Interface of budgeted AE-detection methods."""

    name: str = "method"

    def detect(
        self,
        model: Classifier,
        operational_data: Dataset,
        budget: int,
        rng: RngLike = None,
    ) -> DetectionResult:
        """Spend at most ``budget`` test cases looking for AEs."""
        raise NotImplementedError

    @staticmethod
    def _check_budget(budget: int) -> None:
        if budget <= 0:
            raise ConfigurationError(f"budget must be positive, got {budget}")


def _relative_to(
    profile: Optional[OperationalProfile], reference: np.ndarray
) -> Tuple[Optional[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The reference rows' log densities (``None`` without a profile), and
    rows' densities relative to their mean (1 without a profile); the
    reference is evaluated once, here."""
    if profile is None:
        return None, lambda x: np.ones(len(x))
    log_reference = profile.density(reference, log=True)
    return log_reference, lambda x: relative_density(
        profile.density(x, log=True), log_reference
    )


@dataclass
class OperationalAEDetection(DetectionMethod):
    """The proposed method: OP-weighted seeds + naturalness-guided fuzzing.

    Parameters
    ----------
    profile:
        Operational profile (used for seed weights, fuzz energies and AE
        annotation).
    naturalness:
        Fitted naturalness scorer shared with the fuzzer.
    fuzzer_config:
        Fuzzer hyper-parameters; ``queries_per_seed`` determines how many
        seeds a budget buys.
    sampler:
        Seed sampler; defaults to :class:`OperationalSeedSampler` with margin
        weights.
    """

    profile: OperationalProfile
    naturalness: NaturalnessScorer
    fuzzer_config: Optional[FuzzerConfig] = None
    sampler: Optional[SeedSampler] = None
    name: str = "operational-ae-detection"

    def detect(
        self,
        model: Classifier,
        operational_data: Dataset,
        budget: int,
        rng: RngLike = None,
    ) -> DetectionResult:
        self._check_budget(budget)
        generator = ensure_rng(rng)
        config = self.fuzzer_config if self.fuzzer_config is not None else FuzzerConfig()
        sampler = (
            self.sampler
            if self.sampler is not None
            else OperationalSeedSampler(profile=self.profile)
        )
        fuzzer = OperationalFuzzer(
            naturalness=self.naturalness,
            config=config,
            natural_pool=operational_data.x,
        )
        log_reference, relative = _relative_to(self.profile, operational_data.x)
        # a sampler on the method's own profile reuses the reference densities
        shared = getattr(sampler, "profile", None) is self.profile

        adversarial: List[AdversarialExample] = []
        used = 0
        seeds_attacked = 0
        # keep sampling fresh seed batches until the test-case budget is spent
        while used < budget:
            remaining = budget - used
            num_seeds = max(1, remaining // config.queries_per_seed)
            num_seeds = min(num_seeds, len(operational_data))
            selection = sampler.select(
                operational_data, model, num_seeds, rng=generator,
                log_density=log_reference if shared else None,
            )
            campaign = fuzzer.fuzz(
                model,
                selection.x,
                selection.y,
                op_densities=relative(selection.x),
                budget=remaining,
                rng=generator,
            )
            adversarial.extend(campaign.adversarial_examples)
            used += campaign.total_queries
            seeds_attacked += len(campaign.per_seed)
            if campaign.total_queries == 0:
                break
        return DetectionResult(
            method=self.name,
            adversarial_examples=adversarial,
            test_cases_used=used,
            budget=budget,
            seeds_attacked=seeds_attacked,
        )


@dataclass
class AttackOnUniformSeeds(DetectionMethod):
    """State-of-the-art baseline: a strong attack from uniformly chosen seeds.

    The attack is OP-ignorant by construction: seeds are drawn uniformly from
    ``seed_pool`` (typically the balanced train/test data the developers
    already have) rather than from the operational dataset.  The profile and
    scorer are used only *post hoc* to annotate what the attack found, so the
    comparison can ask how operationally relevant those AEs are.

    Each round attacks only as many seeds as the remaining budget pays for at
    the attack's :attr:`~repro.attacks.Attack.max_queries_per_seed`, so the
    method never spends more than its budget; a budget below that bound
    cannot pay for one seed and raises :class:`ConfigurationError`.
    """

    attack: Attack = field(default_factory=lambda: PGD(epsilon=0.1, num_steps=10))
    profile: Optional[OperationalProfile] = None
    naturalness: Optional[NaturalnessScorer] = None
    seed_pool: Optional[Dataset] = None
    name: str = "pgd-uniform-seeds"

    def detect(
        self,
        model: Classifier,
        operational_data: Dataset,
        budget: int,
        rng: RngLike = None,
    ) -> DetectionResult:
        self._check_budget(budget)
        per_seed = self.attack.max_queries_per_seed
        if budget < per_seed:
            raise ConfigurationError(
                f"budget {budget} cannot pay for one seed: {self.attack.name} "
                f"may charge up to {per_seed} queries a seed"
            )
        generator = ensure_rng(rng)
        pool = self.seed_pool if self.seed_pool is not None else operational_data
        _, relative = _relative_to(self.profile, operational_data.x)

        adversarial: List[AdversarialExample] = []
        used = 0
        seeds_attacked = 0
        # start only the seeds the remaining budget can pay for in full
        while budget - used >= per_seed:
            num_seeds = min((budget - used) // per_seed, len(pool))
            selection = UniformSeedSampler().select(pool, model, num_seeds, rng=generator)
            result = self.attack.run(model, selection.x, selection.y, rng=generator)
            densities = relative(selection.x)
            hits = np.flatnonzero(result.success)
            # annotate every successful AE with one batched naturalness call
            hit_naturalness = (
                np.asarray(self.naturalness.score(result.adversarial_x[hits]), dtype=float)
                if self.naturalness is not None and len(hits) > 0
                else None
            )
            for position, i in enumerate(hits):
                perturbed = result.adversarial_x[i]
                adversarial.append(
                    AdversarialExample(
                        seed=selection.x[i].copy(),
                        perturbed=perturbed.copy(),
                        true_label=int(selection.y[i]),
                        predicted_label=int(result.predicted_labels[i]),
                        distance=float(np.max(np.abs(perturbed - selection.x[i]))),
                        naturalness=(
                            float(hit_naturalness[position])
                            if hit_naturalness is not None
                            else None
                        ),
                        op_density=float(densities[i]),
                        method=self.name,
                        queries=int(result.queries_per_seed[i]),
                    )
                )
            used += result.queries
            seeds_attacked += len(selection)
            if result.queries == 0:
                break
        return DetectionResult(
            method=self.name,
            adversarial_examples=adversarial,
            test_cases_used=used,
            budget=budget,
            seeds_attacked=seeds_attacked,
        )


@dataclass
class RandomFuzzBaseline(AttackOnUniformSeeds):
    """Unguided random fuzzing from uniform seeds (black-box baseline)."""

    attack: Attack = field(default_factory=lambda: RandomFuzz(epsilon=0.1, num_trials=20))
    name: str = "random-fuzz-uniform-seeds"


@dataclass
class OperationalTestingBaseline(DetectionMethod):
    """Pure operational testing: draw OP inputs, record natural failures.

    No perturbation search is performed — every test case is an input the
    model would actually receive.  Failures found this way are maximally
    operational but the method is known to be a very inefficient bug detector,
    which is the other side of the trade-off the paper wants to optimise.

    Model queries go through the ``policy`` funnel (default in-process policy
    when ``None``), so the budget actually spent is visible in ``QueryStats``
    and an already-built engine passes through unchanged.
    """

    profile: OperationalProfile
    naturalness: Optional[NaturalnessScorer] = None
    policy: Optional[ExecutionPolicy] = None
    name: str = "operational-testing"

    def detect(
        self,
        model: Classifier,
        operational_data: Dataset,
        budget: int,
        rng: RngLike = None,
    ) -> DetectionResult:
        self._check_budget(budget)
        generator = ensure_rng(rng)
        size = min(budget, len(operational_data))
        policy = self.policy if self.policy is not None else ExecutionPolicy()
        engine = policy.build_engine(model)
        selection = UniformSeedSampler().select(operational_data, engine, size, rng=generator)
        predictions = engine.predict(selection.x)
        densities = relative_density(
            self.profile.density(selection.x, log=True),
            self.profile.density(operational_data.x, log=True),
        )
        adversarial: List[AdversarialExample] = []
        failures = np.flatnonzero(predictions != selection.y)
        failure_naturalness = (
            np.asarray(self.naturalness.score(selection.x[failures]), dtype=float)
            if self.naturalness is not None and len(failures) > 0
            else None
        )
        for position, i in enumerate(failures):
            adversarial.append(
                AdversarialExample(
                    seed=selection.x[i].copy(),
                    perturbed=selection.x[i].copy(),
                    true_label=int(selection.y[i]),
                    predicted_label=int(predictions[i]),
                    distance=0.0,
                    naturalness=(
                        float(failure_naturalness[position])
                        if failure_naturalness is not None
                        else None
                    ),
                    op_density=float(densities[i]),
                    method=self.name,
                    queries=1,
                )
            )
        return DetectionResult(
            method=self.name,
            adversarial_examples=adversarial,
            test_cases_used=size,
            budget=budget,
            seeds_attacked=size,
        )


__all__ = [
    "DetectionMethod",
    "OperationalAEDetection",
    "AttackOnUniformSeeds",
    "RandomFuzzBaseline",
    "OperationalTestingBaseline",
]
