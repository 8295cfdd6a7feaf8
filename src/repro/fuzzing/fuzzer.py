"""Naturalness-guided fuzzing around operational seeds (RQ3).

The fuzzer searches the cell (an L∞ ball) around each seed for *operational
adversarial examples*: inputs the model misclassifies **and** that remain
natural enough to plausibly occur in operation.  Existing attacks (PGD et al.)
optimise only the loss and routinely leave the data manifold; unguided fuzzing
stays natural but wastes the budget.  The operational fuzzer combines the two
signals:

* candidates are proposed by a mix of naturalness-preserving mutations and
  directed gradient steps (:mod:`repro.fuzzing.mutations`);
* a candidate is *accepted* as an operational AE only if it is misclassified
  and its naturalness score stays above ``naturalness_threshold`` times the
  seed's own naturalness (the "constraint on naturalness / local OP"),
  compared in log space so it holds where linear scores underflow;
* the search is steered by a fitness that mixes the model loss with the log
  naturalness score, so the fuzzer climbs towards the decision boundary while
  staying on the data manifold;
* the per-seed energy (query budget) is allocated proportionally to the
  seed's operational density, so high-OP cells get searched harder.

Execution model
---------------
Control flow and execution substrate are separate axes:

* ``FuzzerConfig.execution`` picks the *control flow* — ``"population"``
  (default; lock-step population fuzzing via
  :class:`repro.engine.PopulationFuzzEngine`: all live seeds propose each
  round and one batched naturalness call plus one batched ``predict_proba``
  call service the whole population) or ``"sequential"`` (the reference
  one-seed-at-a-time loop, kept for equivalence testing and as the ground
  truth for the per-seed semantics).
* ``FuzzerConfig.policy`` (an :class:`repro.runtime.ExecutionPolicy`) sets
  what execution costs: batching and the engine's in-memory cache.  It
  never changes which queries a campaign makes.

Both control flows give each seed a private generator seeded from one draw
of the campaign RNG (:func:`repro.config.spawn_seeds`, the draw
:func:`repro.config.spawn_rngs` makes), so a seed sees the same proposal
stream no matter which execution strategy runs it or which other seeds are
being fuzzed alongside.  A seed's generator is built only once the seed
passes its initial check: a natural failure, or a seed never reached under
a spent budget, needs none.  Either way every model query flows through a
:class:`BatchedQueryEngine`, whose query statistics are available via
``OperationalFuzzer.last_query_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from ..config import (
    EPSILON,
    RngLike,
    require_bool,
    require_finite,
    require_int,
    spawn_seeds,
)
from ..engine.batching import BatchedQueryEngine, QueryStats
from ..engine.population import (
    PROPOSAL_CAP_FACTOR,
    PopulationFuzzEngine,
    SeedBatch,
    SeedFuzzResult,
    fitness_from_probs,
    pick_operator,
)
from ..exceptions import FuzzingError
from ..naturalness.metrics import NaturalnessScorer
from ..runtime.policy import ExecutionPolicy, policy_or_default
from ..types import AdversarialExample, Classifier
from .mutations import MutationContext, MutationOperator, default_operators

#: Valid values of :attr:`FuzzerConfig.execution` — the *control flow* knob:
#: the batched lock-step default and the sequential reference loop.
EXECUTION_MODES = ("population", "sequential")


@dataclass
class FuzzerConfig:
    """Hyper-parameters of the operational fuzzer.

    Attributes
    ----------
    epsilon:
        L∞ radius of the cell searched around each seed.
    queries_per_seed:
        Baseline number of model queries spent on each seed (scaled by the
        seed energy when OP densities are supplied).
    naturalness_threshold:
        Minimum acceptable naturalness of an AE, as a fraction of the seed's
        own naturalness score.  Set to 0 to disable the constraint (ablation).
    loss_weight, naturalness_weight:
        Mixing coefficients of the search fitness, of the model loss and the
        log naturalness.  Setting ``naturalness_weight`` to 0 recovers
        purely loss-guided search.
    use_gradient:
        Include the directed gradient mutation operator.
    gradient_probability:
        Probability of picking the gradient operator at each mutation step
        (the remaining probability is split uniformly over the undirected
        operators).  Ignored when ``use_gradient`` is false.
    neighbour_count:
        Natural neighbours (from the calibration pool) made available to the
        interpolation mutation for each seed.
    min_energy, max_energy:
        Bounds of the per-seed energy multiplier derived from OP density.
    stall_limit:
        Abandon a seed after this many consecutive evaluated candidates without
        a fitness improvement (0 disables early abandonment).  Spending the
        full per-seed budget on seeds whose whole natural neighbourhood is
        robust is exactly the waste the paper wants to avoid.
    execution:
        Control flow: ``"population"`` (batched lock-step fuzzing, the fast
        default) or ``"sequential"`` (the reference per-seed loop).
    policy:
        The campaign's :class:`~repro.runtime.ExecutionPolicy` (batching,
        caching).  Defaults to ``ExecutionPolicy()`` (no query cache), like
        every other subsystem.

    The three counts (``queries_per_seed``, ``neighbour_count``,
    ``stall_limit``) must be Python ``int`` (not ``bool``), the seven
    real-valued fields finite numbers, and ``use_gradient`` a ``bool``.
    """

    epsilon: float = 0.1
    queries_per_seed: int = 20
    naturalness_threshold: float = 0.5
    loss_weight: float = 1.0
    naturalness_weight: float = 0.5
    use_gradient: bool = True
    gradient_probability: float = 0.5
    neighbour_count: int = 5
    min_energy: float = 0.5
    max_energy: float = 2.0
    stall_limit: int = 8
    execution: str = "population"
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self) -> None:
        for name in ("queries_per_seed", "neighbour_count", "stall_limit"):
            require_int(name, getattr(self, name), FuzzingError)
        require_bool("use_gradient", self.use_gradient, FuzzingError)
        for name in (
            "epsilon",
            "naturalness_threshold",
            "loss_weight",
            "naturalness_weight",
            "gradient_probability",
            "min_energy",
            "max_energy",
        ):
            require_finite(name, getattr(self, name), FuzzingError)
        if self.epsilon <= 0:
            raise FuzzingError("epsilon must be positive")
        if self.queries_per_seed <= 0:
            raise FuzzingError("queries_per_seed must be positive")
        if self.naturalness_threshold < 0:
            raise FuzzingError("naturalness_threshold must be non-negative")
        if self.loss_weight < 0 or self.naturalness_weight < 0:
            raise FuzzingError("fitness weights must be non-negative")
        if self.loss_weight == 0 and self.naturalness_weight == 0:
            raise FuzzingError("at least one fitness weight must be positive")
        if not 0.0 <= self.gradient_probability <= 1.0:
            raise FuzzingError("gradient_probability must be in [0, 1]")
        if self.stall_limit < 0:
            raise FuzzingError("stall_limit must be non-negative")
        if self.neighbour_count < 0:
            raise FuzzingError("neighbour_count must be non-negative")
        if not 0 < self.min_energy <= self.max_energy:
            raise FuzzingError("need 0 < min_energy <= max_energy")
        if self.execution not in EXECUTION_MODES:
            raise FuzzingError(
                f"execution must be one of {EXECUTION_MODES}, got {self.execution!r}"
            )
        self.policy = policy_or_default(
            self.policy, ExecutionPolicy(), "FuzzerConfig", FuzzingError
        )


@dataclass
class FuzzCampaignResult:
    """Aggregate outcome of fuzzing a batch of seeds."""

    per_seed: List[SeedFuzzResult] = field(default_factory=list)

    @property
    def adversarial_examples(self) -> List[AdversarialExample]:
        return [r.adversarial_example for r in self.per_seed if r.adversarial_example]

    @property
    def total_queries(self) -> int:
        return int(sum(r.queries for r in self.per_seed))

    @property
    def detection_rate(self) -> float:
        if not self.per_seed:
            return 0.0
        return len(self.adversarial_examples) / len(self.per_seed)

    def validate_budget(self, budget: Optional[int]) -> None:
        """Raise :class:`FuzzingError` if the campaign spent more than ``budget``."""
        total = self.total_queries
        if budget is not None and total > budget:
            raise FuzzingError(
                f"campaign spent {total} queries, exceeding the budget of {budget}"
            )


class OperationalFuzzer:
    """Naturalness-guided fuzzer detecting operational adversarial examples.

    Parameters
    ----------
    naturalness:
        Fitted naturalness scorer approximating the local OP.
    config:
        Fuzzer hyper-parameters.
    operators:
        Mutation operators; defaults to the standard mix (noise, sparse,
        interpolation and — if enabled — gradient).
    natural_pool:
        Pool of natural inputs used to find each seed's natural neighbours for
        the interpolation operator.
    """

    def __init__(
        self,
        naturalness: NaturalnessScorer,
        config: Optional[FuzzerConfig] = None,
        operators: Optional[Sequence[MutationOperator]] = None,
        natural_pool: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config if config is not None else FuzzerConfig()
        self.naturalness = naturalness
        if operators is None:
            operators = default_operators(use_gradient=self.config.use_gradient)
        if not operators:
            raise FuzzingError("OperationalFuzzer requires at least one mutation operator")
        self.operators: List[MutationOperator] = list(operators)
        self._pool = (
            np.atleast_2d(np.asarray(natural_pool, dtype=float))
            if natural_pool is not None
            else None
        )
        self._pool_tree = cKDTree(self._pool) if self._pool is not None else None
        #: Query statistics of the most recent campaign (one engine per call).
        self.last_query_stats: Optional[QueryStats] = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def fuzz(
        self,
        model: Classifier,
        seeds: np.ndarray,
        labels: np.ndarray,
        op_densities: Optional[np.ndarray] = None,
        budget: Optional[int] = None,
        rng: RngLike = None,
    ) -> FuzzCampaignResult:
        """Fuzz a batch of seeds and return every operational AE found.

        Parameters
        ----------
        model:
            Model under test (or a pre-built :class:`BatchedQueryEngine`
            wrapping one, whose counters and cache are then shared).
        seeds, labels:
            Operational seeds and their true labels.
        op_densities:
            Operational density of each seed; used both to scale the per-seed
            energy and to annotate detected AEs.  ``None`` means uniform.
        budget:
            Optional hard cap on total model queries across the whole batch;
            fuzzing stops once it is exhausted.
        rng:
            Seed or generator.
        """
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        labels = np.atleast_1d(np.asarray(labels, dtype=int))
        if len(seeds) != len(labels):
            raise FuzzingError("seeds and labels must align")
        if len(seeds) == 0:
            raise FuzzingError("cannot fuzz an empty seed batch")
        if op_densities is not None:
            op_densities = np.asarray(op_densities, dtype=float)
            if op_densities.shape != (len(seeds),):
                raise FuzzingError("op_densities must have one entry per seed")
        cfg = self.config
        energies = self._seed_energies(op_densities, len(seeds))
        batch = SeedBatch(
            seeds=seeds,
            labels=labels,
            # np.rint rounds half to even, like round()
            budgets=np.maximum(1, np.rint(cfg.queries_per_seed * energies)).astype(int),
            rng_seeds=spawn_seeds(rng, len(seeds)),
            densities=op_densities,
            neighbours=self._natural_neighbours_batch(seeds),
        )
        engine = cfg.policy.build_engine(model, naturalness=self.naturalness)
        self.last_query_stats = engine.stats
        if cfg.execution == "sequential":
            per_seed = self._fuzz_sequential(engine, batch, budget)
        else:
            population = PopulationFuzzEngine(engine, cfg, self.operators)
            per_seed = population.run(batch, budget=budget)
        result = FuzzCampaignResult(per_seed=per_seed)
        result.validate_budget(budget)
        return result

    # ------------------------------------------------------------------ #
    # sequential (reference) execution
    # ------------------------------------------------------------------ #
    def _fuzz_sequential(
        self, engine: BatchedQueryEngine, batch: SeedBatch, budget: Optional[int]
    ) -> List[SeedFuzzResult]:
        per_seed: List[SeedFuzzResult] = []
        queries_remaining = budget if budget is not None else np.inf
        for index in range(len(batch)):
            if queries_remaining <= 0:
                break
            seed_budget = int(batch.budgets[index])
            if np.isfinite(queries_remaining):
                seed_budget = min(seed_budget, int(queries_remaining))
            seed_result = self._fuzz_one(engine, batch, index, max(1, seed_budget))
            queries_remaining -= seed_result.queries
            per_seed.append(seed_result)
        return per_seed

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _seed_energies(
        self, op_densities: Optional[np.ndarray], count: int
    ) -> np.ndarray:
        if op_densities is None:
            return np.ones(count)
        mean_density = max(float(np.mean(op_densities)), EPSILON)
        energies = op_densities / mean_density
        return np.clip(energies, self.config.min_energy, self.config.max_energy)

    def _natural_neighbours_batch(self, seeds: np.ndarray) -> Optional[np.ndarray]:
        """The ``(n, k, d)`` natural neighbours of every seed, from one
        vectorised KD-tree query."""
        if self._pool_tree is None or self.config.neighbour_count == 0:
            return None
        k = min(self.config.neighbour_count, len(self._pool))
        _, indices = self._pool_tree.query(seeds, k=k)
        # cKDTree squeezes the k axis when k == 1; restore (n, k)
        return self._pool[np.asarray(indices).reshape(len(seeds), k)]

    def _fuzz_one(
        self, engine: BatchedQueryEngine, batch: SeedBatch, seed_index: int, seed_budget: int
    ) -> SeedFuzzResult:
        cfg = self.config
        seed = batch.seeds[seed_index]
        label = int(batch.labels[seed_index])
        op_density = float(batch.densities[seed_index]) if batch.densities is not None else None
        neighbours = batch.neighbours[seed_index] if batch.neighbours is not None else None
        seed_log_naturalness = engine.score_naturalness(seed[None, :])[0]
        with np.errstate(divide="ignore"):  # threshold 0: log 0 = -inf, no floor
            log_floor = np.log(cfg.naturalness_threshold) + seed_log_naturalness

        queries = 0
        rejected = 0
        current = seed.copy()
        best_fitness = -np.inf
        found: Optional[AdversarialExample] = None

        # the seed itself may already be misclassified (a "natural failure")
        prediction = int(engine.predict(seed[None, :])[0])
        queries += 1
        if prediction != label:
            found = AdversarialExample(
                seed=seed.copy(),
                perturbed=seed.copy(),
                true_label=label,
                predicted_label=prediction,
                distance=0.0,
                naturalness=float(np.exp(seed_log_naturalness)),
                op_density=op_density,
                method="operational-fuzzer",
                queries=queries,
            )
            return SeedFuzzResult(seed_index, found, queries, 0.0, 0)

        generator = np.random.default_rng(int(batch.rng_seeds[seed_index]))
        directed = [op for op in self.operators if op.queries_model]
        undirected = [op for op in self.operators if not op.queries_model]
        stalled = 0
        proposals = 0
        max_proposals = PROPOSAL_CAP_FACTOR * seed_budget
        while queries < seed_budget and proposals < max_proposals:
            if cfg.stall_limit and stalled >= cfg.stall_limit:
                break
            proposals += 1
            operator = pick_operator(
                directed, undirected, self.operators, cfg.gradient_probability, generator
            )
            context = MutationContext(
                seed=seed,
                current=current,
                label=label,
                epsilon=cfg.epsilon,
                model=engine,
                natural_neighbours=neighbours,
                rng=generator,
            )
            candidate = operator.propose(context)
            if operator.queries_model:
                queries += 1
                if queries >= seed_budget:
                    break
            candidate_log_naturalness = engine.score_naturalness(candidate[None, :])[0]
            if candidate_log_naturalness < log_floor:
                rejected += 1
                stalled += 1
                continue

            # a single forward pass yields both the verdict and the fitness
            probs = engine.predict_proba(candidate[None, :])[0]
            prediction = int(np.argmax(probs))
            queries += 1
            if prediction != label:
                distance = float(np.max(np.abs(candidate - seed)))
                found = AdversarialExample(
                    seed=seed.copy(),
                    perturbed=candidate,
                    true_label=label,
                    predicted_label=prediction,
                    distance=distance,
                    naturalness=float(np.exp(candidate_log_naturalness)),
                    op_density=op_density,
                    method="operational-fuzzer",
                    queries=queries,
                )
                break

            fitness = fitness_from_probs(
                probs[label], candidate_log_naturalness, cfg.loss_weight, cfg.naturalness_weight
            )
            if fitness > best_fitness:
                best_fitness = fitness
                current = candidate
                stalled = 0
            else:
                stalled += 1

        return SeedFuzzResult(
            seed_index=seed_index,
            adversarial_example=found,
            queries=queries,
            best_fitness=float(best_fitness) if np.isfinite(best_fitness) else 0.0,
            candidates_rejected_by_naturalness=rejected,
        )


__all__ = [
    "EXECUTION_MODES",
    "FuzzerConfig",
    "OperationalFuzzer",
    "FuzzCampaignResult",
    "SeedFuzzResult",
]
