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
  seed's own naturalness (the "constraint on naturalness / local OP");
* the search is steered by a fitness that mixes the model loss with the
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
* ``FuzzerConfig.policy`` (an :class:`repro.runtime.ExecutionPolicy`) picks
  the *execution substrate*: the registered model backend (in-process
  ``"batched"`` or replicated multi-worker ``"sharded"``), batching,
  caching — including a durable cross-process cache via ``cache_dir`` — and
  the checkpoint cadence.  Campaign results are bit-identical across
  policies by construction.

Both control flows draw each seed's randomness from a private generator
spawned from the campaign RNG (the policy's ``rng_spawning`` rule), so a
seed sees the same proposal stream no matter which execution strategy runs
it or which other seeds are being fuzzed alongside.  Either way every model
query flows through a :class:`BatchedQueryEngine`, so query statistics (and
the optional memoizing cache) are always available via
``OperationalFuzzer.last_query_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from ..config import EPSILON, RngLike, ensure_rng
from ..engine.batching import BatchedQueryEngine, QueryStats
from ..engine.population import (
    PROPOSAL_CAP_FACTOR,
    PopulationFuzzEngine,
    SeedTask,
    fitness_from_probs,
    pick_operator,
)
from ..exceptions import FuzzingError
from ..naturalness.metrics import NaturalnessScorer
from ..runtime.policy import ExecutionPolicy, policy_or_default
from ..store.checkpoint import Checkpointer, campaign_fingerprint, read_checkpoint
from ..types import AdversarialExample, Classifier
from .mutations import MutationContext, MutationOperator, default_operators

#: Valid values of :attr:`FuzzerConfig.execution` — the *control flow* knob:
#: the batched lock-step default and the sequential reference loop.  The
#: execution backend lives on the :class:`~repro.runtime.ExecutionPolicy`.
EXECUTION_MODES = ("population", "sequential")

#: The fuzzer's default execution surface: in-process backend with the
#: memoizing query cache on (the fuzzer re-visits rows constantly, so the
#: cache is the historical default here — unlike the attacks/assessor).
DEFAULT_FUZZER_POLICY = ExecutionPolicy(cache=True)


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
        Mixing coefficients of the search fitness.  Setting
        ``naturalness_weight`` to 0 recovers purely loss-guided search.
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
        The campaign's :class:`~repro.runtime.ExecutionPolicy` (backend,
        workers, batching, caching, checkpoint cadence).  Defaults to
        :data:`DEFAULT_FUZZER_POLICY` (in-process, query cache on).
        Campaign results are bit-identical across policies.
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
            self.policy, DEFAULT_FUZZER_POLICY, "FuzzerConfig", FuzzingError
        )


@dataclass
class SeedFuzzResult:
    """Outcome of fuzzing a single seed."""

    seed_index: int
    adversarial_example: Optional[AdversarialExample]
    queries: int
    best_fitness: float
    candidates_rejected_by_naturalness: int


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
        """Check the campaign's query-accounting invariants.

        ``total_queries`` must equal the sum of the per-seed counts (it does
        by construction; re-derived here defensively) and must never exceed
        the global budget when one was given.
        """
        total = int(sum(r.queries for r in self.per_seed))
        if total != self.total_queries:
            raise FuzzingError(
                f"per-seed query accounting is inconsistent: {total} vs "
                f"{self.total_queries}"
            )
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
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[str] = None,
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
        checkpoint_path:
            Where to snapshot the campaign every
            ``config.policy.checkpoint_every`` rounds/seeds (atomic replace;
            see :mod:`repro.store.checkpoint`).  ``None`` disables snapshots.
        resume_from:
            Path of a checkpoint written by an earlier (interrupted) run of
            *this* campaign — same seeds, labels and control-flow config,
            verified by fingerprint.  The campaign resumes from the snapshot
            and produces detections, per-seed query counts and fitness
            trajectories bit-identical to an uninterrupted run.  Population
            and sharded execution share one checkpoint format, so a campaign
            may resume under either backend.
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
        generator = ensure_rng(rng)
        cfg = self.config
        kind = "sequential" if cfg.execution == "sequential" else "population"
        # fingerprint everything that shapes the campaign's control flow:
        # the inputs (seeds, labels, densities, the natural pool feeding the
        # interpolation neighbours) and every config knob that changes what
        # the campaign *does* — execution backend, batching and caching are
        # deliberately excluded because they never change logical results
        fingerprint_arrays = [seeds, labels]
        if op_densities is not None:
            fingerprint_arrays.append(op_densities)
        if self._pool is not None:
            fingerprint_arrays.append(self._pool)
        fingerprint = campaign_fingerprint(
            *fingerprint_arrays,
            extra=(
                f"{kind}:{cfg.epsilon}:{cfg.queries_per_seed}:"
                f"{cfg.naturalness_threshold}:{cfg.loss_weight}:"
                f"{cfg.naturalness_weight}:{cfg.use_gradient}:"
                f"{cfg.gradient_probability}:{cfg.neighbour_count}:"
                f"{cfg.min_energy}:{cfg.max_energy}:{cfg.stall_limit}:"
                f"{budget}:densities={op_densities is not None}:"
                f"pool={self._pool is not None}"
            ),
        )
        resume_state: Optional[dict] = None
        if resume_from is not None:
            resume_state = read_checkpoint(resume_from)
            if resume_state.get("fingerprint") != fingerprint:
                raise FuzzingError(
                    f"checkpoint {resume_from} belongs to a different campaign "
                    "(seeds, labels or control-flow config differ)"
                )
        checkpointer = None
        if checkpoint_path is not None and cfg.policy.checkpoint_every > 0:
            checkpointer = Checkpointer(
                checkpoint_path,
                every=cfg.policy.checkpoint_every,
                meta={"fingerprint": fingerprint, "kind": kind},
            )
        energies = self._seed_energies(op_densities, len(seeds))
        # on resume the snapshot carries every live RNG; do not consume the
        # campaign generator so direct runs and resumed runs stay aligned
        rngs = (
            cfg.policy.spawn_rngs(generator, len(seeds))
            if resume_state is None
            else []
        )
        nominal_budgets = [
            max(1, int(round(cfg.queries_per_seed * energies[i])))
            for i in range(len(seeds))
        ]
        with cfg.policy.session(model, naturalness=self.naturalness) as engine:
            self.last_query_stats = engine.stats
            if resume_state is not None:
                # continue the interrupted campaign's accounting: counters
                # restart from the snapshot, exactly as if never interrupted
                engine.stats.merge(resume_state["stats"])
            if cfg.execution == "sequential":
                result = self._fuzz_sequential(
                    engine,
                    seeds,
                    labels,
                    op_densities,
                    budget,
                    nominal_budgets,
                    rngs,
                    checkpointer=checkpointer,
                    resume_state=resume_state,
                )
            else:
                # every backend (in-process or sharded) runs the same
                # lock-step control flow; only the physical execution differs
                result = self._fuzz_population(
                    engine,
                    seeds,
                    labels,
                    op_densities,
                    budget,
                    nominal_budgets,
                    rngs,
                    checkpointer=checkpointer,
                    resume_state=resume_state,
                )
        result.validate_budget(budget)
        return result

    # ------------------------------------------------------------------ #
    # population (batched) execution
    # ------------------------------------------------------------------ #
    def _fuzz_population(
        self,
        engine: BatchedQueryEngine,
        seeds: np.ndarray,
        labels: np.ndarray,
        op_densities: Optional[np.ndarray],
        budget: Optional[int],
        nominal_budgets: List[int],
        rngs: List[np.random.Generator],
        checkpointer=None,
        resume_state: Optional[dict] = None,
    ) -> FuzzCampaignResult:
        if resume_state is None:
            neighbours = self._natural_neighbours_batch(seeds)
            tasks = [
                SeedTask(
                    index=i,
                    seed=seeds[i],
                    label=int(labels[i]),
                    budget=nominal_budgets[i],
                    density=float(op_densities[i]) if op_densities is not None else None,
                    neighbours=neighbours[i],
                    rng=rngs[i],
                )
                for i in range(len(seeds))
            ]
        else:
            tasks = []  # the snapshot carries every task's live state
        population = PopulationFuzzEngine(engine, self.config, self.operators)
        outcomes = population.run(
            tasks, budget=budget, checkpointer=checkpointer, resume_state=resume_state
        )
        return FuzzCampaignResult(
            per_seed=[
                SeedFuzzResult(
                    seed_index=o.index,
                    adversarial_example=o.adversarial_example,
                    queries=o.queries,
                    best_fitness=o.best_fitness,
                    candidates_rejected_by_naturalness=o.rejected,
                )
                for o in outcomes
            ]
        )

    # ------------------------------------------------------------------ #
    # sequential (reference) execution
    # ------------------------------------------------------------------ #
    def _fuzz_sequential(
        self,
        engine: BatchedQueryEngine,
        seeds: np.ndarray,
        labels: np.ndarray,
        op_densities: Optional[np.ndarray],
        budget: Optional[int],
        nominal_budgets: List[int],
        rngs: List[np.random.Generator],
        checkpointer=None,
        resume_state: Optional[dict] = None,
    ) -> FuzzCampaignResult:
        result = FuzzCampaignResult()
        start = 0
        queries_remaining = budget if budget is not None else np.inf
        if resume_state is not None:
            start = int(resume_state["next_index"])
            result.per_seed = list(resume_state["per_seed"])
            queries_remaining = resume_state["queries_remaining"]
            rngs = list(resume_state["rngs"])
        for index in range(start, len(seeds)):
            if checkpointer is not None:
                checkpointer.save_if_due(
                    index,
                    lambda: {
                        "next_index": index,
                        "per_seed": result.per_seed,
                        "queries_remaining": queries_remaining,
                        "rngs": rngs,
                        "stats": engine.stats,
                    },
                )
            if queries_remaining <= 0:
                break
            seed, label = seeds[index], labels[index]
            seed_budget = nominal_budgets[index]
            if np.isfinite(queries_remaining):
                seed_budget = min(seed_budget, int(queries_remaining))
            seed_budget = max(1, seed_budget)
            density = float(op_densities[index]) if op_densities is not None else None
            seed_result = self._fuzz_one(
                engine, seed, int(label), index, seed_budget, density, rngs[index]
            )
            queries_remaining -= seed_result.queries
            result.per_seed.append(seed_result)
        return result

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

    def _natural_neighbours(self, seed: np.ndarray) -> Optional[np.ndarray]:
        if self._pool_tree is None or self.config.neighbour_count == 0:
            return None
        k = min(self.config.neighbour_count, len(self._pool))
        _, indices = self._pool_tree.query(seed, k=k)
        indices = np.atleast_1d(indices)
        return self._pool[indices]

    def _natural_neighbours_batch(
        self, seeds: np.ndarray
    ) -> List[Optional[np.ndarray]]:
        """Natural neighbours of every seed from one vectorised KD-tree query."""
        if self._pool_tree is None or self.config.neighbour_count == 0:
            return [None] * len(seeds)
        k = min(self.config.neighbour_count, len(self._pool))
        _, indices = self._pool_tree.query(seeds, k=k)
        # cKDTree squeezes the k axis when k == 1; restore (n, k)
        indices = np.asarray(indices).reshape(len(seeds), -1)
        return [self._pool[row] for row in indices]

    def _fuzz_one(
        self,
        engine: BatchedQueryEngine,
        seed: np.ndarray,
        label: int,
        seed_index: int,
        seed_budget: int,
        op_density: Optional[float],
        generator: np.random.Generator,
    ) -> SeedFuzzResult:
        cfg = self.config
        seed_naturalness = float(engine.score_naturalness(seed[None, :])[0])
        naturalness_floor = cfg.naturalness_threshold * seed_naturalness
        neighbours = self._natural_neighbours(seed)

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
                naturalness=seed_naturalness,
                op_density=op_density,
                method="operational-fuzzer",
                queries=queries,
            )
            return SeedFuzzResult(seed_index, found, queries, 0.0, 0)

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
            candidate_naturalness = float(engine.score_naturalness(candidate[None, :])[0])
            if cfg.naturalness_threshold > 0 and candidate_naturalness < naturalness_floor:
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
                    naturalness=candidate_naturalness,
                    op_density=op_density,
                    method="operational-fuzzer",
                    queries=queries,
                )
                break

            fitness = fitness_from_probs(
                probs, label, candidate_naturalness, cfg.loss_weight, cfg.naturalness_weight
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
    "DEFAULT_FUZZER_POLICY",
    "FuzzerConfig",
    "OperationalFuzzer",
    "FuzzCampaignResult",
    "SeedFuzzResult",
]
