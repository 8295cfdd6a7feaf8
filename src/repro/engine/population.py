"""Lock-step population fuzzing: one batched model call serves every seed.

The sequential fuzzer walks seeds one at a time and pays a full model
round-trip per candidate.  This module inverts that control flow: every live
seed proposes a mutation each *round*, the proposals are concatenated into
one matrix, and a single batched naturalness call plus a single batched
``predict_proba`` call service the whole population.  Per-seed semantics are
preserved exactly:

* each seed owns a private random stream, so its proposal sequence does not
  depend on which other seeds are alive in the same round;
* per-seed query accounting (the initial seed check, one query per directed
  proposal, one query per evaluated candidate), the stall limit, the
  proposal cap and the naturalness floor all match the sequential loop;
* under a global budget, seeds are *admitted* greedily in order with a
  reservation of their nominal budget, and budget a seed leaves unspent is
  refunded so waitlisted seeds can be admitted — mirroring the sequential
  policy of handing leftover budget to later seeds.  The campaign total can
  therefore never exceed the budget.

The module is deliberately ignorant of :class:`repro.fuzzing.fuzzer`
dataclasses (the fuzzer depends on this module, not vice versa); results
come back as plain :class:`MemberOutcome` records the fuzzer re-wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EPSILON
from ..types import AdversarialExample
from .batching import BatchedQueryEngine

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..fuzzing.mutations import MutationOperator

#: Proposal cap multiplier: rejected proposals cost no queries; bound them
#: anyway (same constant as the sequential loop).
PROPOSAL_CAP_FACTOR = 5


def pick_operator(
    directed: Sequence["MutationOperator"],
    undirected: Sequence["MutationOperator"],
    all_operators: Sequence["MutationOperator"],
    gradient_probability: float,
    rng: np.random.Generator,
) -> "MutationOperator":
    """Pick a mutation operator, biasing towards the directed (gradient) ones."""
    if directed and (not undirected or rng.random() < gradient_probability):
        return directed[rng.integers(len(directed))]
    if undirected:
        return undirected[rng.integers(len(undirected))]
    return all_operators[rng.integers(len(all_operators))]


def fitness_from_probs(
    probs: np.ndarray,
    label: int,
    naturalness: float,
    loss_weight: float,
    naturalness_weight: float,
) -> float:
    """Search fitness mixing model loss with (log) naturalness."""
    loss = -np.log(max(float(probs[label]), EPSILON))
    return loss_weight * loss + naturalness_weight * float(
        np.log(max(naturalness, EPSILON))
    )


@dataclass
class SeedTask:
    """One population member: immutable inputs plus mutable search state."""

    index: int
    seed: np.ndarray
    label: int
    budget: int
    density: Optional[float]
    neighbours: Optional[np.ndarray]
    rng: np.random.Generator
    # --- runtime state, owned by the population engine ------------------- #
    current: Optional[np.ndarray] = None
    seed_naturalness: float = 0.0
    floor: float = 0.0
    queries: int = 0
    proposals: int = 0
    stalled: int = 0
    rejected: int = 0
    best_fitness: float = -np.inf
    found: Optional[AdversarialExample] = None


@dataclass
class MemberOutcome:
    """Outcome of one population member, in fuzzer-agnostic form."""

    index: int
    adversarial_example: Optional[AdversarialExample]
    queries: int
    best_fitness: float
    rejected: int


class PopulationFuzzEngine:
    """Runs the lock-step rounds over a population of seed tasks.

    Parameters
    ----------
    engine:
        Batched query engine wrapping the model under test and the
        naturalness scorer.
    config:
        Any object exposing the fuzzer hyper-parameters (``epsilon``,
        ``naturalness_threshold``, ``loss_weight``, ``naturalness_weight``,
        ``gradient_probability``, ``stall_limit``) — in practice a
        :class:`repro.fuzzing.fuzzer.FuzzerConfig`.
    operators:
        Mutation operator mix.
    """

    def __init__(
        self,
        engine: BatchedQueryEngine,
        config,
        operators: Sequence["MutationOperator"],
    ) -> None:
        self.engine = engine
        self.config = config
        self.operators: List["MutationOperator"] = list(operators)
        self.directed = [op for op in self.operators if op.queries_model]
        self.undirected = [op for op in self.operators if not op.queries_model]
        self._reserve_left: float = np.inf

    # ------------------------------------------------------------------ #
    # campaign driver
    # ------------------------------------------------------------------ #
    def run(
        self, tasks: Sequence[SeedTask], budget: Optional[int] = None
    ) -> List[MemberOutcome]:
        """Fuzz every admissible task and return outcomes in seed order.

        Tasks that cannot be admitted before the global budget is exhausted
        are not started at all and yield no outcome — exactly like the
        sequential loop breaking out of its seed iteration.
        """
        self._reserve_left = np.inf if budget is None else float(int(budget))
        waitlist = list(tasks)
        active: List[SeedTask] = []
        outcomes: List[MemberOutcome] = []
        while True:
            if waitlist and self._reserve_left > 0:
                admitted = self._admit(waitlist)
                if admitted:
                    self._initialise(admitted, active, outcomes)
            if not active:
                if waitlist and self._reserve_left > 0:
                    # a whole admission wave retired during initialisation
                    # (natural failures) and refunded budget: admit more
                    continue
                break
            self._round(active, outcomes)

        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    # ------------------------------------------------------------------ #
    # admission / retirement
    # ------------------------------------------------------------------ #
    def _admit(self, waitlist: List[SeedTask]) -> List[SeedTask]:
        """Reserve budget for as many waitlisted tasks as currently fits."""
        admitted: List[SeedTask] = []
        while waitlist and self._reserve_left > 0:
            task = waitlist.pop(0)
            if np.isfinite(self._reserve_left):
                task.budget = max(1, min(task.budget, int(self._reserve_left)))
            self._reserve_left -= task.budget
            admitted.append(task)
        return admitted

    def _finish(
        self, task: SeedTask, active: List[SeedTask], outcomes: List[MemberOutcome]
    ) -> None:
        """Retire a task, refunding whatever it reserved but did not spend."""
        self._reserve_left += task.budget - task.queries
        if task in active:
            active.remove(task)
        outcomes.append(
            MemberOutcome(
                index=task.index,
                adversarial_example=task.found,
                queries=task.queries,
                best_fitness=(
                    float(task.best_fitness) if np.isfinite(task.best_fitness) else 0.0
                ),
                rejected=task.rejected,
            )
        )

    def _initialise(
        self,
        admitted: List[SeedTask],
        active: List[SeedTask],
        outcomes: List[MemberOutcome],
    ) -> None:
        """Score and classify the raw seeds of newly admitted tasks (batched)."""
        seeds = np.stack([task.seed for task in admitted])
        naturalness = self.engine.score_naturalness(seeds)
        predictions = self.engine.predict(seeds)
        for task, seed_nat, prediction in zip(admitted, naturalness, predictions):
            task.seed_naturalness = float(seed_nat)
            task.floor = self.config.naturalness_threshold * task.seed_naturalness
            task.current = task.seed.copy()
            task.queries = 1
            if int(prediction) != task.label:
                # a "natural failure": the seed itself is already misclassified
                task.found = AdversarialExample(
                    seed=task.seed.copy(),
                    perturbed=task.seed.copy(),
                    true_label=task.label,
                    predicted_label=int(prediction),
                    distance=0.0,
                    naturalness=task.seed_naturalness,
                    op_density=task.density,
                    method="operational-fuzzer",
                    queries=task.queries,
                )
                task.best_fitness = 0.0
                self._finish(task, active, outcomes)
            else:
                active.append(task)

    # ------------------------------------------------------------------ #
    # one lock-step round
    # ------------------------------------------------------------------ #
    def _round(self, active: List[SeedTask], outcomes: List[MemberOutcome]) -> None:
        cfg = self.config

        # retire tasks that exhausted budget, proposals or patience
        for task in list(active):
            if (
                task.queries >= task.budget
                or task.proposals >= PROPOSAL_CAP_FACTOR * task.budget
                or (cfg.stall_limit and task.stalled >= cfg.stall_limit)
            ):
                self._finish(task, active, outcomes)
        if not active:
            return

        from ..fuzzing.mutations import BatchMutationContext

        # every live member proposes; proposals are grouped per operator so
        # directed operators can issue one physical gradient call per round
        groups: Dict[int, Tuple["MutationOperator", List[SeedTask]]] = {}
        for task in active:
            task.proposals += 1
            operator = pick_operator(
                self.directed,
                self.undirected,
                self.operators,
                cfg.gradient_probability,
                task.rng,
            )
            groups.setdefault(id(operator), (operator, []))[1].append(task)

        candidate_tasks: List[SeedTask] = []
        candidate_rows: List[np.ndarray] = []
        for operator, members in groups.values():
            context = BatchMutationContext(
                seeds=np.stack([task.seed for task in members]),
                currents=np.stack([task.current for task in members]),
                labels=np.array([task.label for task in members], dtype=int),
                epsilon=cfg.epsilon,
                model=self.engine,
                natural_neighbours=[task.neighbours for task in members],
                rngs=[task.rng for task in members],
            )
            proposals = operator.propose_batch(context)
            for task, row in zip(members, proposals):
                if operator.queries_model:
                    task.queries += 1
                    if task.queries >= task.budget:
                        # the directed proposal consumed the last query; the
                        # candidate is discarded, as in the sequential loop
                        self._finish(task, active, outcomes)
                        continue
                candidate_tasks.append(task)
                candidate_rows.append(row)
        if not candidate_tasks:
            return

        # one batched naturalness call gates every proposal of the round
        candidates = np.stack(candidate_rows)
        candidate_naturalness = self.engine.score_naturalness(candidates)
        surviving: List[Tuple[SeedTask, np.ndarray, float]] = []
        for task, row, naturalness in zip(
            candidate_tasks, candidates, candidate_naturalness
        ):
            if cfg.naturalness_threshold > 0 and naturalness < task.floor:
                task.rejected += 1
                task.stalled += 1
            else:
                surviving.append((task, row, float(naturalness)))
        if not surviving:
            return

        # one batched forward pass yields every verdict and fitness at once
        probs = self.engine.predict_proba(np.stack([row for _, row, _ in surviving]))
        predictions = probs.argmax(axis=1)
        for (task, row, naturalness), probs_row, prediction in zip(
            surviving, probs, predictions
        ):
            task.queries += 1
            if int(prediction) != task.label:
                distance = float(np.max(np.abs(row - task.seed)))
                task.found = AdversarialExample(
                    seed=task.seed.copy(),
                    perturbed=row,
                    true_label=task.label,
                    predicted_label=int(prediction),
                    distance=distance,
                    naturalness=naturalness,
                    op_density=task.density,
                    method="operational-fuzzer",
                    queries=task.queries,
                )
                self._finish(task, active, outcomes)
                continue
            fitness = fitness_from_probs(
                probs_row,
                task.label,
                naturalness,
                cfg.loss_weight,
                cfg.naturalness_weight,
            )
            if fitness > task.best_fitness:
                task.best_fitness = fitness
                task.current = row
                task.stalled = 0
            else:
                task.stalled += 1


__all__ = [
    "PROPOSAL_CAP_FACTOR",
    "pick_operator",
    "fitness_from_probs",
    "SeedTask",
    "MemberOutcome",
    "PopulationFuzzEngine",
]
