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

The population is held as columns, one entry per seed: the search state is
a handful of arrays, retirement clears a mask, and each round's fitness is
one array expression.  Only the random draws stay per member, each from the
member's own generator, which is built when the member passes its seed
check.

The module is deliberately ignorant of :class:`repro.fuzzing.fuzzer`
(the fuzzer depends on this module, not vice versa); it returns one
:class:`SeedFuzzResult` per admitted seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EPSILON
from ..types import AdversarialExample
from .batching import BatchedQueryEngine

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..fuzzing.mutations import BatchMutationContext, MutationOperator

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
    label_probs: np.ndarray,
    log_naturalness: np.ndarray,
    loss_weight: float,
    naturalness_weight: float,
) -> np.ndarray:
    """Search fitness mixing model loss with log naturalness, elementwise.

    ``label_probs`` is the model's probability of each candidate's true
    label; scalars give the same bits as arrays.
    """
    loss = -np.log(np.maximum(label_probs, EPSILON))
    if not naturalness_weight:  # 0 * -inf (a cell without OP mass) is NaN
        return loss_weight * loss
    return loss_weight * loss + naturalness_weight * log_naturalness


@dataclass
class SeedFuzzResult:
    """Outcome of fuzzing a single seed."""

    seed_index: int
    adversarial_example: Optional[AdversarialExample]
    queries: int
    best_fitness: float
    candidates_rejected_by_naturalness: int


@dataclass(eq=False)
class SeedBatch:
    """A campaign's seeds as columns, one row per seed.

    Attributes
    ----------
    seeds, labels:
        Seed inputs ``(n, d)`` and their true labels ``(n,)``.
    budgets:
        Nominal per-seed query budgets ``(n,)``.
    rng_seeds:
        Seed of each member's private generator ``(n,)``, drawn by
        :func:`repro.config.spawn_seeds`.
    densities:
        Operational density of each seed ``(n,)``, or ``None``.
    neighbours:
        Natural neighbours of each seed ``(n, k, d)``, or ``None``.
    """

    seeds: np.ndarray
    labels: np.ndarray
    budgets: np.ndarray
    rng_seeds: np.ndarray
    densities: Optional[np.ndarray] = None
    neighbours: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.seeds)


class _Population:
    """Search state of one campaign, one column entry per seed.

    Seeds are admitted in index order, so the admitted members are always
    the prefix ``[0, admitted)``; ``active`` marks the live ones among them.
    """

    def __init__(self, batch: SeedBatch, budget: Optional[int]) -> None:
        n = len(batch)
        self.batch = batch
        self.budget = np.array(batch.budgets, dtype=np.int64)
        self.current = np.array(batch.seeds, dtype=float)
        self.log_floor = np.full(n, -np.inf)
        self.queries = np.zeros(n, dtype=np.int64)
        self.proposals = np.zeros(n, dtype=np.int64)
        self.stalled = np.zeros(n, dtype=np.int64)
        self.rejected = np.zeros(n, dtype=np.int64)
        self.best_fitness = np.full(n, -np.inf)
        self.active = np.zeros(n, dtype=bool)
        self.rngs: List[Optional[np.random.Generator]] = [None] * n
        self.found: List[Optional[AdversarialExample]] = [None] * n
        self.admitted = 0
        self.reserve_left = math.inf if budget is None else int(budget)

    def can_admit(self) -> bool:
        return self.admitted < len(self.batch) and self.reserve_left > 0

    def admit(self) -> np.ndarray:
        """Reserve budget for as many waitlisted seeds as currently fits."""
        start = self.admitted
        while self.can_admit():
            i = self.admitted
            if self.reserve_left != math.inf:
                self.budget[i] = max(1, min(int(self.budget[i]), self.reserve_left))
            self.reserve_left -= int(self.budget[i])
            self.admitted += 1
        return np.arange(start, self.admitted)

    def retire(self, members: np.ndarray) -> None:
        """Retire members, refunding whatever they reserved but did not spend."""
        self.active[members] = False
        self.reserve_left += int(np.sum(self.budget[members] - self.queries[members]))

    def detect(
        self,
        member: int,
        perturbed: np.ndarray,
        predicted_label: int,
        distance: float,
        naturalness: float,
    ) -> None:
        """Record the member's operational AE; the caller retires it."""
        batch = self.batch
        self.found[member] = AdversarialExample(
            seed=batch.seeds[member].copy(),
            perturbed=perturbed,
            true_label=int(batch.labels[member]),
            predicted_label=predicted_label,
            distance=distance,
            naturalness=naturalness,
            op_density=(
                float(batch.densities[member]) if batch.densities is not None else None
            ),
            method="operational-fuzzer",
            queries=int(self.queries[member]),
        )

    def results(self) -> List[SeedFuzzResult]:
        """One result per admitted seed, in seed order."""
        n = self.admitted
        return [
            SeedFuzzResult(
                seed_index=i,
                adversarial_example=self.found[i],
                queries=queries,
                best_fitness=best if math.isfinite(best) else 0.0,
                candidates_rejected_by_naturalness=rejected,
            )
            for i, queries, best, rejected in zip(
                range(n),
                self.queries[:n].tolist(),
                self.best_fitness[:n].tolist(),
                self.rejected[:n].tolist(),
            )
        ]


class PopulationFuzzEngine:
    """Runs the lock-step rounds over a population of seeds.

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

    # ------------------------------------------------------------------ #
    # campaign driver
    # ------------------------------------------------------------------ #
    def run(
        self, seeds: SeedBatch, budget: Optional[int] = None
    ) -> List[SeedFuzzResult]:
        """Fuzz every admissible seed and return results in seed order.

        Seeds that cannot be admitted before the global budget is exhausted
        are not started at all and yield no result — exactly like the
        sequential loop breaking out of its seed iteration.
        """
        pop = _Population(seeds, budget)
        while True:
            if pop.can_admit():
                admitted = pop.admit()
                if len(admitted):
                    self._initialise(pop, admitted)
            if not pop.active.any():
                if pop.can_admit():
                    # a whole admission wave retired during initialisation
                    # (natural failures) and refunded budget: admit more
                    continue
                break
            self._round(pop)
        return pop.results()

    def _initialise(self, pop: _Population, admitted: np.ndarray) -> None:
        """Score and classify the raw seeds of newly admitted members (batched)."""
        batch = pop.batch
        seeds = batch.seeds[admitted]
        log_naturalness = self.engine.score_naturalness(seeds)
        predictions = self.engine.predict(seeds)
        with np.errstate(divide="ignore"):  # threshold 0: log 0 = -inf, no floor
            pop.log_floor[admitted] = np.log(self.config.naturalness_threshold) + log_naturalness
        pop.queries[admitted] = 1
        # a "natural failure": the seed itself is already misclassified
        failed = predictions != batch.labels[admitted]
        for member, prediction, seed_naturalness in zip(
            admitted[failed].tolist(),
            predictions[failed].tolist(),
            np.exp(log_naturalness[failed]).tolist(),
        ):
            pop.detect(
                member, batch.seeds[member].copy(), prediction, 0.0, seed_naturalness
            )
        pop.retire(admitted[failed])
        passed = admitted[~failed]
        for member in passed.tolist():
            pop.rngs[member] = np.random.default_rng(int(batch.rng_seeds[member]))
        pop.active[passed] = True

    # ------------------------------------------------------------------ #
    # one lock-step round
    # ------------------------------------------------------------------ #
    def _round(self, pop: _Population) -> None:
        cfg = self.config

        # retire members that exhausted budget, proposals or patience
        live = np.flatnonzero(pop.active)
        budget = pop.budget[live]
        exhausted = (pop.queries[live] >= budget) | (
            pop.proposals[live] >= PROPOSAL_CAP_FACTOR * budget
        )
        if cfg.stall_limit:
            exhausted |= pop.stalled[live] >= cfg.stall_limit
        pop.retire(live[exhausted])
        live = live[~exhausted]
        if not len(live):
            return
        pop.proposals[live] += 1

        # every live member picks an operator from its own stream; proposals
        # are grouped per operator so each operator proposes for its whole
        # group at once (directed ones with one physical gradient call)
        groups: Dict[int, Tuple["MutationOperator", List[int]]] = {}
        for member in live.tolist():
            operator = pick_operator(
                self.directed,
                self.undirected,
                self.operators,
                cfg.gradient_probability,
                pop.rngs[member],
            )
            groups.setdefault(id(operator), (operator, []))[1].append(member)

        proposers: List[np.ndarray] = []
        blocks: List[np.ndarray] = []
        for operator, group in groups.values():
            members = np.array(group)
            block = operator.propose_batch(self._context(pop, members))
            if operator.queries_model:
                pop.queries[members] += 1
                # a directed proposal that consumed the member's last query
                # is discarded, as in the sequential loop
                spent = pop.queries[members] >= pop.budget[members]
                if spent.any():
                    pop.retire(members[spent])
                    members, block = members[~spent], block[~spent]
            proposers.append(members)
            blocks.append(block)
        members = np.concatenate(proposers)
        if not len(members):
            return

        # one batched naturalness call gates every proposal of the round
        candidates = np.concatenate(blocks)
        log_naturalness = self.engine.score_naturalness(candidates)
        unnatural = log_naturalness < pop.log_floor[members]
        pop.rejected[members[unnatural]] += 1
        pop.stalled[members[unnatural]] += 1
        natural = ~unnatural
        members = members[natural]
        candidates, log_naturalness = candidates[natural], log_naturalness[natural]
        if not len(members):
            return

        # one batched forward pass yields every verdict and fitness at once
        probs = self.engine.predict_proba(candidates)
        predictions = probs.argmax(axis=1)
        pop.queries[members] += 1
        labels = pop.batch.labels[members]
        hit = predictions != labels
        if hit.any():
            distances = np.max(
                np.abs(candidates[hit] - pop.batch.seeds[members[hit]]), axis=1
            )
            for j, distance in zip(np.flatnonzero(hit).tolist(), distances.tolist()):
                pop.detect(
                    int(members[j]),
                    candidates[j],
                    int(predictions[j]),
                    distance,
                    float(np.exp(log_naturalness[j])),
                )
            pop.retire(members[hit])

        missed = ~hit
        members, candidates = members[missed], candidates[missed]
        fitness = fitness_from_probs(
            probs[missed, labels[missed]],
            log_naturalness[missed],
            cfg.loss_weight,
            cfg.naturalness_weight,
        )
        improved = fitness > pop.best_fitness[members]
        better = members[improved]
        pop.best_fitness[better] = fitness[improved]
        pop.current[better] = candidates[improved]
        pop.stalled[better] = 0
        pop.stalled[members[~improved]] += 1

    def _context(
        self, pop: _Population, members: np.ndarray
    ) -> "BatchMutationContext":
        """The mutation context of one operator group."""
        from ..fuzzing.mutations import BatchMutationContext

        batch = pop.batch
        return BatchMutationContext(
            seeds=batch.seeds[members],
            currents=pop.current[members],
            labels=batch.labels[members],
            epsilon=self.config.epsilon,
            model=self.engine,
            natural_neighbours=(
                batch.neighbours[members] if batch.neighbours is not None else None
            ),
            rngs=[pop.rngs[member] for member in members.tolist()],
        )


__all__ = [
    "PROPOSAL_CAP_FACTOR",
    "pick_operator",
    "fitness_from_probs",
    "SeedBatch",
    "SeedFuzzResult",
    "PopulationFuzzEngine",
]
