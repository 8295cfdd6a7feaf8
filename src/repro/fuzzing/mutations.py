"""Mutation operators used by the operational fuzzer.

Each operator proposes a new candidate from the current one while staying
inside the L∞ cell around the original seed.  The fuzzer mixes *undirected*
operators (noise, feature perturbations, interpolation towards natural
neighbours — these tend to preserve naturalness) with *directed* operators
(signed-gradient steps — these find misclassifications quickly), which is how
the trade-off between naturalness and loss gradient described in Section II
is realised mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import clip01
from ..exceptions import FuzzingError
from ..types import Classifier


@dataclass
class MutationContext:
    """Everything a mutation operator may use to propose a candidate.

    Attributes
    ----------
    seed:
        The original operational seed (centre of the cell).
    current:
        The current candidate being mutated.
    label:
        True label of the seed.
    epsilon:
        L∞ radius of the cell around the seed.
    model:
        Model under test (only directed operators query it).
    natural_neighbours:
        Optional pool of natural inputs near the seed, used by the
        interpolation operator.
    rng:
        Random generator for the proposal.
    """

    seed: np.ndarray
    current: np.ndarray
    label: int
    epsilon: float
    model: Classifier
    natural_neighbours: Optional[np.ndarray]
    rng: np.random.Generator


@dataclass
class BatchMutationContext:
    """Lock-step variant of :class:`MutationContext` covering many seeds.

    One row per live population member.  ``rngs`` carries each member's
    private random stream, so a member's proposal sequence is independent of
    which other members happen to be alive in the same round — this is what
    keeps the batched fuzzer statistically equivalent to the sequential one.
    ``natural_neighbours`` is one ``(n, k, d)`` block, or ``None`` when no
    seed has neighbours.
    """

    seeds: np.ndarray
    currents: np.ndarray
    labels: np.ndarray
    epsilon: float
    model: Classifier
    natural_neighbours: Optional[np.ndarray]
    rngs: Sequence[np.random.Generator]

    def row(self, i: int) -> MutationContext:
        """View row ``i`` as a single-seed mutation context."""
        neighbours = self.natural_neighbours
        return MutationContext(
            seed=self.seeds[i],
            current=self.currents[i],
            label=int(self.labels[i]),
            epsilon=self.epsilon,
            model=self.model,
            natural_neighbours=neighbours[i] if neighbours is not None else None,
            rng=self.rngs[i],
        )


class MutationOperator:
    """Base class for mutation operators."""

    #: Whether the operator consumes a model query (gradient or prediction).
    queries_model: bool = False
    name: str = "mutation"

    def propose(self, context: MutationContext) -> np.ndarray:
        """Return a new candidate derived from ``context.current``."""
        raise NotImplementedError

    def propose_batch(self, context: BatchMutationContext) -> np.ndarray:
        """Return one candidate per row of ``context.currents``.

        Row ``i`` draws from ``context.rngs[i]`` exactly what :meth:`propose`
        would draw, in the same order; :meth:`_moves` turns the drawn steps
        into the block's candidates and one projection clips them all, so
        the result equals :meth:`propose` row by row, bit for bit.  An
        operator without a block form is asked row by row; operators whose
        proposals touch the model override this to issue a single batched
        call instead.
        """
        moved = self._moves(context)
        if moved is None:
            return np.stack(
                [self.propose(context.row(i)) for i in range(len(context.currents))]
            )
        return self._project(moved, context.seeds, context.epsilon)

    def _moves(self, context: BatchMutationContext) -> Optional[np.ndarray]:
        """Unprojected candidates for every row, or ``None`` (no block form)."""
        return None

    @staticmethod
    def _project(candidate: np.ndarray, seed: np.ndarray, epsilon: float) -> np.ndarray:
        return clip01(np.clip(candidate, seed - epsilon, seed + epsilon))


class GaussianMutation(MutationOperator):
    """Add small Gaussian noise to every feature."""

    name = "gaussian"

    def __init__(self, scale_fraction: float = 0.25) -> None:
        if not 0 < scale_fraction <= 1:
            raise FuzzingError("scale_fraction must be in (0, 1]")
        self.scale_fraction = scale_fraction

    def propose(self, context: MutationContext) -> np.ndarray:
        std = context.epsilon * self.scale_fraction
        noise = context.rng.normal(0.0, std, size=context.current.shape)
        return self._project(context.current + noise, context.seed, context.epsilon)

    def _moves(self, context: BatchMutationContext) -> np.ndarray:
        std = context.epsilon * self.scale_fraction
        d = context.currents.shape[1]
        noise = np.array([rng.normal(0.0, std, size=d) for rng in context.rngs])
        return context.currents + noise


class SparseMutation(MutationOperator):
    """Perturb a random subset of features by up to epsilon (salt-and-pepper style)."""

    name = "sparse"

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0 < fraction <= 1:
            raise FuzzingError("fraction must be in (0, 1]")
        self.fraction = fraction

    def propose(self, context: MutationContext) -> np.ndarray:
        d = context.current.shape[0]
        count = max(1, int(round(self.fraction * d)))
        indices = context.rng.choice(d, size=count, replace=False)
        candidate = context.current.copy()
        candidate[indices] += context.rng.uniform(
            -context.epsilon, context.epsilon, size=count
        )
        return self._project(candidate, context.seed, context.epsilon)

    def _moves(self, context: BatchMutationContext) -> np.ndarray:
        n, d = context.currents.shape
        count = max(1, int(round(self.fraction * d)))
        indices = np.empty((n, count), dtype=np.intp)
        steps = np.empty((n, count))
        for i, rng in enumerate(context.rngs):
            indices[i] = rng.choice(d, size=count, replace=False)
            steps[i] = rng.uniform(-context.epsilon, context.epsilon, size=count)
        candidates = context.currents.copy()
        # indices are distinct within a row, so every entry is added once
        candidates[np.arange(n)[:, None], indices] += steps
        return candidates


class InterpolationMutation(MutationOperator):
    """Move towards a random natural neighbour of the seed.

    Because the target is itself natural, interpolated candidates stay close
    to the data manifold — this operator injects naturalness-preserving
    diversity the gradient alone would not provide.
    """

    name = "interpolation"

    def __init__(self, max_step: float = 0.5) -> None:
        if not 0 < max_step <= 1:
            raise FuzzingError("max_step must be in (0, 1]")
        self.max_step = max_step

    def propose(self, context: MutationContext) -> np.ndarray:
        neighbours = context.natural_neighbours
        if neighbours is None or len(neighbours) == 0:
            # degenerate gracefully to a Gaussian proposal
            return GaussianMutation().propose(context)
        target = neighbours[context.rng.integers(len(neighbours))]
        alpha = context.rng.uniform(0.0, self.max_step)
        candidate = context.current + alpha * (target - context.current)
        return self._project(candidate, context.seed, context.epsilon)

    def _moves(self, context: BatchMutationContext) -> np.ndarray:
        neighbours = context.natural_neighbours
        if neighbours is None or neighbours.shape[1] == 0:
            return GaussianMutation()._moves(context)
        n, k = neighbours.shape[:2]
        picks = np.empty(n, dtype=np.intp)
        alphas = np.empty(n)
        for i, rng in enumerate(context.rngs):
            picks[i] = rng.integers(k)
            alphas[i] = rng.uniform(0.0, self.max_step)
        targets = neighbours[np.arange(n), picks]
        currents = context.currents
        return currents + alphas[:, None] * (targets - currents)


class GradientMutation(MutationOperator):
    """Directed signed-gradient step (the loss-gradient guidance of Section II.c)."""

    name = "gradient"
    queries_model = True

    def __init__(self, step_fraction: float = 0.25) -> None:
        if not 0 < step_fraction <= 1:
            raise FuzzingError("step_fraction must be in (0, 1]")
        self.step_fraction = step_fraction

    def propose(self, context: MutationContext) -> np.ndarray:
        # context.model IS the fuzzer's engine (OperationalFuzzer installs it
        # in the MutationContext), so this call is already funnelled
        gradient = context.model.loss_input_gradient(  # repro: allow[engine-funnel]
            context.current[None, :], np.asarray([context.label])
        )[0]
        step = context.epsilon * self.step_fraction
        candidate = context.current + step * np.sign(gradient)
        return self._project(candidate, context.seed, context.epsilon)

    def propose_batch(self, context: BatchMutationContext) -> np.ndarray:
        # one physical gradient call for the whole population; the batch-mean
        # scaling of the gradient is irrelevant under np.sign, so each row is
        # the same step the sequential single-row call would have taken
        # (context.model is the fuzzer's engine — already funnelled)
        gradient = context.model.loss_input_gradient(context.currents, context.labels)  # repro: allow[engine-funnel]
        step = context.epsilon * self.step_fraction
        candidates = context.currents + step * np.sign(gradient)
        return self._project(candidates, context.seeds, context.epsilon)


def default_operators(use_gradient: bool = True) -> list[MutationOperator]:
    """The default operator mix used by the operational fuzzer."""
    operators: list[MutationOperator] = [
        GaussianMutation(),
        SparseMutation(),
        InterpolationMutation(),
    ]
    if use_gradient:
        operators.append(GradientMutation())
    return operators


__all__ = [
    "BatchMutationContext",
    "MutationContext",
    "MutationOperator",
    "GaussianMutation",
    "SparseMutation",
    "InterpolationMutation",
    "GradientMutation",
    "default_operators",
]
