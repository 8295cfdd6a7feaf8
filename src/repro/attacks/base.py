"""Common interface for adversarial attacks.

An attack takes a batch of (correctly labelled) seeds and searches for inputs
inside an L∞ ball of radius ``epsilon`` around each seed that the model
misclassifies.  All attacks report the number of model queries they spent —
the paper's notion of "testing budget" is a number of test cases, i.e. model
queries, so every detection method must account for them consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import RngLike, clip01, require_finite
from ..exceptions import AttackError, ShapeError
from ..runtime.policy import ExecutionPolicy, policy_or_default
from ..types import Classifier


@dataclass
class AttackResult:
    """Outcome of attacking a batch of seeds.

    Attributes
    ----------
    adversarial_x:
        Best candidate found for every seed, shape ``(n, d)``.  For seeds
        where no misclassification was found this is the last candidate tried.
    success:
        Boolean mask: whether the candidate is misclassified.
    predicted_labels:
        Model predictions on ``adversarial_x``.
    queries:
        Total number of model forward passes spent on the batch.
    queries_per_seed:
        Queries attributable to each seed (sums to ``queries``).
    """

    adversarial_x: np.ndarray
    success: np.ndarray
    predicted_labels: np.ndarray
    queries: int
    queries_per_seed: np.ndarray

    @property
    def success_rate(self) -> float:
        """Fraction of seeds for which a misclassification was found."""
        if len(self.success) == 0:
            return 0.0
        return float(np.mean(self.success))

    def distances(self, seeds: np.ndarray, order: float = np.inf) -> np.ndarray:
        """Perturbation norms between ``seeds`` and the adversarial candidates."""
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        if seeds.shape != self.adversarial_x.shape:
            raise ShapeError("seeds must have the same shape as adversarial_x")
        diff = self.adversarial_x - seeds
        if order == np.inf:
            return np.max(np.abs(diff), axis=1)
        return np.linalg.norm(diff, ord=order, axis=1)


class Attack:
    """Base class for adversarial attacks (debug-testing test-case generators).

    ``policy`` (an :class:`~repro.runtime.ExecutionPolicy`) sets batching
    and caching for attacks that funnel their queries through an engine
    (the black-box attacks); the white-box gradient attacks query the model
    directly and ignore it.
    """

    #: Human readable name used in reports.
    name: str = "attack"

    def __init__(
        self, epsilon: float = 0.1, policy: Optional[ExecutionPolicy] = None
    ) -> None:
        require_finite("epsilon", epsilon, AttackError)
        if epsilon <= 0:
            raise AttackError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon
        self.policy = policy_or_default(
            policy, ExecutionPolicy(), type(self).__name__, AttackError
        )

    def run(
        self,
        model: Classifier,
        x: np.ndarray,
        y: np.ndarray,
        rng: RngLike = None,
    ) -> AttackResult:
        """Attack a batch of seeds ``x`` with true labels ``y``."""
        raise NotImplementedError

    @property
    def max_queries_per_seed(self) -> int:
        """The most queries :meth:`run` can charge one seed."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_batch(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=int))
        if len(x) != len(y):
            raise ShapeError("x and y must agree on the number of seeds")
        if len(x) == 0:
            raise AttackError("cannot attack an empty batch of seeds")
        return x, y

    def _project(self, candidates: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Project candidates back into the L∞ ball and the [0, 1] domain."""
        lower = seeds - self.epsilon
        upper = seeds + self.epsilon
        return clip01(np.clip(candidates, lower, upper))


__all__ = ["Attack", "AttackResult"]
