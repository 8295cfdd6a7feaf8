"""Gradient-based attacks: FGSM and PGD (Madry et al., reference [11]).

These are the "existing attacking algorithms that perform well in efficiently
detecting AEs around seeds" the paper builds on for RQ3 — and, run on
uniformly chosen seeds, they are also the OP-ignorant state-of-the-art
baseline the proposed method is compared against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import RngLike, ensure_rng, require_finite
from ..exceptions import AttackError
from ..types import Classifier
from .base import Attack, AttackResult


class FGSM(Attack):
    """Fast Gradient Sign Method: one signed-gradient step of size epsilon."""

    name = "fgsm"

    @property
    def max_queries_per_seed(self) -> int:
        return 2

    def run(
        self,
        model: Classifier,
        x: np.ndarray,
        y: np.ndarray,
        rng: RngLike = None,
    ) -> AttackResult:
        x, y = self._validate_batch(x, y)
        # whitebox by design: attacks receive the classifier the caller chose
        # (the fuzzer installs its engine as `model`), and must see raw
        # gradients — wrapping here would double-count queries
        gradient = model.loss_input_gradient(x, y)  # repro: allow[engine-funnel]
        candidates = self._project(x + self.epsilon * np.sign(gradient), x)
        predictions = model.predict(candidates)  # repro: allow[engine-funnel]
        success = predictions != y
        n = len(x)
        # one gradient evaluation + one prediction per seed
        queries_per_seed = np.full(n, 2, dtype=int)
        return AttackResult(
            adversarial_x=candidates,
            success=success,
            predicted_labels=predictions,
            queries=int(queries_per_seed.sum()),
            queries_per_seed=queries_per_seed,
        )


class PGD(Attack):
    """Projected Gradient Descent with random start (L∞ threat model).

    Parameters
    ----------
    epsilon:
        Radius of the L∞ ball around each seed.
    step_size:
        Per-iteration step; defaults to ``epsilon / 4``.
    num_steps:
        Number of gradient iterations.
    random_start:
        Whether to start from a uniformly random point inside the ball.
    early_stop:
        Stop iterating on seeds that are already misclassified (saves queries).
    """

    name = "pgd"

    def __init__(
        self,
        epsilon: float = 0.1,
        step_size: Optional[float] = None,
        num_steps: int = 10,
        random_start: bool = True,
        early_stop: bool = True,
    ) -> None:
        super().__init__(epsilon)
        if num_steps <= 0:
            raise AttackError("num_steps must be positive")
        self.step_size = step_size if step_size is not None else epsilon / 4
        require_finite("step_size", self.step_size, AttackError)
        if self.step_size <= 0:
            raise AttackError("step_size must be positive")
        self.num_steps = num_steps
        self.random_start = random_start
        self.early_stop = early_stop

    @property
    def max_queries_per_seed(self) -> int:
        # the start's prediction, then one gradient and one prediction a step
        return 1 + 2 * self.num_steps

    def run(
        self,
        model: Classifier,
        x: np.ndarray,
        y: np.ndarray,
        rng: RngLike = None,
    ) -> AttackResult:
        x, y = self._validate_batch(x, y)
        generator = ensure_rng(rng)
        n = len(x)
        queries_per_seed = np.zeros(n, dtype=int)

        if self.random_start:
            start = x + generator.uniform(-self.epsilon, self.epsilon, size=x.shape)
            candidates = self._project(start, x)
        else:
            candidates = x.copy()

        best = candidates.copy()
        # whitebox by design: see FGSM.run — same justification for all three
        best_pred = model.predict(candidates)  # repro: allow[engine-funnel]
        queries_per_seed += 1
        best_success = best_pred != y
        active = ~best_success if self.early_stop else np.ones(n, dtype=bool)

        for _ in range(self.num_steps):
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            gradient = model.loss_input_gradient(candidates[idx], y[idx])  # repro: allow[engine-funnel]
            stepped = candidates[idx] + self.step_size * np.sign(gradient)
            candidates[idx] = self._project(stepped, x[idx])
            predictions = model.predict(candidates[idx])  # repro: allow[engine-funnel]
            queries_per_seed[idx] += 2  # one gradient + one prediction
            newly_success = predictions != y[idx]
            best[idx] = candidates[idx]
            best_pred[idx] = predictions
            best_success[idx] = newly_success
            if self.early_stop:
                active[idx[newly_success]] = False

        return AttackResult(
            adversarial_x=best,
            success=best_success,
            predicted_labels=best_pred,
            queries=int(queries_per_seed.sum()),
            queries_per_seed=queries_per_seed,
        )


__all__ = ["FGSM", "PGD"]
