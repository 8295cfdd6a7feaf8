"""Gradient-free attacks: random fuzzing, Gaussian noise and boundary nudging.

These serve two purposes: (i) black-box baselines for the detection-efficiency
comparison (a plain fuzzer spends many test cases per AE, which is exactly the
inefficiency of unguided operational testing the paper cites from Frankl et
al.), and (ii) mutation primitives reused by the operational fuzzer of RQ3.

All three attacks are fully vectorised across seeds *and* trials: candidate
matrices are generated up front and serviced by a handful of chunked
``predict`` calls through the :class:`repro.engine.BatchedQueryEngine`, while
the reported per-seed query counts remain exactly what the trial-by-trial
loop would have charged (a seed stops being billed at its first hit when the
attack early-stops).  Each attack's :class:`~repro.runtime.ExecutionPolicy`
selects the execution backend for those physical calls (the replicated
``"sharded"`` backend fans chunks out across worker processes with
bit-identical results).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import RngLike, ensure_rng
from ..exceptions import AttackError
from ..runtime.policy import ExecutionPolicy
from ..types import Classifier
from .base import Attack, AttackResult


class RandomFuzz(Attack):
    """Uniform random search inside the L∞ ball around each seed.

    Parameters
    ----------
    epsilon:
        Radius of the search ball.
    num_trials:
        Maximum random candidates evaluated per seed.
    early_stop:
        Stop billing a seed as soon as a misclassification is found.
    policy:
        Execution policy for the physical calls (backend, batching, workers
        — results are bit-identical across policies).
    """

    name = "random-fuzz"

    def __init__(
        self,
        epsilon: float = 0.1,
        num_trials: int = 20,
        early_stop: bool = True,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        super().__init__(epsilon, policy=policy)
        if num_trials <= 0:
            raise AttackError("num_trials must be positive")
        self.num_trials = num_trials
        self.early_stop = early_stop

    def run(
        self,
        model: Classifier,
        x: np.ndarray,
        y: np.ndarray,
        rng: RngLike = None,
    ) -> AttackResult:
        x, y = self._validate_batch(x, y)
        generator = ensure_rng(rng)

        def draw(block: int) -> np.ndarray:
            return generator.uniform(
                -self.epsilon, self.epsilon, size=(block, len(x), x.shape[1])
            )

        return _run_trial_matrix_attack(
            model, x, y, self.num_trials, draw, self, early_stop=self.early_stop
        )


class GaussianNoise(Attack):
    """Benign environmental perturbations: clipped Gaussian noise around the seed.

    Models the footnote-1 interpretation of "adversarial" examples as benign
    inputs perturbed by the natural environment rather than a malicious
    attacker.
    """

    name = "gaussian-noise"

    def __init__(
        self,
        epsilon: float = 0.1,
        std_fraction: float = 0.5,
        num_trials: int = 10,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        super().__init__(epsilon, policy=policy)
        if not 0 < std_fraction <= 1:
            raise AttackError("std_fraction must be in (0, 1]")
        if num_trials <= 0:
            raise AttackError("num_trials must be positive")
        self.std_fraction = std_fraction
        self.num_trials = num_trials

    def run(
        self,
        model: Classifier,
        x: np.ndarray,
        y: np.ndarray,
        rng: RngLike = None,
    ) -> AttackResult:
        x, y = self._validate_batch(x, y)
        generator = ensure_rng(rng)
        std = self.epsilon * self.std_fraction

        def draw(block: int) -> np.ndarray:
            return generator.normal(0.0, std, size=(block, len(x), x.shape[1]))

        return _run_trial_matrix_attack(
            model, x, y, self.num_trials, draw, self, early_stop=True
        )


class BoundaryNudge(Attack):
    """Interpolate from the seed towards same-ball inputs of other classes.

    A simple decision-boundary probe: candidates are convex combinations of the
    seed and a random "target" direction, searched with bisection.  Useful as a
    gradient-free but informed baseline between random fuzzing and PGD.

    Direction probes and bisection steps run in lock-step across the whole
    batch: one physical model call per direction round and one per bisection
    level, instead of one per seed per probe.
    """

    name = "boundary-nudge"

    def __init__(
        self,
        epsilon: float = 0.1,
        num_directions: int = 5,
        num_bisections: int = 4,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        super().__init__(epsilon, policy=policy)
        if num_directions <= 0 or num_bisections <= 0:
            raise AttackError("num_directions and num_bisections must be positive")
        self.num_directions = num_directions
        self.num_bisections = num_bisections

    def run(
        self,
        model: Classifier,
        x: np.ndarray,
        y: np.ndarray,
        rng: RngLike = None,
    ) -> AttackResult:
        x, y = self._validate_batch(x, y)
        generator = ensure_rng(rng)
        with self._engine_session(model) as engine:
            return self._run_with_engine(engine, x, y, generator)

    def _run_with_engine(
        self,
        engine,
        x: np.ndarray,
        y: np.ndarray,
        generator: np.random.Generator,
    ) -> AttackResult:
        n, d = x.shape
        best = x.copy()
        best_pred = np.asarray(engine.predict(x))
        queries_per_seed = np.ones(n, dtype=int)
        best_success = best_pred != y

        directions = generator.choice(
            [-1.0, 1.0], size=(self.num_directions, n, d)
        )
        active = ~best_success
        for round_index in range(self.num_directions):
            idx = np.flatnonzero(active)
            if len(idx) == 0:
                break
            far = self._project(x[idx] + self.epsilon * directions[round_index, idx], x[idx])
            predictions = np.asarray(engine.predict(far))
            queries_per_seed[idx] += 1
            hit = predictions != y[idx]
            bisect_idx = idx[hit]
            if len(bisect_idx) == 0:
                continue

            # lock-step bisection: shrink towards the seeds while staying
            # misclassified, one batched probe per level
            seeds_b = x[bisect_idx]
            labels_b = y[bisect_idx]
            far_b = far[hit]
            candidate = far_b.copy()
            candidate_pred = predictions[hit].copy()
            lo = np.zeros(len(bisect_idx))
            hi = np.ones(len(bisect_idx))
            for _ in range(self.num_bisections):
                mid = (lo + hi) / 2
                probes = self._project(
                    seeds_b + mid[:, None] * (far_b - seeds_b), seeds_b
                )
                probe_pred = np.asarray(engine.predict(probes))
                queries_per_seed[bisect_idx] += 1
                miss = probe_pred != labels_b
                hi = np.where(miss, mid, hi)
                lo = np.where(miss, lo, mid)
                candidate[miss] = probes[miss]
                candidate_pred[miss] = probe_pred[miss]

            best[bisect_idx] = candidate
            best_pred[bisect_idx] = candidate_pred
            best_success[bisect_idx] = True
            active[bisect_idx] = False

        return AttackResult(
            adversarial_x=best,
            success=best_success,
            predicted_labels=best_pred,
            queries=int(queries_per_seed.sum()),
            queries_per_seed=queries_per_seed,
        )


def _run_trial_matrix_attack(
    model: Classifier,
    x: np.ndarray,
    y: np.ndarray,
    num_trials: int,
    draw_noise,
    attack: Attack,
    early_stop: bool,
) -> AttackResult:
    """Evaluate random trials across all seeds in memory-bounded blocks.

    ``draw_noise(block)`` must return a ``(block, n, d)`` noise tensor;
    drawing per block consumes the generator stream in the same order as one
    monolithic draw, so results are independent of the block size.  Blocks
    are sized so the candidate matrix stays around the policy's
    ``batch_size`` rows, and seeds that already hit stop being materialised
    and classified.
    Per-seed query accounting reproduces the trial-by-trial loop exactly (a
    seed is billed one query per trial until its first hit when
    ``early_stop`` is set, or for every trial otherwise).
    """
    with attack._engine_session(model) as engine:
        return _trial_matrix_with_engine(engine, x, y, num_trials, draw_noise, attack, early_stop)


def _trial_matrix_with_engine(
    engine,
    x: np.ndarray,
    y: np.ndarray,
    num_trials: int,
    draw_noise,
    attack: Attack,
    early_stop: bool,
) -> AttackResult:
    n, d = x.shape
    best = x.copy()
    best_pred = np.asarray(engine.predict(x))
    queries_per_seed = np.ones(n, dtype=int)
    best_success = best_pred != y
    # with early stopping, natural failures never search; the exhaustive
    # variant keeps billing (and overwriting) every seed, like the old loop
    active = ~best_success if early_stop else np.ones(n, dtype=bool)

    trials_per_block = max(1, attack.policy.batch_size // max(n, 1))
    trial = 0
    while trial < num_trials and np.any(active):
        block = min(trials_per_block, num_trials - trial)
        noise = draw_noise(block)
        idx = np.flatnonzero(active)
        candidates = attack._project(
            x[idx][None, :, :] + noise[:, idx],
            np.broadcast_to(x[idx], (block, len(idx), d)),
        )
        predictions = np.asarray(
            engine.predict(candidates.reshape(block * len(idx), d))
        ).reshape(block, len(idx))
        hits = predictions != y[idx][None, :]
        any_hit = hits.any(axis=0)
        first_hit = np.argmax(hits, axis=0)
        last_hit = block - 1 - np.argmax(hits[::-1], axis=0)
        # early-stopping keeps the first hit; the exhaustive loop's repeated
        # overwrites make the last hit win
        pick = first_hit if early_stop else last_hit

        if early_stop:
            queries_per_seed[idx] += np.where(any_hit, first_hit + 1, block)
        else:
            queries_per_seed[idx] += block

        hit_positions = np.flatnonzero(any_hit)
        seed_positions = idx[hit_positions]
        best[seed_positions] = candidates[pick[hit_positions], hit_positions]
        best_pred[seed_positions] = predictions[pick[hit_positions], hit_positions]
        best_success[seed_positions] = True
        if early_stop:
            active[seed_positions] = False
        trial += block

    return AttackResult(
        adversarial_x=best,
        success=best_success,
        predicted_labels=best_pred,
        queries=int(queries_per_seed.sum()),
        queries_per_seed=queries_per_seed,
    )


__all__ = ["RandomFuzz", "GaussianNoise", "BoundaryNudge"]
