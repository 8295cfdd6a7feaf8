"""Seed samplers: choosing where to spend the testing budget (RQ2).

A seed sampler selects rows of the operational dataset that the fuzzer will
attack.  The paper's requirement is two-fold: seeds must come from *high
density areas of the OP* (so that fixing the AEs found around them improves
delivered reliability) and from the *"buggy area"* of the input space (so the
budget is not wasted on robust regions).  :class:`OperationalSeedSampler`
combines the two via a product of powers; the other samplers are baselines and
ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..config import EPSILON, RngLike, ensure_rng, require_finite
from ..data.dataset import Dataset
from ..data.partition import Partition
from ..exceptions import SamplingError
from ..op.profile import OperationalProfile, relative_density
from ..runtime.policy import ExecutionPolicy
from ..types import Classifier
from .weights import WeightFunction, margin_weight


@dataclass
class SeedSelection:
    """Outcome of a sampling round.

    Attributes
    ----------
    indices:
        Row indices of the selected seeds in the operational dataset.
    x, y:
        The selected seeds and their labels.
    probabilities:
        Selection probability assigned to every row of the operational dataset
        (useful for diagnostics and for importance-weighted estimators).
    op_density:
        Operational density of each selected seed.
    failure_weight:
        Auxiliary failure-likelihood weight of each selected seed.
    """

    indices: np.ndarray
    x: np.ndarray
    y: np.ndarray
    probabilities: np.ndarray
    op_density: np.ndarray
    failure_weight: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


class SeedSampler:
    """Interface: select seeds from an operational dataset."""

    name: str = "sampler"

    def select(
        self,
        dataset: Dataset,
        model: Classifier,
        num_seeds: int,
        rng: RngLike = None,
    ) -> SeedSelection:
        """Select ``num_seeds`` seeds from ``dataset`` for testing."""
        raise NotImplementedError

    @staticmethod
    def _check_budget(dataset: Dataset, num_seeds: int) -> None:
        if num_seeds <= 0:
            raise SamplingError(f"num_seeds must be positive, got {num_seeds}")
        if len(dataset) == 0:
            raise SamplingError("cannot sample seeds from an empty dataset")

    def _funnel(self, model: Classifier):
        """Query engine over ``model`` via the sampler's execution policy.

        Weight functions are leaf callables: they receive whatever classifier
        the sampler hands them.  Funnelling here means every auxiliary-weight
        query is batched, cache-aware and counted in ``QueryStats``; a
        ``model`` that is already an engine passes through unchanged.
        """
        policy = getattr(self, "policy", None) or ExecutionPolicy()
        return policy.build_engine(model)

    @staticmethod
    def _draw(
        probabilities: np.ndarray, num_seeds: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw without replacement when possible, with replacement otherwise."""
        n = len(probabilities)
        support = int(np.count_nonzero(probabilities > 0))
        if support == 0:
            raise SamplingError("all selection probabilities are zero")
        if num_seeds <= support:
            return rng.choice(n, size=num_seeds, replace=False, p=probabilities)
        return rng.choice(n, size=num_seeds, replace=True, p=probabilities)


@dataclass
class UniformSeedSampler(SeedSampler):
    """Uniform random seed selection — the baseline of conventional debug testing."""

    name: str = "uniform"

    def select(
        self,
        dataset: Dataset,
        model: Classifier,
        num_seeds: int,
        rng: RngLike = None,
    ) -> SeedSelection:
        self._check_budget(dataset, num_seeds)
        generator = ensure_rng(rng)
        probabilities = np.full(len(dataset), 1.0 / len(dataset))
        indices = self._draw(probabilities, num_seeds, generator)
        return SeedSelection(
            indices=indices,
            x=dataset.x[indices].copy(),
            y=dataset.y[indices].copy(),
            probabilities=probabilities,
            op_density=np.ones(len(indices)),
            failure_weight=np.ones(len(indices)),
        )


@dataclass
class OperationalSeedSampler(SeedSampler):
    """Weight-based sampling combining OP density and failure likelihood.

    The selection probability of operational-dataset row ``i`` is proportional
    to ``op_density(x_i) ** op_exponent * failure_weight(x_i) ** failure_exponent``.
    Setting either exponent to zero ablates that signal, which is exactly the
    ablation benchmark A1 runs.

    Parameters
    ----------
    profile:
        Operational profile used for the density term; when ``None`` the
        operational dataset is assumed to already follow the OP, so the
        density term degenerates to uniform.
    weight_function:
        Auxiliary failure-likelihood source (margin by default).
    op_exponent, failure_exponent:
        Non-negative exponents trading off the two signals.
    failure_floor:
        Floor applied to the (normalised) failure weight before mixing, i.e.
        ``failure <- floor + (1 - floor) * failure``.  Without a floor, robust
        points get a near-zero failure score which erases the OP-density
        signal entirely; the floor keeps "high OP but apparently robust"
        regions in play, which is what the paper's step 2 requires.
    use_labels:
        Whether the auxiliary weight may peek at the true labels of the
        operational dataset.
    policy:
        Execution policy used to funnel the model before the weight function
        queries it (default in-process policy when ``None``).
    """

    profile: Optional[OperationalProfile] = None
    weight_function: WeightFunction = margin_weight
    policy: Optional[ExecutionPolicy] = None
    op_exponent: float = 1.0
    failure_exponent: float = 2.0
    failure_floor: float = 0.02
    use_labels: bool = True
    name: str = "operational"

    def __post_init__(self) -> None:
        require_finite("op_exponent", self.op_exponent, SamplingError)
        require_finite("failure_exponent", self.failure_exponent, SamplingError)
        if self.op_exponent < 0 or self.failure_exponent < 0:
            raise SamplingError("exponents must be non-negative")
        if not 0.0 <= self.failure_floor < 1.0:
            raise SamplingError("failure_floor must be in [0, 1)")

    def select(
        self,
        dataset: Dataset,
        model: Classifier,
        num_seeds: int,
        rng: RngLike = None,
    ) -> SeedSelection:
        self._check_budget(dataset, num_seeds)
        generator = ensure_rng(rng)

        if self.profile is not None and self.op_exponent > 0:
            log_density = self.profile.density(dataset.x, log=True)
            density = relative_density(log_density, log_density)
        else:
            density = np.ones(len(dataset))

        if self.failure_exponent > 0:
            labels = dataset.y if self.use_labels else None
            failure = self.weight_function(self._funnel(model), dataset.x, labels)
            failure = self.failure_floor + (1.0 - self.failure_floor) * failure
        else:
            failure = np.ones(len(dataset))

        scores = np.power(np.maximum(density, EPSILON), self.op_exponent) * np.power(
            np.maximum(failure, EPSILON), self.failure_exponent
        )
        total = scores.sum()
        if total <= 0:
            raise SamplingError("seed scores sum to zero; check the weight function")
        probabilities = scores / total
        indices = self._draw(probabilities, num_seeds, generator)
        return SeedSelection(
            indices=indices,
            x=dataset.x[indices].copy(),
            y=dataset.y[indices].copy(),
            probabilities=probabilities,
            op_density=density[indices],
            failure_weight=failure[indices],
        )


@dataclass
class CellStratifiedSeedSampler(SeedSampler):
    """Allocate seeds to partition cells proportionally to their OP mass.

    A stratified variant of :class:`OperationalSeedSampler` that guarantees
    coverage of every operationally relevant cell (useful when the reliability
    assessor needs evidence in each cell, see RQ5).  Within a cell, seeds are
    chosen by the auxiliary failure weight.
    """

    partition: Partition = None
    profile: OperationalProfile = None
    weight_function: WeightFunction = margin_weight
    policy: Optional[ExecutionPolicy] = None
    use_labels: bool = True
    min_per_cell: int = 0
    name: str = "cell-stratified"

    def __post_init__(self) -> None:
        if self.partition is None or self.profile is None:
            raise SamplingError("CellStratifiedSeedSampler requires a partition and a profile")
        if self.min_per_cell < 0:
            raise SamplingError("min_per_cell must be non-negative")

    def select(
        self,
        dataset: Dataset,
        model: Classifier,
        num_seeds: int,
        rng: RngLike = None,
    ) -> SeedSelection:
        self._check_budget(dataset, num_seeds)
        generator = ensure_rng(rng)
        cell_ids = self.partition.assign(dataset.x)
        cell_probs = self.profile.cell_probabilities(self.partition, rng=generator)

        occupied_cells = np.unique(cell_ids)
        occupied_mass = cell_probs[occupied_cells]
        if occupied_mass.sum() <= 0:
            occupied_mass = np.ones(len(occupied_cells))
        occupied_mass = occupied_mass / occupied_mass.sum()

        allocation = np.maximum(
            np.floor(occupied_mass * num_seeds).astype(int), self.min_per_cell
        )
        # distribute any remaining budget to the highest-mass cells
        while allocation.sum() < num_seeds:
            allocation[int(np.argmax(occupied_mass - allocation / max(num_seeds, 1)))] += 1
        # trim overshoot from the lowest-mass cells
        while allocation.sum() > num_seeds:
            positive = np.flatnonzero(allocation > self.min_per_cell)
            if len(positive) == 0:
                break
            allocation[positive[int(np.argmin(occupied_mass[positive]))]] -= 1

        labels = dataset.y if self.use_labels else None
        failure = self.weight_function(self._funnel(model), dataset.x, labels)
        selected: List[int] = []
        for cell, count in zip(occupied_cells, allocation):
            if count <= 0:
                continue
            members = np.flatnonzero(cell_ids == cell)
            member_scores = np.maximum(failure[members], EPSILON)
            member_probs = member_scores / member_scores.sum()
            take = min(count, len(members))
            chosen = generator.choice(members, size=take, replace=False, p=member_probs)
            selected.extend(chosen.tolist())
        if not selected:
            raise SamplingError("stratified sampling selected no seeds")
        indices = np.asarray(selected[:num_seeds], dtype=int)

        log_density = self.profile.density(dataset.x, log=True)
        density = relative_density(log_density, log_density)
        probabilities = np.zeros(len(dataset))
        probabilities[indices] = 1.0 / len(indices)
        return SeedSelection(
            indices=indices,
            x=dataset.x[indices].copy(),
            y=dataset.y[indices].copy(),
            probabilities=probabilities,
            op_density=density[indices],
            failure_weight=failure[indices],
        )


__all__ = [
    "SeedSelection",
    "SeedSampler",
    "UniformSeedSampler",
    "OperationalSeedSampler",
    "CellStratifiedSeedSampler",
]
