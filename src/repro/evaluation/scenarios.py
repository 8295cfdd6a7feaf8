"""Reusable experiment scenarios shared by the examples and benchmarks.

A *scenario* bundles everything one evaluation run needs: a training dataset,
a trained model, a ground-truth operational profile (deliberately mismatched
with the balanced training data — the paper's motivating situation), an
operational dataset drawn from that profile, a fitted naturalness scorer and a
cell partition.  Centralising this avoids copy-pasted setup code and keeps
benchmark timings comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import RngLike, ensure_rng, spawn_rngs
from ..data.dataset import Dataset
from ..data.partition import Partition, build_partition_for_dataset
from ..data.synthetic import make_gaussian_clusters, make_glyph_digits, make_two_moons
from ..exceptions import ConfigurationError
from ..naturalness.metrics import NaturalnessScorer, default_naturalness_scorer
from ..nn.models import build_mlp_classifier
from ..nn.network import Sequential
from ..nn.optimizers import Adam
from ..nn.trainer import Trainer, TrainerConfig
from ..op.profile import (
    OperationalProfile,
    ground_truth_profile_for_clusters,
    profile_from_dataset,
)
from ..op.synthesis import synthesize_operational_dataset


@dataclass
class Scenario:
    """A fully prepared evaluation scenario."""

    name: str
    train_data: Dataset
    test_data: Dataset
    operational_data: Dataset
    model: Sequential
    profile: OperationalProfile
    naturalness: NaturalnessScorer
    partition: Partition
    operational_priors: np.ndarray

    def query_engine(
        self,
        policy: Optional["ExecutionPolicy"] = None,
        cache: Optional["CacheBackend"] = None,
    ):
        """Build a query engine over the scenario's model and scorer.

        ``policy`` (an :class:`~repro.runtime.ExecutionPolicy`) selects the
        execution backend — results are bit-identical across policies.
        ``cache`` is either ``None`` or a concrete
        :class:`~repro.engine.CacheBackend` instance, which overrides the
        policy's cache spec (enable the default in-memory cache with
        ``policy=ExecutionPolicy(cache=True)``).  Callers own the returned
        engine and should :meth:`~repro.engine.BatchedQueryEngine.close` it
        (or use it as a context manager) when a multi-worker backend was
        requested.
        """
        from ..engine.batching import CacheBackend
        from ..runtime.policy import ExecutionPolicy, policy_or_default

        resolved = policy_or_default(
            policy, ExecutionPolicy(), "Scenario.query_engine"
        )
        if cache is not None and not isinstance(cache, CacheBackend):
            raise ConfigurationError(
                "cache must be None or a CacheBackend instance "
                "(get/put/clear/__len__); enable the default in-memory cache "
                f"via policy=ExecutionPolicy(cache=True), got {cache!r}"
            )
        return resolved.build_engine(
            self.model, naturalness=self.naturalness, cache=cache
        )


def _train_model(
    train: Dataset,
    hidden_sizes: Sequence[int],
    epochs: int,
    learning_rate: float,
    rng: RngLike,
) -> Sequential:
    model = build_mlp_classifier(
        train.num_features, train.num_classes, hidden_sizes=hidden_sizes, rng=rng
    )
    trainer = Trainer(
        optimizer=Adam(learning_rate=learning_rate),
        config=TrainerConfig(epochs=epochs, batch_size=64),
        rng=rng,
    )
    # scenario construction trains the subject model itself — whitebox by
    # definition, and no campaign query budget exists yet at this point
    trainer.fit(model, train.x, train.y)  # repro: allow[engine-funnel]
    return model


def make_clusters_scenario(
    num_samples: int = 1200,
    num_classes: int = 4,
    cluster_std: float = 0.10,
    operational_priors: Optional[Sequence[float]] = None,
    epochs: int = 25,
    rng: RngLike = None,
) -> Scenario:
    """Gaussian-cluster scenario with an exact (analytic) operational profile.

    Training data is balanced; the operational profile concentrates most of
    the probability mass on a subset of classes, reproducing the
    training/operation mismatch that motivates the paper.
    """
    rngs = spawn_rngs(rng, 6)
    if operational_priors is None:
        operational_priors = [0.55, 0.25, 0.15, 0.05][:num_classes]
    priors = np.asarray(operational_priors, dtype=float)
    if priors.shape != (num_classes,):
        raise ConfigurationError("operational_priors must have one entry per class")
    priors = priors / priors.sum()

    full = make_gaussian_clusters(
        num_samples, num_classes=num_classes, cluster_std=cluster_std, rng=rngs[0]
    )
    train, test = full.split(0.25, rng=rngs[1])
    model = _train_model(train, hidden_sizes=(32, 16), epochs=epochs, learning_rate=0.01, rng=rngs[2])
    profile = ground_truth_profile_for_clusters(
        num_classes, full.num_features, cluster_std, class_priors=priors
    )
    operational = synthesize_operational_dataset(
        profile, size=1000, reference=full, rng=rngs[3]
    )
    naturalness = default_naturalness_scorer(
        train.x, profile=profile, use_autoencoder=False, rng=rngs[4]
    )
    partition = build_partition_for_dataset(full.x, scheme="grid", bins_per_dim=8)
    return Scenario(
        name="gaussian-clusters",
        train_data=train,
        test_data=test,
        operational_data=operational,
        model=model,
        profile=profile,
        naturalness=naturalness,
        partition=partition,
        operational_priors=priors,
    )


def make_moons_scenario(
    num_samples: int = 1200,
    noise: float = 0.07,
    operational_priors: Optional[Sequence[float]] = None,
    epochs: int = 30,
    rng: RngLike = None,
) -> Scenario:
    """Two-moons scenario (harder decision boundary, still 2-D and cheap)."""
    rngs = spawn_rngs(rng, 6)
    if operational_priors is None:
        operational_priors = [0.8, 0.2]
    priors = np.asarray(operational_priors, dtype=float)
    priors = priors / priors.sum()

    full = make_two_moons(num_samples, noise=noise, rng=rngs[0])
    train, test = full.split(0.25, rng=rngs[1])
    model = _train_model(train, hidden_sizes=(32, 16), epochs=epochs, learning_rate=0.01, rng=rngs[2])
    profile = profile_from_dataset(full, class_priors=priors, resample_noise=noise / 2)
    operational = synthesize_operational_dataset(
        profile, size=1000, reference=full, rng=rngs[3]
    )
    naturalness = default_naturalness_scorer(
        train.x, profile=profile, use_autoencoder=False, rng=rngs[4]
    )
    partition = build_partition_for_dataset(full.x, scheme="grid", bins_per_dim=8)
    return Scenario(
        name="two-moons",
        train_data=train,
        test_data=test,
        operational_data=operational,
        model=model,
        profile=profile,
        naturalness=naturalness,
        partition=partition,
        operational_priors=priors,
    )


def make_glyph_scenario(
    num_samples: int = 1500,
    image_size: int = 12,
    num_classes: int = 10,
    operational_priors: Optional[Sequence[float]] = None,
    epochs: int = 20,
    rng: RngLike = None,
) -> Scenario:
    """Glyph-digit (image-like) scenario with an empirical operational profile.

    The OP is skewed towards a few digit classes (as a deployed digit reader
    would see, e.g., postal codes dominated by a region's prefixes).
    """
    rngs = spawn_rngs(rng, 6)
    if operational_priors is None:
        base = np.array([0.30, 0.22, 0.16, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.01])
        operational_priors = base[:num_classes]
    priors = np.asarray(operational_priors, dtype=float)
    priors = priors / priors.sum()

    full = make_glyph_digits(
        num_samples, image_size=image_size, num_classes=num_classes, rng=rngs[0]
    )
    train, test = full.split(0.25, rng=rngs[1])
    model = _train_model(train, hidden_sizes=(64, 32), epochs=epochs, learning_rate=0.005, rng=rngs[2])
    profile = profile_from_dataset(full, class_priors=priors, resample_noise=0.02)
    operational = synthesize_operational_dataset(
        profile, size=800, reference=full, rng=rngs[3]
    )
    naturalness = default_naturalness_scorer(
        train.x, profile=profile, use_autoencoder=True, rng=rngs[4]
    )
    partition = build_partition_for_dataset(
        full.x, scheme="anchor", radius=0.15, max_anchors=300, rng=rngs[5]
    )
    return Scenario(
        name="glyph-digits",
        train_data=train,
        test_data=test,
        operational_data=operational,
        model=model,
        profile=profile,
        naturalness=naturalness,
        partition=partition,
        operational_priors=priors,
    )


_SCENARIOS = {
    "gaussian-clusters": make_clusters_scenario,
    "two-moons": make_moons_scenario,
    "glyph-digits": make_glyph_scenario,
}


def make_scenario(name: str, rng: RngLike = None, **kwargs) -> Scenario:
    """Build a named scenario (``gaussian-clusters``, ``two-moons``, ``glyph-digits``)."""
    if name not in _SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {sorted(_SCENARIOS)}"
        )
    return _SCENARIOS[name](rng=rng, **kwargs)


def available_scenarios() -> list[str]:
    """Names accepted by :func:`make_scenario`."""
    return sorted(_SCENARIOS)


__all__ = [
    "Scenario",
    "make_clusters_scenario",
    "make_moons_scenario",
    "make_glyph_scenario",
    "make_scenario",
    "available_scenarios",
]
