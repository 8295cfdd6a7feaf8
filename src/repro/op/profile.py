"""Operational profile representations.

Musa defines the operational profile (OP) as a probability distribution over
the input domain quantifying how the software will be operated.  The paper
needs three things from an OP: (i) *density* queries (how likely is the
neighbourhood of this input to be exercised in operation), (ii) *sampling*
(draw realistic operational inputs, possibly with labels, to form the
operational dataset of RQ1), and (iii) *cell probabilities* (the OP mass of
every cell of a partition, which the ReAsDL-style reliability model of RQ5
multiplies with per-cell unastuteness).

Several concrete profiles are provided, from exact parametric ground truths
(used by the synthetic benchmarks) to empirical/KDE profiles estimated from
operational data (see :mod:`repro.op.estimation`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import EPSILON, RngLike, ensure_rng, finite_rows, require_finite
from ..data.dataset import Dataset
from ..data.partition import Partition
from ..exceptions import ProfileError, ShapeError


class OperationalProfile:
    """Interface shared by all operational-profile representations."""

    @property
    def num_features(self) -> int:
        """Dimensionality of the input space the profile is defined over."""
        raise NotImplementedError

    def density(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        """The (unnormalised) OP density at each row of ``x``, or its log with ``log``."""
        raise NotImplementedError

    def sample(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``size`` operational inputs."""
        raise NotImplementedError

    def sample_labeled(
        self, size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Draw operational inputs together with labels when the profile has them.

        Profiles that do not carry label information return ``(x, None)``.
        """
        return self.sample(size, rng), None

    def cell_probabilities(
        self,
        partition: Partition,
        num_samples: int = 4096,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Estimate the OP probability of every cell of ``partition``.

        The default implementation is Monte Carlo: draw operational samples
        and histogram them over the cells.  Subclasses with analytic structure
        may override this.
        """
        if num_samples <= 0:
            raise ProfileError("num_samples must be positive")
        samples = self.sample(num_samples, rng)
        cell_ids = partition.assign(samples)
        counts = np.bincount(cell_ids, minlength=partition.num_cells).astype(float)
        total = counts.sum()
        if total <= 0:
            raise ProfileError("cell probability estimation produced no samples")
        return counts / total

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a 2-D float array; :class:`DataError` names a non-finite row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"profile expects {self.num_features} features, got {x.shape[1]}"
            )
        return finite_rows(x)


def relative_density(log_density: np.ndarray, log_reference: np.ndarray) -> np.ndarray:
    """Each row's density over the mean density of the reference rows, from logs.

    ``exp(log_density - log mean exp(log_reference))`` stays finite where the
    linear densities overflow (a KDE at d = 784).  A reference without OP
    mass has no mean to divide by: :class:`ProfileError`.
    """
    log_reference = np.asarray(log_reference, dtype=float)
    peak = np.max(log_reference, initial=-np.inf)
    if peak == -np.inf:
        raise ProfileError("the reference rows carry no operational density")
    log_mean = peak + np.log(np.mean(np.exp(log_reference - peak)))
    return np.exp(np.asarray(log_density, dtype=float) - log_mean)


class GaussianMixtureProfile(OperationalProfile):
    """OP represented as a Gaussian mixture with diagonal covariances.

    This is the exact ground-truth profile of the Gaussian-cluster benchmark
    and the workhorse parametric estimate for everything else.  Components may
    optionally carry class labels, making the profile label-aware.
    """

    def __init__(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        variances: np.ndarray,
        component_labels: Optional[np.ndarray] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        means = np.atleast_2d(np.asarray(means, dtype=float))
        variances = np.atleast_2d(np.asarray(variances, dtype=float))
        if weights.ndim != 1:
            raise ProfileError("weights must be a 1-D array")
        if len(weights) != len(means) or len(weights) != len(variances):
            raise ProfileError("weights, means and variances must have equal length")
        if means.shape != variances.shape:
            raise ProfileError("means and variances must have the same shape")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ProfileError("component weights must be non-negative with positive sum")
        if np.any(variances <= 0):
            raise ProfileError("variances must be strictly positive")
        self.weights = weights / weights.sum()
        self.means = means
        self.variances = variances
        if component_labels is not None:
            component_labels = np.asarray(component_labels, dtype=int)
            if component_labels.shape != (len(weights),):
                raise ProfileError("component_labels must have one entry per component")
        self.component_labels = component_labels

    @property
    def num_features(self) -> int:
        return self.means.shape[1]

    @property
    def num_components(self) -> int:
        return len(self.weights)

    def _log_joint(self, x: np.ndarray) -> np.ndarray:
        """Return log(w_k N(x | mean_k, var_k)) for every (row, component) pair."""
        x = self._check_input(x)
        diff = x[:, None, :] - self.means[None, :, :]
        inv_var = 1.0 / self.variances[None, :, :]
        log_det = np.sum(np.log(self.variances), axis=1)
        quad = np.sum(diff**2 * inv_var, axis=2)
        d = self.num_features
        log_comp = -0.5 * (quad + log_det[None, :] + d * np.log(2 * np.pi))
        return log_comp + np.log(np.maximum(self.weights, EPSILON))[None, :]

    def density(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        stacked = self._log_joint(x)
        peak = stacked.max(axis=1)
        total = np.sum(np.exp(stacked - peak[:, None]), axis=1)
        return peak + np.log(total) if log else np.exp(peak) * total

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component membership probabilities for each row of ``x``."""
        stacked = self._log_joint(x)
        stacked -= stacked.max(axis=1, keepdims=True)
        probs = np.exp(stacked)
        return probs / probs.sum(axis=1, keepdims=True)

    def sample(self, size: int, rng: RngLike = None) -> np.ndarray:
        x, _ = self.sample_labeled(size, rng)
        return x

    def sample_labeled(
        self, size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if size <= 0:
            raise ProfileError("sample size must be positive")
        generator = ensure_rng(rng)
        components = generator.choice(self.num_components, size=size, p=self.weights)
        noise = generator.normal(size=(size, self.num_features))
        x = self.means[components] + noise * np.sqrt(self.variances[components])
        x = np.clip(x, 0.0, 1.0)
        if self.component_labels is None:
            return x, None
        return x, self.component_labels[components]

    def class_prior(self, num_classes: int) -> np.ndarray:
        """Marginal class distribution implied by labelled components."""
        if self.component_labels is None:
            raise ProfileError("this profile has no component labels")
        prior = np.zeros(num_classes)
        for weight, label in zip(self.weights, self.component_labels):
            if not 0 <= label < num_classes:
                raise ProfileError(f"component label {label} out of range")
            prior[label] += weight
        return prior


class EmpiricalProfile(OperationalProfile):
    """OP represented by a weighted pool of operational samples.

    Density queries use a Gaussian kernel density estimate over the pool;
    sampling draws pool rows (with replacement) proportionally to their
    weights and optionally adds resampling noise ("smoothed bootstrap") so the
    synthesised operational dataset is not a verbatim copy of the pool.
    """

    def __init__(
        self,
        samples: np.ndarray,
        labels: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        bandwidth: Optional[float] = None,
        resample_noise: float = 0.0,
    ) -> None:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if len(samples) == 0:
            raise ProfileError("EmpiricalProfile requires at least one sample")
        self.samples = samples
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (len(samples),):
                raise ProfileError("labels must align with samples")
        self.labels = labels
        if weights is None:
            weights = np.full(len(samples), 1.0 / len(samples))
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(samples),):
                raise ProfileError("weights must align with samples")
            if np.any(weights < 0) or weights.sum() <= 0:
                raise ProfileError("weights must be non-negative with positive sum")
            weights = weights / weights.sum()
        self.weights = weights
        if bandwidth is None:
            bandwidth = self._scott_bandwidth(samples)
        require_finite("bandwidth", bandwidth, ProfileError)
        if bandwidth <= 0:
            raise ProfileError("bandwidth must be positive")
        self.bandwidth = float(bandwidth)
        # ||s||^2 of every pool row, the fixed half of density's distance expansion
        self._sq_norms = np.einsum("ij,ij->i", samples, samples)
        require_finite("resample_noise", resample_noise, ProfileError)
        if resample_noise < 0:
            raise ProfileError("resample_noise must be non-negative")
        self.resample_noise = float(resample_noise)

    @staticmethod
    def _scott_bandwidth(samples: np.ndarray) -> float:
        n, d = samples.shape
        spread = float(np.mean(np.std(samples, axis=0)))
        if spread <= 0:
            spread = 0.1
        return max(spread * n ** (-1.0 / (d + 4)), 1e-3)

    @property
    def num_features(self) -> int:
        return self.samples.shape[1]

    def density(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        """Gaussian KDE over the pool, with one isotropic bandwidth ``h``.

        Squared distances use the expansion ``||x||^2 + ||s||^2 - 2 x.s``
        (scikit-learn's ``euclidean_distances``): one matrix product per
        block of 256 rows, clamped at zero against cancellation.  A row's
        density therefore depends, in its last bits, on the rows that share
        its call: a row scored alone and inside a block agree to a relative
        ``16 eps (||x||^2 + max ||s||^2) / h^2`` (measured: under 1e-12 at
        d = 144 and the Scott bandwidth).  The same rows in the same call
        give the same bits, as the model forward does at equal batch size.
        """
        x = self._check_input(x)
        h2 = self.bandwidth**2
        d = self.num_features
        log_norm = -0.5 * d * np.log(2 * np.pi * h2)
        densities = np.zeros(len(x))
        block = 256
        for start in range(0, len(x), block):
            chunk = x[start : start + block]
            sq_dist = (
                np.einsum("ij,ij->i", chunk, chunk)[:, None]
                + self._sq_norms[None, :]
                - 2.0 * (chunk @ self.samples.T)
            )
            np.maximum(sq_dist, 0.0, out=sq_dist)
            log_kernel = log_norm - 0.5 * sq_dist / h2
            peak = log_kernel.max(axis=1)
            total = (self.weights[None, :] * np.exp(log_kernel - peak[:, None])).sum(axis=1)
            densities[start : start + block] = peak + np.log(total) if log else np.exp(peak) * total
        return densities

    def sample(self, size: int, rng: RngLike = None) -> np.ndarray:
        x, _ = self.sample_labeled(size, rng)
        return x

    def sample_labeled(
        self, size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if size <= 0:
            raise ProfileError("sample size must be positive")
        generator = ensure_rng(rng)
        indices = generator.choice(len(self.samples), size=size, p=self.weights)
        x = self.samples[indices].copy()
        if self.resample_noise > 0:
            x = np.clip(
                x + generator.normal(0.0, self.resample_noise, size=x.shape), 0.0, 1.0
            )
        labels = self.labels[indices] if self.labels is not None else None
        return x, labels

    def class_prior(self, num_classes: int) -> np.ndarray:
        """Weighted class frequencies of the pool."""
        if self.labels is None:
            raise ProfileError("this profile has no labels")
        prior = np.zeros(num_classes)
        np.add.at(prior, self.labels, self.weights)
        total = prior.sum()
        return prior / total if total > 0 else np.full(num_classes, 1.0 / num_classes)


class CellProfile(OperationalProfile):
    """OP given directly as a probability per cell of a fixed partition."""

    def __init__(self, partition: Partition, probabilities: np.ndarray) -> None:
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (partition.num_cells,):
            raise ProfileError(
                f"probabilities must have shape ({partition.num_cells},), "
                f"got {probabilities.shape}"
            )
        if np.any(probabilities < 0) or probabilities.sum() <= 0:
            raise ProfileError("cell probabilities must be non-negative with positive sum")
        self.partition = partition
        self.probabilities = probabilities / probabilities.sum()

    @property
    def num_features(self) -> int:
        return self.partition.num_features

    def density(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        x = self._check_input(x)
        probabilities = self.probabilities[self.partition.assign(x)]
        with np.errstate(divide="ignore"):  # a cell without mass: log 0 = -inf
            return np.log(probabilities) if log else probabilities

    def sample(self, size: int, rng: RngLike = None) -> np.ndarray:
        if size <= 0:
            raise ProfileError("sample size must be positive")
        generator = ensure_rng(rng)
        cells = generator.choice(self.partition.num_cells, size=size, p=self.probabilities)
        unique, counts = np.unique(cells, return_counts=True)
        rows = [
            self.partition.sample_in_cell(int(cell), int(count), generator)
            for cell, count in zip(unique, counts)
        ]
        samples = np.concatenate(rows, axis=0)
        return samples[generator.permutation(len(samples))]

    def cell_probabilities(
        self,
        partition: Partition,
        num_samples: int = 4096,
        rng: RngLike = None,
    ) -> np.ndarray:
        if partition is self.partition:
            return self.probabilities.copy()
        return super().cell_probabilities(partition, num_samples, rng)


def ground_truth_profile_for_clusters(
    num_classes: int,
    num_features: int,
    cluster_std: float,
    class_priors: Optional[Sequence[float]] = None,
) -> GaussianMixtureProfile:
    """Exact OP of :func:`repro.data.make_gaussian_clusters` with the same parameters."""
    if class_priors is None:
        weights = np.full(num_classes, 1.0 / num_classes)
    else:
        weights = np.asarray(class_priors, dtype=float)
        if weights.shape != (num_classes,):
            raise ProfileError("class_priors must have one entry per class")
        weights = weights / weights.sum()
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    means = np.full((num_classes, num_features), 0.5)
    means[:, 0] = 0.5 + 0.3 * np.cos(angles)
    means[:, 1] = 0.5 + 0.3 * np.sin(angles)
    variances = np.full((num_classes, num_features), cluster_std**2)
    return GaussianMixtureProfile(
        weights, means, variances, component_labels=np.arange(num_classes)
    )


def profile_from_dataset(
    dataset: Dataset,
    class_priors: Optional[Sequence[float]] = None,
    resample_noise: float = 0.01,
) -> EmpiricalProfile:
    """Build an empirical OP from a dataset, optionally reweighting classes.

    This is the standard way to define a *ground-truth* operational profile
    for the image-like benchmarks: take natural samples and impose the class
    frequencies observed (or expected) in operation.
    """
    if class_priors is None:
        weights = np.full(len(dataset), 1.0 / max(len(dataset), 1))
    else:
        priors = np.asarray(class_priors, dtype=float)
        if priors.shape != (dataset.num_classes,):
            raise ProfileError("class_priors must have one entry per class")
        if np.any(priors < 0) or priors.sum() <= 0:
            raise ProfileError("class_priors must be non-negative with positive sum")
        priors = priors / priors.sum()
        counts = dataset.class_counts().astype(float)
        weights = np.zeros(len(dataset))
        for label in range(dataset.num_classes):
            members = dataset.indices_of_class(label)
            if len(members) == 0:
                continue
            weights[members] = priors[label] / counts[label]
    return EmpiricalProfile(
        dataset.x, labels=dataset.y, weights=weights, resample_noise=resample_noise
    )


__all__ = [
    "OperationalProfile",
    "relative_density",
    "GaussianMixtureProfile",
    "EmpiricalProfile",
    "CellProfile",
    "ground_truth_profile_for_clusters",
    "profile_from_dataset",
]
