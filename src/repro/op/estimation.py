"""Learning the operational profile from operational data (RQ1).

In operation, the deployed model sees a stream of inputs whose distribution —
the operational profile — usually differs from the balanced training set.
RQ1 asks how to learn that profile effectively.  Three estimators are
provided, in increasing order of structure:

* :class:`FrequencyProfileEstimator` — estimates only the class prior from
  (pseudo-)labels and reuses natural per-class data for the conditional; the
  classic Musa-style OP over operation modes.
* :class:`KDEProfileEstimator` — non-parametric kernel density estimate over
  the raw inputs.
* :class:`GMMProfileEstimator` — a diagonal-covariance Gaussian mixture fitted
  with expectation–maximisation.

All estimators return an :class:`repro.op.profile.OperationalProfile`, so the
rest of the pipeline is agnostic to how the OP was obtained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import EPSILON, RngLike, ensure_rng
from ..data.dataset import Dataset
from ..exceptions import ConvergenceError, DataError, ProfileError
from ..types import Classifier

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle:
    # runtime.policy reaches this module via engine → naturalness → op)
    from ..runtime.policy import ExecutionPolicy
from .profile import EmpiricalProfile, GaussianMixtureProfile, OperationalProfile


class ProfileEstimator:
    """Interface of operational-profile estimators."""

    def fit(self, x: np.ndarray, labels: Optional[np.ndarray] = None) -> OperationalProfile:
        """Estimate an OP from operational inputs ``x`` (labels optional)."""
        raise NotImplementedError


@dataclass
class FrequencyProfileEstimator(ProfileEstimator):
    """Class-frequency OP: estimate the operational class prior, reuse natural data.

    Parameters
    ----------
    reference:
        A labelled dataset of natural inputs providing the within-class
        conditional distribution (typically the existing training/test data).
    model:
        Optional classifier used to pseudo-label unlabeled operational inputs.
        Queried through the ``policy`` funnel, so pseudo-labelling is batched,
        cache-aware and visible in the campaign's ``QueryStats``.
    policy:
        Execution policy used to build the query engine over ``model``; the
        default in-process policy is used when ``None``.  A ``model`` that is
        already an engine passes through unchanged.
    smoothing:
        Additive (Laplace) smoothing applied to the class counts, so classes
        unseen in the operational sample keep a small positive probability.
    resample_noise:
        Smoothed-bootstrap noise for the resulting empirical profile.
    """

    reference: Dataset
    model: Optional[Classifier] = None
    policy: Optional["ExecutionPolicy"] = None
    smoothing: float = 1.0
    resample_noise: float = 0.01

    def fit(self, x: np.ndarray, labels: Optional[np.ndarray] = None) -> EmpiricalProfile:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(x) == 0:
            raise DataError("cannot estimate an operational profile from zero samples")
        if self.smoothing < 0:
            raise ProfileError("smoothing must be non-negative")
        if labels is None:
            if self.model is None:
                raise ProfileError(
                    "FrequencyProfileEstimator needs labels or a model for pseudo-labels"
                )
            from ..runtime.policy import ExecutionPolicy

            policy = self.policy if self.policy is not None else ExecutionPolicy()
            engine = policy.build_engine(self.model)
            labels = np.asarray(engine.predict(x), dtype=int)
        else:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (len(x),):
                raise DataError("labels must align with the operational inputs")
        counts = np.bincount(labels, minlength=self.reference.num_classes).astype(float)
        priors = counts + self.smoothing
        priors = priors / priors.sum()

        counts_ref = self.reference.class_counts().astype(float)
        weights = np.zeros(len(self.reference))
        for label in range(self.reference.num_classes):
            members = self.reference.indices_of_class(label)
            if len(members) == 0:
                continue
            weights[members] = priors[label] / counts_ref[label]
        return EmpiricalProfile(
            self.reference.x,
            labels=self.reference.y,
            weights=weights,
            resample_noise=self.resample_noise,
        )


@dataclass
class KDEProfileEstimator(ProfileEstimator):
    """Kernel density estimate of the OP over raw operational inputs.

    Parameters
    ----------
    bandwidth:
        Kernel bandwidth; ``None`` uses Scott's rule.
    max_samples:
        Operational samples retained in the KDE pool (subsampled beyond this,
        keeping density queries affordable).
    resample_noise:
        Smoothed-bootstrap noise used when sampling from the fitted profile;
        defaults to the bandwidth when ``None``.
    """

    bandwidth: Optional[float] = None
    max_samples: int = 2000
    resample_noise: Optional[float] = None
    rng: RngLike = None

    def fit(self, x: np.ndarray, labels: Optional[np.ndarray] = None) -> EmpiricalProfile:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(x) == 0:
            raise DataError("cannot estimate an operational profile from zero samples")
        if self.max_samples <= 0:
            raise ProfileError("max_samples must be positive")
        generator = ensure_rng(self.rng)
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (len(x),):
                raise DataError("labels must align with the operational inputs")
        if len(x) > self.max_samples:
            idx = generator.choice(len(x), size=self.max_samples, replace=False)
            x = x[idx]
            labels = labels[idx] if labels is not None else None
        profile = EmpiricalProfile(x, labels=labels, bandwidth=self.bandwidth)
        noise = self.resample_noise if self.resample_noise is not None else profile.bandwidth
        profile.resample_noise = float(noise)
        return profile


@dataclass
class GMMProfileEstimator(ProfileEstimator):
    """Diagonal-covariance Gaussian mixture fitted with EM.

    Parameters
    ----------
    num_components:
        Number of mixture components.
    max_iterations:
        EM iteration cap.
    tolerance:
        Relative log-likelihood improvement below which EM stops.
    min_variance:
        Variance floor preventing degenerate components.
    num_restarts:
        Independent EM restarts; the best log-likelihood wins.
    """

    num_components: int = 4
    max_iterations: int = 200
    tolerance: float = 1e-5
    min_variance: float = 1e-4
    num_restarts: int = 2
    rng: RngLike = None

    def fit(self, x: np.ndarray, labels: Optional[np.ndarray] = None) -> GaussianMixtureProfile:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(x) < self.num_components:
            raise DataError(
                f"need at least {self.num_components} samples to fit "
                f"{self.num_components} components, got {len(x)}"
            )
        if self.num_components <= 0:
            raise ProfileError("num_components must be positive")
        if self.max_iterations <= 0 or self.num_restarts <= 0:
            raise ProfileError("max_iterations and num_restarts must be positive")
        generator = ensure_rng(self.rng)
        best: Optional[GaussianMixtureProfile] = None
        best_ll = -np.inf
        last_error: Optional[Exception] = None
        for _ in range(self.num_restarts):
            try:
                profile, ll = self._fit_once(x, generator)
            except ConvergenceError as exc:  # keep trying other restarts
                last_error = exc
                continue
            if ll > best_ll:
                best_ll = ll
                best = profile
        if best is None:
            raise ConvergenceError(
                f"EM failed to converge in {self.num_restarts} restarts"
            ) from last_error
        if labels is not None:
            best = self._attach_labels(best, x, np.asarray(labels, dtype=int))
        return best

    def _fit_once(
        self, x: np.ndarray, generator: np.random.Generator
    ) -> tuple[GaussianMixtureProfile, float]:
        n, d = x.shape
        k = self.num_components
        indices = generator.choice(n, size=k, replace=False)
        means = x[indices].copy()
        variances = np.full((k, d), max(float(np.var(x)), self.min_variance))
        weights = np.full(k, 1.0 / k)

        previous_ll = -np.inf
        for _ in range(self.max_iterations):
            profile = GaussianMixtureProfile(weights, means, variances)
            responsibilities = profile.responsibilities(x)
            ll = float(np.mean(profile.density(x, log=True)))

            effective = responsibilities.sum(axis=0)
            if np.any(effective < EPSILON):
                # re-seed dead components at random data points
                dead = effective < EPSILON
                means[dead] = x[generator.choice(n, size=int(dead.sum()))]
                variances[dead] = max(float(np.var(x)), self.min_variance)
                weights = np.full(k, 1.0 / k)
                continue

            weights = effective / n
            means = (responsibilities.T @ x) / effective[:, None]
            diff_sq = (x[:, None, :] - means[None, :, :]) ** 2
            variances = np.einsum("nk,nkd->kd", responsibilities, diff_sq) / effective[:, None]
            variances = np.maximum(variances, self.min_variance)

            if np.isfinite(previous_ll) and abs(ll - previous_ll) < self.tolerance * (
                abs(previous_ll) + EPSILON
            ):
                previous_ll = ll
                break
            previous_ll = ll
        if not np.isfinite(previous_ll):
            raise ConvergenceError("EM log-likelihood did not become finite")
        return GaussianMixtureProfile(weights, means, variances), previous_ll

    @staticmethod
    def _attach_labels(
        profile: GaussianMixtureProfile, x: np.ndarray, labels: np.ndarray
    ) -> GaussianMixtureProfile:
        """Label each component with the majority label of its members."""
        if labels.shape != (len(x),):
            raise DataError("labels must align with the operational inputs")
        responsibilities = profile.responsibilities(x)
        assignment = responsibilities.argmax(axis=1)
        component_labels = np.zeros(profile.num_components, dtype=int)
        for component in range(profile.num_components):
            members = labels[assignment == component]
            if len(members) == 0:
                component_labels[component] = int(np.bincount(labels).argmax())
            else:
                component_labels[component] = int(np.bincount(members).argmax())
        return GaussianMixtureProfile(
            profile.weights, profile.means, profile.variances, component_labels
        )


__all__ = [
    "ProfileEstimator",
    "FrequencyProfileEstimator",
    "KDEProfileEstimator",
    "GMMProfileEstimator",
]
