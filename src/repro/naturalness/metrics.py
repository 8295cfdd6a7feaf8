"""Naturalness scorers: quantified proxies for the "local operational profile".

The paper (Section II.b) concedes that a sound fine-grained OP estimator for
every single input is usually unavailable, and falls back to *quantified
naturalness* as an approximation of the local OP inside each cell.  A
naturalness scorer therefore maps inputs to scores where **higher means more
natural / more likely under operation**.  Scores are calibrated against a
pool of natural data so that different scorers are comparable: a score of 1.0
is the median naturalness of natural data and scores decay towards 0 as the
input leaves the data manifold.

Every scorer computes a log score and exponentiates it only for the linear
default; ``score(x, log=True)`` returns the log itself, so rows whose linear
score underflows to 0 (off the manifold at d = 784) stay distinct and ordered.

Three scorers are provided:

* :class:`DensityNaturalness` — kernel density (or any
  :class:`repro.op.OperationalProfile` density) relative to natural data.
* :class:`ReconstructionNaturalness` — autoencoder reconstruction error
  (:class:`repro.nn.DenseAutoencoder`), a learned manifold-distance proxy.
* :class:`CompositeNaturalness` — unweighted geometric mean of other scorers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..config import EPSILON, RngLike
from ..exceptions import ConfigurationError, NotFittedError, ProfileError
from ..nn.autoencoder import AutoencoderConfig, DenseAutoencoder
from ..op.profile import EmpiricalProfile, OperationalProfile


class NaturalnessScorer:
    """Interface: ``score`` returns per-input naturalness, higher = more natural."""

    def fit(self, natural_x: np.ndarray) -> "NaturalnessScorer":
        """Calibrate the scorer on a pool of natural inputs."""
        raise NotImplementedError

    def score(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        """Return a naturalness score for each row of ``x`` (its log with ``log=True``)."""
        raise NotImplementedError

    @property
    def is_fitted(self) -> bool:
        raise NotImplementedError

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before scoring")


class DensityNaturalness(NaturalnessScorer):
    """Naturalness as (relative) operational density.

    When an operational profile is supplied its density is used directly;
    otherwise a KDE profile is fitted on the calibration pool.  Scores are the
    density relative to the median of the calibration pool, taken in log
    space, so natural inputs score around 1 and off-manifold inputs near 0.
    """

    def __init__(
        self,
        profile: Optional[OperationalProfile] = None,
        bandwidth: Optional[float] = None,
        max_pool: int = 2000,
        rng: RngLike = None,
    ) -> None:
        if max_pool <= 0:
            raise ConfigurationError("max_pool must be positive")
        self._profile = profile
        self._bandwidth = bandwidth
        self._max_pool = max_pool
        self._rng = rng
        self._log_median: Optional[float] = None

    def fit(self, natural_x: np.ndarray) -> "DensityNaturalness":
        natural_x = np.atleast_2d(np.asarray(natural_x, dtype=float))
        if len(natural_x) == 0:
            raise ConfigurationError("cannot calibrate on an empty pool")
        if self._profile is None:
            pool = natural_x
            if len(pool) > self._max_pool:
                from ..config import ensure_rng

                idx = ensure_rng(self._rng).choice(len(pool), self._max_pool, replace=False)
                pool = pool[idx]
            self._profile = EmpiricalProfile(pool, bandwidth=self._bandwidth)
        log_median = float(np.median(self._profile.density(natural_x, log=True)))
        if log_median == -np.inf:
            raise ProfileError("half the calibration pool carries no operational density")
        self._log_median = log_median
        return self

    def score(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        log_score = self._profile.density(x, log=True) - self._log_median
        return log_score if log else np.exp(log_score)

    @property
    def is_fitted(self) -> bool:
        return self._log_median is not None


class ReconstructionNaturalness(NaturalnessScorer):
    """Naturalness from autoencoder reconstruction error.

    The scorer trains a dense autoencoder on natural data and converts the
    reconstruction error ``e(x)`` into a score ``exp(-(e(x) - m) / s)`` where
    ``m`` and ``s`` are the median and scale of natural errors — natural
    inputs score about 1, badly reconstructed inputs decay towards 0.
    """

    def __init__(
        self,
        autoencoder: Optional[DenseAutoencoder] = None,
        config: Optional[AutoencoderConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self._autoencoder = autoencoder
        self._config = config
        self._rng = rng
        self._median_error: Optional[float] = None
        self._scale: Optional[float] = None

    def fit(self, natural_x: np.ndarray) -> "ReconstructionNaturalness":
        natural_x = np.atleast_2d(np.asarray(natural_x, dtype=float))
        if len(natural_x) == 0:
            raise ConfigurationError("cannot calibrate on an empty pool")
        if self._autoencoder is None:
            config = self._config if self._config is not None else AutoencoderConfig(
                hidden_sizes=(min(64, max(8, natural_x.shape[1] // 2)),),
                latent_dim=min(16, max(2, natural_x.shape[1] // 8)),
                epochs=20,
            )
            self._autoencoder = DenseAutoencoder(natural_x.shape[1], config, rng=self._rng)
        if not self._autoencoder.is_fitted:
            self._autoencoder.fit(natural_x)
        errors = self._autoencoder.reconstruction_error(natural_x)
        self._median_error = float(np.median(errors))
        spread = float(np.percentile(errors, 90) - np.percentile(errors, 10))
        self._scale = max(spread, EPSILON, 0.1 * self._median_error)
        return self

    def score(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        self._require_fitted()
        errors = self._autoencoder.reconstruction_error(np.atleast_2d(np.asarray(x, dtype=float)))
        log_score = -(errors - self._median_error) / self._scale
        return log_score if log else np.exp(log_score)

    @property
    def is_fitted(self) -> bool:
        return self._median_error is not None


class CompositeNaturalness(NaturalnessScorer):
    """Unweighted geometric mean of several scorers (the mean of their log scores)."""

    def __init__(self, scorers: Sequence[NaturalnessScorer]) -> None:
        if not scorers:
            raise ConfigurationError("CompositeNaturalness requires at least one scorer")
        self.scorers: List[NaturalnessScorer] = list(scorers)

    def fit(self, natural_x: np.ndarray) -> "CompositeNaturalness":
        for scorer in self.scorers:
            if not scorer.is_fitted:
                scorer.fit(natural_x)
        return self

    def score(self, x: np.ndarray, log: bool = False) -> np.ndarray:
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        log_score = np.mean([scorer.score(x, log=True) for scorer in self.scorers], axis=0)
        return log_score if log else np.exp(log_score)

    @property
    def is_fitted(self) -> bool:
        return all(scorer.is_fitted for scorer in self.scorers)


def default_naturalness_scorer(
    natural_x: np.ndarray,
    profile: Optional[OperationalProfile] = None,
    use_autoencoder: bool = True,
    rng: RngLike = None,
) -> NaturalnessScorer:
    """Build and fit the default naturalness scorer for a dataset.

    Density naturalness is always included (seeded with the OP when given);
    the autoencoder term is added for higher-dimensional (image-like) inputs
    where a learned manifold model is more informative than raw KDE.
    """
    natural_x = np.atleast_2d(np.asarray(natural_x, dtype=float))
    scorers: List[NaturalnessScorer] = [DensityNaturalness(profile=profile, rng=rng)]
    if use_autoencoder and natural_x.shape[1] >= 8:
        scorers.append(ReconstructionNaturalness(rng=rng))
    scorer: NaturalnessScorer
    if len(scorers) == 1:
        scorer = scorers[0]
    else:
        scorer = CompositeNaturalness(scorers)
    return scorer.fit(natural_x)


__all__ = [
    "NaturalnessScorer",
    "DensityNaturalness",
    "ReconstructionNaturalness",
    "CompositeNaturalness",
    "default_naturalness_scorer",
]
