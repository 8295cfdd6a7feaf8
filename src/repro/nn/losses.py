"""Loss functions for the numpy neural-network substrate.

Every loss supports optional per-sample weights.  Sample weights are the hook
the paper's RQ4 (operational-profile-aware retraining) needs: detected
operational AEs are mixed into the training set with weights proportional to
their operational-profile density.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import EPSILON
from ..exceptions import ShapeError


def _normalise_sample_weight(
    n: int, sample_weight: Optional[np.ndarray]
) -> np.ndarray:
    """Return per-sample weights that average to one over the batch."""
    if sample_weight is None:
        return np.ones(n)
    weights = np.asarray(sample_weight, dtype=float)
    if weights.shape != (n,):
        raise ShapeError(
            f"sample_weight must have shape ({n},), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ShapeError("sample_weight entries must be non-negative")
    total = weights.sum()
    if total <= 0:
        return np.ones(n)
    return weights * (n / total)


class Loss:
    """Base class for losses operating on raw network outputs (logits)."""

    def forward(
        self,
        predictions: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> float:
        """Return the scalar mean loss for the batch."""
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Return the gradient of the mean loss w.r.t. the predictions."""
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + cross-entropy on integer class labels.

    Fusing the two keeps the backward pass simple and numerically stable:
    ``dL/dlogits = (softmax - onehot) / n`` scaled by the sample weights.
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None

    @staticmethod
    def softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def forward(
        self,
        predictions: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> float:
        if predictions.ndim != 2:
            raise ShapeError(f"logits must be 2-D, got shape {predictions.shape}")
        targets = np.asarray(targets, dtype=int)
        if targets.ndim != 1 or targets.shape[0] != predictions.shape[0]:
            raise ShapeError(
                f"targets must be 1-D with length {predictions.shape[0]}, got {targets.shape}"
            )
        if targets.min(initial=0) < 0 or targets.max(initial=0) >= predictions.shape[1]:
            raise ShapeError("target labels out of range for the given logits")
        n = predictions.shape[0]
        weights = _normalise_sample_weight(n, sample_weight)
        probs = self.softmax(predictions)
        picked = probs[np.arange(n), targets]
        losses = -np.log(np.maximum(picked, EPSILON))
        self._probs = probs
        self._targets = targets
        self._weights = weights
        return float(np.mean(losses * weights))

    def backward(self) -> np.ndarray:
        if self._probs is None:
            raise ShapeError("backward called before forward on SoftmaxCrossEntropy")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._targets] -= 1.0
        grad *= self._weights[:, None]
        return grad / n


class MeanSquaredError(Loss):
    """Mean squared error, used mainly by the naturalness autoencoder."""

    def __init__(self) -> None:
        self._diff: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None

    def forward(
        self,
        predictions: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> float:
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"predictions and targets must match, got {predictions.shape} vs {targets.shape}"
            )
        n = predictions.shape[0]
        weights = _normalise_sample_weight(n, sample_weight)
        self._diff = predictions - targets
        self._weights = weights
        per_sample = np.mean(self._diff**2, axis=tuple(range(1, predictions.ndim)))
        return float(np.mean(per_sample * weights))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise ShapeError("backward called before forward on MeanSquaredError")
        n = self._diff.shape[0]
        per_feature = int(np.prod(self._diff.shape[1:])) or 1
        shape = (n,) + (1,) * (self._diff.ndim - 1)
        return 2.0 * self._diff * self._weights.reshape(shape) / (n * per_feature)


__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError"]
