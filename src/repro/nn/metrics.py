"""Classification metrics used by the reliability assessor, seed weights and examples."""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> None:
    if y_true.shape != y_pred.shape:
        raise ShapeError(
            f"y_true and y_pred must have the same shape, got {y_true.shape} vs {y_pred.shape}"
        )


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of predictions equal to the ground truth."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    _check_pair(y_true, y_pred)
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def weighted_accuracy(
    y_true: np.ndarray, y_pred: np.ndarray, weights: np.ndarray
) -> float:
    """Accuracy where each sample counts with a non-negative weight.

    This is *operational accuracy* when the weights are operational-profile
    densities: it estimates the probability that the model handles a randomly
    drawn operational input correctly.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    weights = np.asarray(weights, dtype=float)
    _check_pair(y_true, y_pred)
    if weights.shape != y_true.shape:
        raise ShapeError("weights must match the label arrays in shape")
    if np.any(weights < 0):
        raise ShapeError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        return 0.0
    return float(np.sum((y_true == y_pred) * weights) / total)


def prediction_margin(probs: np.ndarray, y_true: np.ndarray) -> np.ndarray:
    """Margin = p(true class) - max p(other class); negative means misclassified."""
    probs = np.asarray(probs, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    if probs.ndim != 2 or probs.shape[0] != y_true.shape[0]:
        raise ShapeError("probs must be (n, k) matching y_true length")
    n = probs.shape[0]
    true_probs = probs[np.arange(n), y_true]
    masked = probs.copy()
    masked[np.arange(n), y_true] = -np.inf
    best_other = masked.max(axis=1)
    return true_probs - best_other


__all__ = ["accuracy", "weighted_accuracy", "prediction_margin"]
