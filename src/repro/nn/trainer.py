"""Mini-batch trainer for :class:`repro.nn.network.Sequential` networks.

The trainer supports per-sample weights (used by the OP-aware retraining of
RQ4), validation tracking, early stopping and an optional per-epoch callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..config import RngLike, ensure_rng
from ..exceptions import ConfigurationError, DataError
from .metrics import accuracy
from .network import Sequential
from .optimizers import Adam, Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch record of losses and accuracies produced by :class:`Trainer`."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)

    def best_val_accuracy(self) -> float:
        """Best validation accuracy seen (0 when no validation data was used)."""
        return max(self.val_accuracy) if self.val_accuracy else 0.0


@dataclass
class TrainerConfig:
    """Hyper-parameters for one call to :meth:`Trainer.fit`."""

    epochs: int = 20
    batch_size: int = 64
    shuffle: bool = True
    early_stopping_patience: Optional[int] = None
    min_delta: float = 1e-4
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.early_stopping_patience is not None and self.early_stopping_patience <= 0:
            raise ConfigurationError("early_stopping_patience must be positive when set")
        if self.min_delta < 0:
            raise ConfigurationError("min_delta must be non-negative")


class Trainer:
    """Fits a :class:`Sequential` network with mini-batch gradient descent."""

    def __init__(
        self,
        optimizer: Optional[Optimizer] = None,
        config: Optional[TrainerConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.optimizer = optimizer if optimizer is not None else Adam()
        self.config = config if config is not None else TrainerConfig()
        self._rng = ensure_rng(rng)

    def fit(
        self,
        network: Sequential,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        epoch_callback: Optional[Callable[[int, TrainingHistory], None]] = None,
    ) -> TrainingHistory:
        """Train ``network`` on ``(x, y)`` and return the training history.

        Parameters
        ----------
        network:
            The model to train (modified in place).
        x, y:
            Training inputs and their targets: integer labels (1-D), or
            regression targets shaped like the network output (2-D or more,
            e.g. an autoencoder's inputs), for which no accuracy is recorded.
        sample_weight:
            Optional non-negative per-sample weights; the loss normalises them
            to mean one inside each batch.
        x_val, y_val:
            Optional validation split, used for the history and early stopping.
        epoch_callback:
            Called as ``epoch_callback(epoch_index, history)`` after each epoch.
        """
        x = np.asarray(x, dtype=float)
        regression = np.ndim(y) >= 2
        y = np.asarray(y, dtype=float if regression else int)
        if x.ndim != 2:
            raise DataError(f"training inputs must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise DataError("x and y must have the same number of rows")
        if len(x) == 0:
            raise DataError("cannot train on an empty dataset")
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if sample_weight.shape != (len(x),):
                raise DataError("sample_weight must be one weight per training row")
        has_validation = x_val is not None and y_val is not None

        history = TrainingHistory()
        best_val_loss = np.inf
        epochs_without_improvement = 0
        n = len(x)
        batch_size = min(self.config.batch_size, n)

        for epoch in range(self.config.epochs):
            order = self._rng.permutation(n) if self.config.shuffle else np.arange(n)
            epoch_losses: List[float] = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_weight = sample_weight[idx] if sample_weight is not None else None
                loss_value = network.train_step_gradients(x[idx], y[idx], batch_weight)
                self.optimizer.step(network.layers)
                epoch_losses.append(loss_value)

            train_loss = float(np.mean(epoch_losses))
            history.train_loss.append(train_loss)
            if not regression:
                history.train_accuracy.append(accuracy(y, network.predict(x)))

            if has_validation:
                val_loss = network.compute_loss(x_val, y_val)
                history.val_loss.append(val_loss)
                if not regression:
                    history.val_accuracy.append(
                        accuracy(np.asarray(y_val, dtype=int), network.predict(x_val))
                    )
            else:
                val_loss = train_loss

            if self.config.verbose:  # pragma: no cover - console output only
                accuracy_note = (
                    "" if regression else f" acc={history.train_accuracy[-1]:.4f}"
                )
                print(
                    f"epoch {epoch + 1}/{self.config.epochs} "
                    f"loss={train_loss:.4f}{accuracy_note}"
                )

            if epoch_callback is not None:
                epoch_callback(epoch, history)

            if self.config.early_stopping_patience is not None:
                if val_loss < best_val_loss - self.config.min_delta:
                    best_val_loss = val_loss
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.config.early_stopping_patience:
                        break

        network.mark_trained()
        return history

    def evaluate(
        self, network: Sequential, x: np.ndarray, y: np.ndarray
    ) -> Dict[str, float]:
        """Return loss and accuracy of ``network`` on a held-out set."""
        y = np.asarray(y, dtype=int)
        return {
            "loss": network.compute_loss(x, y),
            "accuracy": accuracy(y, network.predict(x)),
        }


__all__ = ["Trainer", "TrainerConfig", "TrainingHistory"]
