"""Mini-batch trainer for :class:`repro.nn.network.Sequential` networks.

The trainer supports per-sample weights, used by the OP-aware retraining of
RQ4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import RngLike, ensure_rng, require_int
from ..exceptions import ConfigurationError, DataError
from .network import Sequential
from .optimizers import Adam


@dataclass
class TrainerConfig:
    """Hyper-parameters for one call to :meth:`Trainer.fit`."""

    epochs: int = 20
    batch_size: int = 64

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            require_int(name, getattr(self, name))
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")


class Trainer:
    """Fits a :class:`Sequential` network with mini-batch gradient descent.

    Each epoch draws one permutation of the rows from the trainer's
    generator and steps the optimiser once per mini-batch of it.
    """

    def __init__(
        self,
        optimizer: Optional[Adam] = None,
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
    ) -> None:
        """Train ``network`` in place on ``(x, y)``.

        Parameters
        ----------
        network:
            The model to train (modified in place).
        x, y:
            Training inputs and their targets: integer labels (1-D), or
            regression targets shaped like the network output (2-D or more,
            e.g. an autoencoder's inputs).
        sample_weight:
            Optional non-negative per-sample weights; the loss normalises them
            to mean one inside each batch.
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

        n = len(x)
        batch_size = min(self.config.batch_size, n)
        for _ in range(self.config.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_weight = sample_weight[idx] if sample_weight is not None else None
                network.train_step_gradients(x[idx], y[idx], batch_weight)
                self.optimizer.step(network.layers)


__all__ = ["Trainer", "TrainerConfig"]
