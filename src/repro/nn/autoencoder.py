"""Dense autoencoder used as a learned naturalness model.

The paper's RQ3 needs a *quantified naturalness* score as a proxy for the
local operational profile inside a cell.  One standard proxy is the
reconstruction error of an autoencoder trained on natural (operational) data:
inputs close to the data manifold reconstruct well, off-manifold perturbations
reconstruct poorly.  :class:`repro.naturalness.autoencoder` wraps this class
into a scorer; here we only provide the model, trained by
:class:`repro.nn.trainer.Trainer` with its own inputs as regression targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import RngLike, ensure_rng, require_finite, require_int, spawn_rngs
from ..exceptions import ConfigurationError, NotFittedError
from .layers import Dense, ReLU, Sigmoid
from .losses import MeanSquaredError
from .network import Sequential
from .optimizers import Adam
from .trainer import Trainer, TrainerConfig


@dataclass
class AutoencoderConfig:
    """Architecture and training hyper-parameters for :class:`DenseAutoencoder`."""

    hidden_sizes: Sequence[int] = (32,)
    latent_dim: int = 8
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("latent_dim", "epochs", "batch_size"):
            require_int(name, getattr(self, name))
        for width in self.hidden_sizes:
            require_int("hidden_sizes", width)
        require_finite("learning_rate", self.learning_rate)
        if self.latent_dim <= 0:
            raise ConfigurationError("latent_dim must be positive")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigurationError("hidden sizes must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")


class DenseAutoencoder:
    """Symmetric dense autoencoder trained with mean squared error."""

    def __init__(
        self,
        input_dim: int,
        config: Optional[AutoencoderConfig] = None,
        rng: RngLike = None,
    ) -> None:
        if input_dim <= 0:
            raise ConfigurationError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = input_dim
        self.config = config if config is not None else AutoencoderConfig()
        self._rng = ensure_rng(rng)
        self.network = self._build_network()
        self._fitted = False

    def _build_network(self) -> Sequential:
        cfg = self.config
        widths = list(cfg.hidden_sizes)
        encoder_dims = [self.input_dim] + widths + [cfg.latent_dim]
        decoder_dims = [cfg.latent_dim] + widths[::-1] + [self.input_dim]
        rngs = spawn_rngs(self._rng, len(encoder_dims) + len(decoder_dims))
        layers = []
        rng_index = 0
        for previous, width in zip(encoder_dims[:-1], encoder_dims[1:]):
            layers.append(Dense(previous, width, rng=rngs[rng_index]))
            layers.append(ReLU())
            rng_index += 1
        for previous, width in zip(decoder_dims[:-1], decoder_dims[1:-1]):
            layers.append(Dense(previous, width, rng=rngs[rng_index]))
            layers.append(ReLU())
            rng_index += 1
        layers.append(Dense(decoder_dims[-2], decoder_dims[-1], rng=rngs[rng_index]))
        layers.append(Sigmoid())
        return Sequential(layers, loss=MeanSquaredError())

    def fit(self, x: np.ndarray) -> "DenseAutoencoder":
        """Train the autoencoder to reconstruct the rows of ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"expected training data of shape (n, {self.input_dim}), got {x.shape}"
            )
        cfg = self.config
        trainer = Trainer(
            Adam(cfg.learning_rate),
            TrainerConfig(epochs=cfg.epochs, batch_size=cfg.batch_size),
            rng=self._rng,
        )
        trainer.fit(self.network, x, x)
        self._fitted = True
        return self

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Return the autoencoder reconstruction of each row of ``x``."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.network.forward(x)

    def reconstruction_error(self, x: np.ndarray) -> np.ndarray:
        """Per-sample mean squared reconstruction error (lower = more natural)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        recon = self.reconstruct(x)
        return np.mean((recon - x) ** 2, axis=1)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("DenseAutoencoder.fit must be called first")

    @property
    def is_fitted(self) -> bool:
        return self._fitted


__all__ = ["DenseAutoencoder", "AutoencoderConfig"]
