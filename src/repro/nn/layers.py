"""Neural-network layers with explicit forward/backward passes.

Each layer implements :meth:`Layer.forward` and :meth:`Layer.backward`; the
backward pass receives the gradient of the loss with respect to the layer's
output and returns the gradient with respect to its input, accumulating
parameter gradients along the way.  This manual-backprop design is all the
paper's machinery needs: attacks and the fuzzer only require gradients of the
loss with respect to the *input*, which falls out of the same chain.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..config import DEFAULT_DTYPE, RngLike, ensure_rng
from ..exceptions import ConfigurationError, ShapeError


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``grad_output`` (dL/d output) back to dL/d input."""
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Return the layer's trainable parameters keyed by name."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Return gradients matching :meth:`parameters` after a backward pass."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected affine layer ``y = x W + b``.

    ``W`` is drawn from ``normal(0, sqrt(2 / out_features))`` and ``b``
    starts at zero.  He et al.'s scale divides by the fan-in
    (``in_features``); this one divides by the fan-out, so a wide input
    layer starts larger than He's (``Dense(144, 64)``: 0.177 against
    0.118).  Changing the scale would change every trained model.
    """

    def __init__(self, in_features: int, out_features: int, rng: RngLike = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Dense dimensions must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = ensure_rng(rng).normal(
            0.0, np.sqrt(2.0 / out_features), size=(in_features, out_features)
        ).astype(DEFAULT_DTYPE)
        self.bias = np.zeros(out_features, dtype=DEFAULT_DTYPE)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense expected input of shape (n, {self.in_features}), got {x.shape}"
            )
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ShapeError("backward called before forward on Dense layer")
        self.grad_weight = self._input.T @ grad_output
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._output * (1.0 - self._output)


__all__ = ["Layer", "Dense", "ReLU", "Sigmoid"]
