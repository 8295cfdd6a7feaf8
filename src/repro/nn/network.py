"""Sequential network container with input-gradient support.

The container chains layers, exposes the :class:`repro.types.Classifier`
protocol (``predict``, ``predict_proba``, ``loss_input_gradient``), and keeps
the loss object alongside the layers so attacks and the fuzzer can ask for the
gradient of the loss with respect to an *input* — the key primitive of RQ3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import DEFAULT_DTYPE
from ..exceptions import ConfigurationError, ShapeError
from .layers import Layer
from .losses import Loss, SoftmaxCrossEntropy


class Sequential:
    """A feed-forward stack of layers trained against a single loss.

    Parameters
    ----------
    layers:
        Ordered layers.  The final layer is expected to emit logits when the
        loss is :class:`SoftmaxCrossEntropy` (the default).
    loss:
        Loss object used by :meth:`compute_loss` and by
        :meth:`loss_input_gradient`.
    """

    def __init__(self, layers: Sequence[Layer], loss: Optional[Loss] = None) -> None:
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss: Loss = loss if loss is not None else SoftmaxCrossEntropy()

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the full forward pass and return the final layer output (logits)."""
        if (
            isinstance(x, np.ndarray)
            and x.dtype == DEFAULT_DTYPE
            and x.flags["C_CONTIGUOUS"]
        ):
            out = x
        else:
            # one conversion that also guarantees contiguity for the matmuls
            out = np.ascontiguousarray(x, dtype=DEFAULT_DTYPE)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate a gradient through every layer, returning dL/dx."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------ #
    # Classifier protocol
    # ------------------------------------------------------------------ #
    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Return raw logits for a batch (no softmax applied)."""
        return self.forward(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Return softmax class probabilities, shape ``(n, num_classes)``."""
        logits = self.predict_logits(x)
        return SoftmaxCrossEntropy.softmax(logits)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return the predicted class label for each input."""
        return self.predict_logits(x).argmax(axis=1)

    def compute_loss(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> float:
        """Return the mean loss of the network on ``(x, y)``."""
        logits = self.forward(x)
        return self.loss.forward(logits, y, sample_weight=sample_weight)

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to the inputs ``x``.

        This is the primitive used by FGSM/PGD and by the gradient-guidance
        term of the operational fuzzer.  The returned array has the same shape
        as ``x`` (a leading batch axis is added and removed transparently for
        single inputs).
        """
        x_arr = np.asarray(x, dtype=DEFAULT_DTYPE)
        single = x_arr.ndim == 1
        batch = x_arr[None, :] if single else x_arr
        y_arr = np.atleast_1d(np.asarray(y, dtype=int))
        logits = self.forward(batch)
        self.loss.forward(logits, y_arr)
        grad = self.backward(self.loss.backward())
        return grad[0] if single else grad

    # ------------------------------------------------------------------ #
    # training-step plumbing (used by the Trainer)
    # ------------------------------------------------------------------ #
    def train_step_gradients(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> float:
        """Run forward + backward, leaving parameter gradients in the layers."""
        logits = self.forward(x)
        value = self.loss.forward(logits, y, sample_weight=sample_weight)
        self.backward(self.loss.backward())
        return value

    # ------------------------------------------------------------------ #
    # weights access / cloning
    # ------------------------------------------------------------------ #
    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Return a deep copy of every layer's parameters (one dict per layer)."""
        return [
            {name: param.copy() for name, param in layer.parameters().items()}
            for layer in self.layers
        ]

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ShapeError(
                f"expected weights for {len(self.layers)} layers, got {len(weights)}"
            )
        for layer, layer_weights in zip(self.layers, weights):
            params = layer.parameters()
            if set(params) != set(layer_weights):
                raise ShapeError(
                    f"parameter names mismatch for {type(layer).__name__}: "
                    f"{sorted(params)} vs {sorted(layer_weights)}"
                )
            for name, value in layer_weights.items():
                if params[name].shape != value.shape:
                    raise ShapeError(
                        f"shape mismatch for {type(layer).__name__}.{name}: "
                        f"{params[name].shape} vs {value.shape}"
                    )
                params[name][...] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


__all__ = ["Sequential"]
