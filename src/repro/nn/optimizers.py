"""The Adam optimiser for the numpy neural-network substrate."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..config import require_finite
from ..exceptions import ConfigurationError
from .layers import Layer


class Adam:
    """Adam optimiser (Kingma & Ba, 2015): updates layer parameters in place."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        for name, value in (
            ("learning_rate", learning_rate),
            ("beta1", beta1),
            ("beta2", beta2),
            ("eps", eps),
        ):
            require_finite(name, value)
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must be in [0, 1)")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state: Dict[Tuple[int, str], Dict[str, np.ndarray]] = {}
        self._step_count = 0

    def step(self, layers: List[Layer]) -> None:
        """Apply one update to every parameter of ``layers``."""
        self._step_count += 1
        for layer_index, layer in enumerate(layers):
            grads = layer.gradients()
            for name, param in layer.parameters().items():
                self._update_param((layer_index, name), param, grads[name])

    def _update_param(
        self, key: Tuple[int, str], param: np.ndarray, grad: np.ndarray
    ) -> None:
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = {
                "m": np.zeros_like(param),
                "v": np.zeros_like(param),
            }
        m, v = state["m"], state["v"]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        m_hat = m / (1 - self.beta1**self._step_count)
        v_hat = v / (1 - self.beta2**self._step_count)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


__all__ = ["Adam"]
