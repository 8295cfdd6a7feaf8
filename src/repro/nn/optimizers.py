"""First-order optimisers for the numpy neural-network substrate."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .layers import Layer


class Optimizer:
    """Base class: updates layer parameters in place from their gradients."""

    def __init__(self, learning_rate: float = 0.01, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._state: Dict[Tuple[int, str], Dict[str, np.ndarray]] = {}
        self._step_count = 0

    def step(self, layers: List[Layer]) -> None:
        """Apply one update to every trainable layer in ``layers``."""
        self._step_count += 1
        for layer_index, layer in enumerate(layers):
            if not layer.trainable:
                continue
            params = layer.parameters()
            grads = layer.gradients()
            for name, param in params.items():
                grad = grads[name]
                if self.weight_decay > 0 and name != "bias":
                    grad = grad + self.weight_decay * param
                key = (layer_index, name)
                self._update_param(key, param, grad)

    def _update_param(
        self, key: Tuple[int, str], param: np.ndarray, grad: np.ndarray
    ) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any accumulated state (momentum buffers, moment estimates)."""
        self._state.clear()
        self._step_count = 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if nesterov and momentum == 0.0:
            raise ConfigurationError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov

    def _update_param(
        self, key: Tuple[int, str], param: np.ndarray, grad: np.ndarray
    ) -> None:
        if self.momentum == 0.0:
            param -= self.learning_rate * grad
            return
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = {"velocity": np.zeros_like(param)}
        velocity = state["velocity"]
        velocity *= self.momentum
        velocity -= self.learning_rate * grad
        if self.nesterov:
            param += self.momentum * velocity - self.learning_rate * grad
        else:
            param += velocity


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must be in [0, 1)")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

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


class RMSProp(Optimizer):
    """RMSProp optimiser with exponential moving average of squared gradients."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        rho: float = 0.9,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {rho}")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.rho = rho
        self.eps = eps

    def _update_param(
        self, key: Tuple[int, str], param: np.ndarray, grad: np.ndarray
    ) -> None:
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = {"avg_sq": np.zeros_like(param)}
        avg_sq = state["avg_sq"]
        avg_sq *= self.rho
        avg_sq += (1 - self.rho) * grad**2
        param -= self.learning_rate * grad / (np.sqrt(avg_sq) + self.eps)


def optimizer_from_name(name: str, **kwargs) -> Optimizer:
    """Create an optimiser from its lowercase name."""
    table = {"sgd": SGD, "adam": Adam, "rmsprop": RMSProp}
    if name not in table:
        raise ConfigurationError(
            f"unknown optimizer {name!r}; expected one of {sorted(table)}"
        )
    return table[name](**kwargs)


__all__ = ["Optimizer", "SGD", "Adam", "RMSProp", "optimizer_from_name"]
