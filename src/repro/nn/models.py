"""The classifier every scenario, experiment and example trains.

:func:`build_mlp_classifier` builds a ReLU multi-layer perceptron over
flattened inputs: the low-dimensional synthetic benchmarks and the glyph
images alike.
"""

from __future__ import annotations

from typing import Sequence

from ..config import RngLike, spawn_rngs
from ..exceptions import ConfigurationError
from .layers import Dense, ReLU
from .losses import SoftmaxCrossEntropy
from .network import Sequential


def build_mlp_classifier(
    input_dim: int,
    num_classes: int,
    hidden_sizes: Sequence[int] = (64, 32),
    rng: RngLike = None,
) -> Sequential:
    """Build a multi-layer perceptron classifier emitting logits.

    Parameters
    ----------
    input_dim:
        Number of (flattened) input features.
    num_classes:
        Number of output classes.
    hidden_sizes:
        Width of each hidden layer, in order.
    rng:
        Seed or generator controlling weight initialisation.  It draws
        ``2 * len(hidden_sizes) + 1`` child seeds: hidden layer ``i`` is
        initialised from child ``2 * i`` and the output layer from the last.
        Callers that go on to train with the same generator depend on the
        length of this draw.
    """
    if input_dim <= 0 or num_classes <= 1:
        raise ConfigurationError(
            f"need input_dim > 0 and num_classes > 1, got {input_dim}, {num_classes}"
        )
    rngs = spawn_rngs(rng, 2 * len(hidden_sizes) + 1)
    layers = []
    previous = input_dim
    for index, width in enumerate(hidden_sizes):
        if width <= 0:
            raise ConfigurationError(f"hidden layer width must be positive, got {width}")
        layers.append(Dense(previous, width, rng=rngs[2 * index]))
        layers.append(ReLU())
        previous = width
    layers.append(Dense(previous, num_classes, rng=rngs[-1]))
    return Sequential(layers, loss=SoftmaxCrossEntropy())


__all__ = ["build_mlp_classifier"]
