"""Numpy deep-learning substrate used by the operational-AE testing pipeline.

The package provides what the paper's loop trains and queries: a ReLU
multi-layer perceptron classifier with full backpropagation (including
gradients with respect to inputs), losses with per-sample weights, the Adam
optimiser, a mini-batch trainer and a dense autoencoder for naturalness
scoring.
"""

from .autoencoder import AutoencoderConfig, DenseAutoencoder
from .layers import Dense, Layer, ReLU, Sigmoid
from .losses import Loss, MeanSquaredError, SoftmaxCrossEntropy
from .metrics import accuracy, prediction_margin, weighted_accuracy
from .models import build_mlp_classifier
from .network import Sequential
from .optimizers import Adam
from .trainer import Trainer, TrainerConfig

__all__ = [
    "AutoencoderConfig",
    "DenseAutoencoder",
    "Dense",
    "Layer",
    "ReLU",
    "Sigmoid",
    "Loss",
    "MeanSquaredError",
    "SoftmaxCrossEntropy",
    "accuracy",
    "prediction_margin",
    "weighted_accuracy",
    "build_mlp_classifier",
    "Sequential",
    "Adam",
    "Trainer",
    "TrainerConfig",
]
