"""Retraining the model on detected operational AEs (RQ4).

The paper asks for an "enhanced adversarial training approach [that] considers
both the OP and the detected operational AEs, while being light-weight".  Two
trainers are provided:

* :class:`OperationalRetrainer` — the proposed light-weight scheme: fine-tune
  the existing model on the original training data mixed with the detected
  operational AEs, where sample weights encode the operational profile (both
  for the natural data and for the AEs, via their seed's OP density).  No new
  attack queries are spent during retraining.
* :class:`StandardAdversarialTrainer` — the OP-ignorant baseline (Madry-style
  adversarial training): every mini-batch is replaced by PGD adversarial
  counterparts before the gradient step, with uniform weighting.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..attacks.gradient import PGD
from ..config import EPSILON, RngLike, ensure_rng, require_bool, require_finite, require_int
from ..data.dataset import Dataset
from ..exceptions import ConfigurationError, DataError
from ..nn.network import Sequential
from ..nn.optimizers import Adam
from ..nn.trainer import Trainer, TrainerConfig
from ..op.profile import OperationalProfile, relative_density
from ..types import AdversarialExample


@dataclass
class RetrainingConfig:
    """Hyper-parameters shared by the retraining schemes.

    Attributes
    ----------
    epochs:
        Fine-tuning epochs.
    batch_size:
        Mini-batch size.
    learning_rate:
        Learning rate of the Adam fine-tuning optimiser (kept small so the
        model is adjusted, not re-learned from scratch).
    ae_replication:
        How many copies of each detected AE are injected into the fine-tuning
        set (replication is the light-weight alternative to loss re-weighting
        when only a handful of AEs were found).
    ae_weight_boost:
        Multiplier applied to the sample weight of injected AEs on top of
        their OP-derived weight.
    weight_natural_data_by_op:
        Whether the original training data is re-weighted by the OP density
        (aligning the training distribution with operation) or kept uniform.
    """

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 5e-4
    ae_replication: int = 3
    ae_weight_boost: float = 2.0
    weight_natural_data_by_op: bool = True

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "ae_replication"):
            require_int(name, getattr(self, name))
        for name in ("learning_rate", "ae_weight_boost"):
            require_finite(name, getattr(self, name))
        require_bool("weight_natural_data_by_op", self.weight_natural_data_by_op)
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.ae_replication <= 0:
            raise ConfigurationError("ae_replication must be positive")
        if self.ae_weight_boost <= 0:
            raise ConfigurationError("ae_weight_boost must be positive")


class OperationalRetrainer:
    """OP-aware fine-tuning on detected operational adversarial examples."""

    def __init__(
        self,
        config: Optional[RetrainingConfig] = None,
        profile: Optional[OperationalProfile] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config if config is not None else RetrainingConfig()
        self.profile = profile
        self._rng = ensure_rng(rng)

    def retrain(
        self,
        network: Sequential,
        train_data: Dataset,
        adversarial_examples: Sequence[AdversarialExample],
        in_place: bool = False,
        log_density: Optional[np.ndarray] = None,
    ) -> Sequential:
        """Return a retrained copy of ``network`` (or modify it in place).

        Parameters
        ----------
        network:
            The model under test.
        train_data:
            The original training dataset.
        adversarial_examples:
            Operational AEs detected by the fuzzer; each is injected with its
            true label and an OP-derived sample weight.
        in_place:
            When ``True`` the passed network is fine-tuned directly; otherwise
            a deep copy is trained and returned, leaving the original intact.
        log_density:
            Log OP density of every row of ``train_data`` under the
            retrainer's ``profile``, from one ``profile.density(train_data.x,
            log=True)`` call.  A caller that retrains repeatedly on the same
            data passes it so it is evaluated once; it is read only when the
            natural data is weighted by the OP, and evaluated here when
            omitted.
        """
        if len(train_data) == 0:
            raise DataError("cannot retrain on an empty training set")
        model = network if in_place else copy.deepcopy(network)
        x, y, weights = self._build_training_mix(
            train_data, adversarial_examples, log_density
        )
        trainer = Trainer(
            optimizer=Adam(learning_rate=self.config.learning_rate),
            config=TrainerConfig(
                epochs=self.config.epochs,
                batch_size=self.config.batch_size,
            ),
            rng=self._rng,
        )
        # retraining owns the network's parameters — whitebox by definition,
        # and trainer queries are not part of the detection budget
        trainer.fit(model, x, y, sample_weight=weights)  # repro: allow[engine-funnel]
        return model

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _natural_weights(
        self, train_data: Dataset, log_density: Optional[np.ndarray]
    ) -> np.ndarray:
        if self.profile is None or not self.config.weight_natural_data_by_op:
            return np.ones(len(train_data))
        if log_density is None:
            log_density = self.profile.density(train_data.x, log=True)
        elif np.shape(log_density) != (len(train_data),):
            raise DataError(
                f"log_density has shape {np.shape(log_density)}; expected one "
                f"entry per training row, ({len(train_data)},)"
            )
        # keep a floor so no natural sample is entirely forgotten
        return np.maximum(relative_density(log_density, log_density), 0.1)

    def _ae_weights(
        self, adversarial_examples: Sequence[AdversarialExample]
    ) -> np.ndarray:
        raw = np.asarray(
            [ae.op_density if ae.op_density is not None else 1.0 for ae in adversarial_examples],
            dtype=float,
        )
        if len(raw) == 0:
            return raw
        mean = max(float(raw.mean()), EPSILON)
        return self.config.ae_weight_boost * np.maximum(raw / mean, 0.1)

    def _build_training_mix(
        self,
        train_data: Dataset,
        adversarial_examples: Sequence[AdversarialExample],
        log_density: Optional[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs: List[np.ndarray] = [train_data.x]
        ys: List[np.ndarray] = [train_data.y]
        ws: List[np.ndarray] = [self._natural_weights(train_data, log_density)]
        if adversarial_examples:
            ae_x = np.stack([np.asarray(ae.perturbed, dtype=float) for ae in adversarial_examples])
            ae_y = np.asarray([ae.true_label for ae in adversarial_examples], dtype=int)
            ae_w = self._ae_weights(adversarial_examples)
            for _ in range(self.config.ae_replication):
                xs.append(ae_x)
                ys.append(ae_y)
                ws.append(ae_w)
        return (
            np.concatenate(xs, axis=0),
            np.concatenate(ys, axis=0),
            np.concatenate(ws, axis=0),
        )


class StandardAdversarialTrainer:
    """Madry-style adversarial training baseline (OP-ignorant).

    Every epoch, each training batch is replaced by PGD adversarial examples
    generated on the fly, and the network is updated on those.  This is the
    "existing methods ignore the OP information" comparator of RQ4.
    """

    def __init__(
        self,
        epsilon: float = 0.1,
        pgd_steps: int = 5,
        epochs: int = 5,
        batch_size: int = 64,
        learning_rate: float = 5e-4,
        rng: RngLike = None,
    ) -> None:
        for name, count in (
            ("epochs", epochs),
            ("batch_size", batch_size),
            ("pgd_steps", pgd_steps),
        ):
            require_int(name, count)
        require_finite("learning_rate", learning_rate)
        if epochs <= 0 or batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        self.attack = PGD(epsilon=epsilon, num_steps=pgd_steps, early_stop=False)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self._rng = ensure_rng(rng)

    def retrain(
        self,
        network: Sequential,
        train_data: Dataset,
        adversarial_examples: Sequence[AdversarialExample] = (),
        in_place: bool = False,
    ) -> Sequential:
        """Adversarially retrain ``network`` (detected AEs are ignored by design)."""
        if len(train_data) == 0:
            raise DataError("cannot retrain on an empty training set")
        model = network if in_place else copy.deepcopy(network)
        optimizer = Adam(learning_rate=self.learning_rate)
        n = len(train_data)
        batch_size = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_x = train_data.x[idx]
                batch_y = train_data.y[idx]
                result = self.attack.run(model, batch_x, batch_y, rng=self._rng)
                model.train_step_gradients(result.adversarial_x, batch_y)
                optimizer.step(model.layers)
        return model


__all__ = ["RetrainingConfig", "OperationalRetrainer", "StandardAdversarialTrainer"]
