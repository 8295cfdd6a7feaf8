"""Tests for repro.config."""

import numpy as np
import pytest

from repro.config import (
    clip01,
    ensure_rng,
    require_bool,
    require_finite,
    require_int,
    spawn_rngs,
    spawn_seeds,
)
from repro.attacks import FGSM, PGD, BoundaryNudge, GaussianNoise, RandomFuzz
from repro.core import WorkflowConfig
from repro.exceptions import (
    AttackError,
    ConfigurationError,
    FuzzingError,
    ProfileError,
    ReliabilityError,
    SamplingError,
)
from repro.fuzzing import FuzzerConfig
from repro.nn import Adam, AutoencoderConfig, TrainerConfig
from repro.op import EmpiricalProfile
from repro.reliability import StoppingRule
from repro.retraining import RetrainingConfig, StandardAdversarialTrainer
from repro.runtime import ExecutionPolicy
from repro.sampling import OperationalSeedSampler


def _empirical_profile(**kwargs):
    return EmpiricalProfile(np.random.default_rng(0).random((20, 3)), **kwargs)


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed_accepted(self):
        assert isinstance(ensure_rng(np.int64(5)), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_rng(-1)

    def test_invalid_type_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        assert not np.allclose(children[0].random(10), children[1].random(10))

    def test_deterministic_given_seed(self):
        a = [g.random() for g in spawn_rngs(7, 3)]
        b = [g.random() for g in spawn_rngs(7, 3)]
        np.testing.assert_allclose(a, b)

    def test_children_are_built_from_spawn_seeds(self):
        # a caller that builds only some children from spawn_seeds gets the
        # very streams spawn_rngs would have given it
        parent_a, parent_b = np.random.default_rng(11), np.random.default_rng(11)
        seeds = spawn_seeds(parent_a, 4)
        children = spawn_rngs(parent_b, 4)
        for i in (3, 1):
            child = np.random.default_rng(int(seeds[i]))
            assert child.bit_generator.state == children[i].bit_generator.state
        assert parent_a.bit_generator.state == parent_b.bit_generator.state
        with pytest.raises(ConfigurationError):
            spawn_seeds(0, -1)


class TestClip01:
    def test_clips_below(self):
        assert clip01(np.array([-0.5])) == pytest.approx(0.0)

    def test_clips_above(self):
        assert clip01(np.array([1.7])) == pytest.approx(1.0)

    def test_interior_unchanged(self):
        values = np.array([0.0, 0.3, 1.0])
        np.testing.assert_allclose(clip01(values), values)


class TestRequireInt:
    def test_accepts_python_ints(self):
        require_int("count", 0)
        require_int("count", -3)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_rejects_everything_else_with_the_callers_error(self, value):
        with pytest.raises(ConfigurationError, match="count must be an integer"):
            require_int("count", value)
        with pytest.raises(FuzzingError, match="count must be an integer"):
            require_int("count", value, FuzzingError)

    # a fractional count reached range() in Trainer.fit as a TypeError, and
    # epochs=True silently trained one epoch
    @pytest.mark.parametrize(
        "config_cls,field,error",
        [
            (TrainerConfig, "epochs", ConfigurationError),
            (TrainerConfig, "batch_size", ConfigurationError),
            (AutoencoderConfig, "latent_dim", ConfigurationError),
            (AutoencoderConfig, "epochs", ConfigurationError),
            (AutoencoderConfig, "batch_size", ConfigurationError),
            (RetrainingConfig, "epochs", ConfigurationError),
            (RetrainingConfig, "batch_size", ConfigurationError),
            (RetrainingConfig, "ae_replication", ConfigurationError),
            (StandardAdversarialTrainer, "epochs", ConfigurationError),
            (StandardAdversarialTrainer, "batch_size", ConfigurationError),
            (StandardAdversarialTrainer, "pgd_steps", ConfigurationError),
        ],
    )
    def test_config_counts_reject_non_integers(self, config_cls, field, error):
        for value in (2.5, 2.0, True, "2"):
            with pytest.raises(error, match=f"{field} must be an integer, got"):
                config_cls(**{field: value})
        config_cls(**{field: 3})


class TestRequireBool:
    def test_accepts_python_bools(self):
        require_bool("flag", True)
        require_bool("flag", False)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_rejects_everything_else_with_the_callers_error(self, value):
        with pytest.raises(ConfigurationError, match="flag must be a bool"):
            require_bool("flag", value)
        with pytest.raises(FuzzingError, match="flag must be a bool"):
            require_bool("flag", value, FuzzingError)

    # a spec's "false" is a non-empty, truthy string: accepted, it would
    # switch the flag on
    @pytest.mark.parametrize(
        "config_cls,field,error",
        [
            (FuzzerConfig, "use_gradient", FuzzingError),
            (StoppingRule, "conservative", ReliabilityError),
            (WorkflowConfig, "reassess_with_monte_carlo", ConfigurationError),
            (ExecutionPolicy, "cache", ConfigurationError),
            (ExecutionPolicy, "telemetry", ConfigurationError),
            (RetrainingConfig, "weight_natural_data_by_op", ConfigurationError),
        ],
    )
    def test_config_flags_reject_non_bools(self, config_cls, field, error):
        for value in ("false", 0, None):
            with pytest.raises(error, match=f"{field} must be a bool, got"):
                config_cls(**{field: value})
        for value in (True, False):
            assert getattr(config_cls(**{field: value}), field) is value


class TestRequireFinite:
    @pytest.mark.parametrize(
        "value", [0, -3, 0.5, np.int64(4), np.float32(0.25), np.float64(2.0)]
    )
    def test_accepts_python_and_numpy_reals(self, value):
        require_finite("weight", value)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), np.float32("nan"), True, "0.5", None],
    )
    def test_rejects_everything_else_with_the_callers_error(self, value):
        with pytest.raises(ConfigurationError, match="weight must be a finite number"):
            require_finite("weight", value)
        with pytest.raises(FuzzingError, match="weight must be a finite number"):
            require_finite("weight", value, FuzzingError)

    # NaN fails every comparison, so a range check alone lets it through:
    # naturalness_threshold=nan would silently run the unconstrained ablation
    @pytest.mark.parametrize(
        "config_cls,field,error",
        [
            (FuzzerConfig, "epsilon", FuzzingError),
            (FuzzerConfig, "naturalness_threshold", FuzzingError),
            (FuzzerConfig, "loss_weight", FuzzingError),
            (FuzzerConfig, "naturalness_weight", FuzzingError),
            (FuzzerConfig, "gradient_probability", FuzzingError),
            (FuzzerConfig, "min_energy", FuzzingError),
            (FuzzerConfig, "max_energy", FuzzingError),
            (StoppingRule, "target_pmi", ReliabilityError),
            # FGSM(epsilon=nan) reported NaN rows as successes
            (FGSM, "epsilon", AttackError),
            (PGD, "epsilon", AttackError),
            (PGD, "step_size", AttackError),
            (RandomFuzz, "epsilon", AttackError),
            (GaussianNoise, "epsilon", AttackError),
            (BoundaryNudge, "epsilon", AttackError),
            # a NaN bandwidth made every density NaN; a NaN resample_noise
            # meant no noise, an infinite one clipped samples to a corner
            (_empirical_profile, "bandwidth", ProfileError),
            (_empirical_profile, "resample_noise", ProfileError),
            (OperationalSeedSampler, "op_exponent", SamplingError),
            (OperationalSeedSampler, "failure_exponent", SamplingError),
            # Adam(learning_rate=nan) turned every weight NaN on its first step
            (Adam, "learning_rate", ConfigurationError),
            (Adam, "beta1", ConfigurationError),
            (Adam, "beta2", ConfigurationError),
            (Adam, "eps", ConfigurationError),
            (AutoencoderConfig, "learning_rate", ConfigurationError),
            (RetrainingConfig, "learning_rate", ConfigurationError),
            (RetrainingConfig, "ae_weight_boost", ConfigurationError),
            (StandardAdversarialTrainer, "learning_rate", ConfigurationError),
        ],
    )
    def test_config_reals_reject_non_finite_values(self, config_cls, field, error):
        for value in (float("nan"), float("inf"), -float("inf"), True):
            with pytest.raises(error, match=f"{field} must be a finite number, got"):
                config_cls(**{field: value})
        default = getattr(config_cls(), field)
        assert getattr(config_cls(**{field: np.float64(default)}), field) == default
