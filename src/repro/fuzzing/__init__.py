"""Naturalness-guided fuzzing for operational adversarial examples (RQ3)."""

from .fuzzer import (
    EXECUTION_MODES,
    FuzzCampaignResult,
    FuzzerConfig,
    OperationalFuzzer,
    SeedFuzzResult,
)
from .mutations import (
    BatchMutationContext,
    GaussianMutation,
    GradientMutation,
    InterpolationMutation,
    MutationContext,
    MutationOperator,
    SparseMutation,
    default_operators,
)

__all__ = [
    "BatchMutationContext",
    "EXECUTION_MODES",
    "FuzzCampaignResult",
    "FuzzerConfig",
    "OperationalFuzzer",
    "SeedFuzzResult",
    "GaussianMutation",
    "GradientMutation",
    "InterpolationMutation",
    "MutationContext",
    "MutationOperator",
    "SparseMutation",
    "default_operators",
]
