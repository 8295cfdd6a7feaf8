"""Operational profile (OP) modelling, estimation, synthesis and drift.

Implements RQ1 of the paper: representing the OP, learning it from operational
data, synthesising an operational dataset from it, measuring its divergence
from the training distribution, and detecting post-deployment drift.
"""

from .divergence import (
    empirical_distribution,
    hellinger_distance,
    js_divergence,
    kl_divergence,
    profile_divergence,
    total_variation,
)
from .drift import DriftDetector, DriftReport, OperationScenario
from .estimation import (
    FrequencyProfileEstimator,
    GMMProfileEstimator,
    KDEProfileEstimator,
    ProfileEstimator,
)
from .profile import (
    CellProfile,
    EmpiricalProfile,
    GaussianMixtureProfile,
    OperationalProfile,
    ground_truth_profile_for_clusters,
    profile_from_dataset,
    relative_density,
)
from .synthesis import OperationalDatasetSynthesizer, synthesize_operational_dataset

__all__ = [
    "empirical_distribution",
    "hellinger_distance",
    "js_divergence",
    "kl_divergence",
    "profile_divergence",
    "total_variation",
    "DriftDetector",
    "DriftReport",
    "OperationScenario",
    "FrequencyProfileEstimator",
    "GMMProfileEstimator",
    "KDEProfileEstimator",
    "ProfileEstimator",
    "CellProfile",
    "EmpiricalProfile",
    "GaussianMixtureProfile",
    "OperationalProfile",
    "ground_truth_profile_for_clusters",
    "profile_from_dataset",
    "relative_density",
    "OperationalDatasetSynthesizer",
    "synthesize_operational_dataset",
]
