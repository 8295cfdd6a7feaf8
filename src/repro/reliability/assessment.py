"""Delivered-reliability assessment (RQ5).

The headline statistic is the **probability of misclassification per input
(pmi)** under the operational profile:

    pmi = sum over cells  OP(cell) * unastuteness(cell)

where the per-cell unastuteness comes either from the empirical evidence
(:class:`repro.reliability.cells.CellEvidenceTable`) or from its conservative
Bayesian treatment (:mod:`repro.reliability.bayesian`).  The assessor also
reports operational accuracy (1 - pmi under the point estimate), a
conservative upper bound on pmi, and drives the stopping rule of the testing
loop: testing may stop when the conservative pmi bound falls below the
reliability target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import RngLike, ensure_rng, require_bool, require_finite, require_int
from ..data.dataset import Dataset
from ..data.partition import Partition
from ..exceptions import ReliabilityError
from ..nn.metrics import accuracy
from ..op.profile import OperationalProfile
from ..runtime.policy import ExecutionPolicy, policy_or_default
from ..types import Classifier
from .bayesian import BayesianCellModel, BetaPrior, check_confidence
from .cells import CellEvidenceTable, CellRobustnessEvaluator


@dataclass
class ReliabilityEstimate:
    """Point and interval estimates of the delivered reliability.

    Attributes
    ----------
    pmi:
        Point estimate of the probability of misclassification per input.
    pmi_upper:
        Conservative upper bound on pmi at ``confidence``.
    pmi_lower:
        Optimistic lower bound on pmi at ``confidence``.
    operational_accuracy:
        ``1 - pmi`` (point estimate).
    confidence:
        One-sided confidence level of the bounds.
    cells_evaluated:
        Number of cells with at least one trial.
    total_op_mass_evaluated:
        OP probability mass of the evaluated cells (coverage of the OP).
    queries:
        Model queries spent collecting the evidence.
    """

    pmi: float
    pmi_upper: float
    pmi_lower: float
    operational_accuracy: float
    confidence: float
    cells_evaluated: int
    total_op_mass_evaluated: float
    queries: int = 0

    def meets_target(self, target_pmi: float, conservative: bool = True) -> bool:
        """Whether the estimate satisfies a reliability requirement on pmi."""
        if target_pmi <= 0:
            raise ReliabilityError("target_pmi must be positive")
        value = self.pmi_upper if conservative else self.pmi
        return value <= target_pmi

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (the run registry's estimates format)."""
        return {
            "pmi": self.pmi,
            "pmi_upper": self.pmi_upper,
            "pmi_lower": self.pmi_lower,
            "operational_accuracy": self.operational_accuracy,
            "confidence": self.confidence,
            "cells_evaluated": self.cells_evaluated,
            "total_op_mass_evaluated": self.total_op_mass_evaluated,
            "queries": self.queries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReliabilityEstimate":
        """Rebuild an estimate saved with :meth:`to_dict` (exact round-trip)."""
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ReliabilityError(
                f"unknown ReliabilityEstimate fields: {sorted(unknown)}"
            )
        return cls(**data)


@dataclass
class StoppingRule:
    """Stopping rule of the testing regime (part of RQ5).

    Testing stops when the (conservative) pmi estimate meets the target, or
    when the campaign exhausts ``max_iterations`` or ``max_test_cases``.
    ``target_pmi`` must be a finite number, both caps Python ``int`` (not
    ``bool``), and ``conservative`` a ``bool``.
    """

    target_pmi: float = 0.02
    confidence: float = 0.90
    conservative: bool = True
    max_iterations: int = 10
    max_test_cases: Optional[int] = None

    def __post_init__(self) -> None:
        require_finite("target_pmi", self.target_pmi, ReliabilityError)
        if self.target_pmi <= 0:
            raise ReliabilityError("target_pmi must be positive")
        check_confidence(self.confidence)
        require_bool("conservative", self.conservative, ReliabilityError)
        require_int("max_iterations", self.max_iterations, ReliabilityError)
        if self.max_iterations <= 0:
            raise ReliabilityError("max_iterations must be positive")
        if self.max_test_cases is not None:
            require_int("max_test_cases", self.max_test_cases, ReliabilityError)
            if self.max_test_cases <= 0:
                raise ReliabilityError("max_test_cases must be positive when set")

    def should_stop(
        self,
        estimate: ReliabilityEstimate,
        iteration: int,
        test_cases_used: int,
    ) -> bool:
        """Decide whether the testing loop should stop after this iteration."""
        if estimate.meets_target(self.target_pmi, conservative=self.conservative):
            return True
        if iteration + 1 >= self.max_iterations:
            return True
        if self.max_test_cases is not None and test_cases_used >= self.max_test_cases:
            return True
        return False


class ReliabilityAssessor:
    """Cell-based reliability assessor in the style of ReAsDL.

    Parameters
    ----------
    partition:
        Cell partition of the input space.
    profile:
        Operational profile supplying the per-cell weights.
    evaluator:
        Collector of per-cell robustness evidence; a default one is built from
        the partition when omitted.
    prior:
        Beta prior for the conservative Bayesian treatment.
    confidence:
        One-sided credible level of the reported bounds.
    op_samples:
        Monte Carlo samples used to discretise the profile onto the partition
        (an ``int``).
    policy:
        :class:`~repro.runtime.ExecutionPolicy` for evidence collection
        (threaded into the default evaluator and the Monte Carlo estimator).
        Estimates are bit-identical across policies.
    """

    def __init__(
        self,
        partition: Partition,
        profile: OperationalProfile,
        evaluator: Optional[CellRobustnessEvaluator] = None,
        prior: Optional[BetaPrior] = None,
        confidence: float = 0.90,
        op_samples: int = 4096,
        policy: Optional[ExecutionPolicy] = None,
        rng: RngLike = None,
    ) -> None:
        check_confidence(confidence)
        require_int("op_samples", op_samples, ReliabilityError)
        self.policy = policy_or_default(
            policy, ExecutionPolicy(), "ReliabilityAssessor", ReliabilityError
        )
        self.partition = partition
        self.profile = profile
        self.evaluator = (
            evaluator
            if evaluator is not None
            else CellRobustnessEvaluator(
                partition,
                samples_per_cell=10,
                policy=self.policy,
            )
        )
        self.bayes = BayesianCellModel(prior=prior)
        self.confidence = confidence
        self._rng = ensure_rng(rng)
        self._cell_probs = profile.cell_probabilities(
            partition, num_samples=op_samples, rng=self._rng
        )

    # ------------------------------------------------------------------ #
    # assessment
    # ------------------------------------------------------------------ #
    @property
    def cell_probabilities(self) -> np.ndarray:
        """OP probability of every cell (cached at construction)."""
        return self._cell_probs.copy()

    def assess_from_evidence(self, table: CellEvidenceTable) -> ReliabilityEstimate:
        """Turn a cell-evidence table into a reliability estimate."""
        if table.partition is not self.partition:
            if table.partition.num_cells != self.partition.num_cells:
                raise ReliabilityError("evidence table uses an incompatible partition")
        weights = self._cell_probs
        point = self.bayes.posterior_means(table)
        upper = self.bayes.posterior_upper_bounds(table, self.confidence)
        lower = self.bayes.posterior_lower_bounds(table, self.confidence)
        pmi = float(np.dot(weights, point))
        pmi_upper = float(np.dot(weights, upper))
        pmi_lower = float(np.dot(weights, lower))
        evaluated = table.trials_vector() > 0
        return ReliabilityEstimate(
            pmi=pmi,
            pmi_upper=pmi_upper,
            pmi_lower=pmi_lower,
            operational_accuracy=1.0 - pmi,
            confidence=self.confidence,
            cells_evaluated=int(evaluated.sum()),
            total_op_mass_evaluated=float(weights[evaluated].sum()),
            queries=table.queries,
        )

    def assess(
        self,
        model: Classifier,
        reference: Dataset,
        rng: RngLike = None,
    ) -> ReliabilityEstimate:
        """Collect fresh evidence for ``model`` and assess its reliability."""
        table = self.evaluator.evaluate(model, reference, rng=rng or self._rng)
        return self.assess_from_evidence(table)

    # ------------------------------------------------------------------ #
    # complementary estimators
    # ------------------------------------------------------------------ #
    def operational_accuracy_monte_carlo(
        self,
        model: Classifier,
        reference: Dataset,
        num_samples: int = 1000,
        rng: RngLike = None,
    ) -> float:
        """Directly estimate operational accuracy by sampling the OP.

        Samples are labelled by nearest-neighbour transfer from ``reference``;
        this estimator is an independent cross-check of ``1 - pmi``.
        """
        if num_samples <= 0:
            raise ReliabilityError("num_samples must be positive")
        from scipy.spatial import cKDTree

        generator = ensure_rng(rng or self._rng)
        samples = self.profile.sample(num_samples, generator)
        tree = cKDTree(reference.x)
        _, indices = tree.query(samples)
        labels = reference.y[indices]
        query_engine = self.policy.build_engine(model)
        return accuracy(labels, np.asarray(query_engine.predict(samples)))

    def identify_weak_cells(
        self, table: CellEvidenceTable, top_k: int = 10
    ) -> List[int]:
        """Cells contributing most to pmi (OP mass x conservative unastuteness).

        These are the cells the next testing iteration should prioritise —
        this is the feedback loop from step 5 back to steps 2 and 3 in
        Figure 1.
        """
        if top_k <= 0:
            raise ReliabilityError("top_k must be positive")
        upper = self.bayes.posterior_upper_bounds(table, self.confidence)
        contribution = self._cell_probs * upper
        order = np.argsort(contribution)[::-1]
        return [int(c) for c in order[:top_k] if contribution[c] > 0]


__all__ = ["ReliabilityEstimate", "StoppingRule", "ReliabilityAssessor"]
