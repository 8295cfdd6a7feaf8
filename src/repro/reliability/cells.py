"""Per-cell robustness evidence for the reliability model (RQ5).

Following the ReAsDL assessment model the paper cites ([12], [13]), the input
domain is partitioned into small cells; the model's *unastuteness* in a cell
is the probability that a random input from that cell is misclassified with
respect to the cell's ground-truth label.  Delivered reliability then follows
by weighting per-cell unastuteness with the operational profile
(:mod:`repro.reliability.assessment`).

:class:`CellRobustnessEvaluator` produces that per-cell evidence: for each
cell it determines a ground-truth label (from the labelled data falling in the
cell), samples test points inside the cell, and records how many the model
gets wrong.  Cells without labelled support are reported separately so the
assessor can treat them conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..config import RngLike, ensure_rng, require_finite, require_int
from ..data.dataset import Dataset
from ..data.partition import Partition
from ..exceptions import ReliabilityError
from ..types import Classifier


@dataclass
class CellEvidence:
    """Robustness evidence collected for one cell.

    Attributes
    ----------
    cell_id:
        Identifier of the cell in its partition.
    label:
        Ground-truth label assigned to the cell (majority label of the
        labelled data inside it); ``None`` when the cell has no support.
    trials:
        Number of test points evaluated inside the cell.
    failures:
        Number of those test points the model misclassified.
    support:
        Number of labelled data points that fell into the cell.
    """

    cell_id: int
    label: Optional[int]
    trials: int = 0
    failures: int = 0
    support: int = 0

    @property
    def unastuteness(self) -> float:
        """Empirical misclassification probability inside the cell."""
        if self.trials == 0:
            return 0.0
        return self.failures / self.trials

    def merge(self, other: "CellEvidence") -> "CellEvidence":
        """Combine evidence from two evaluation rounds of the same cell."""
        if other.cell_id != self.cell_id:
            raise ReliabilityError("cannot merge evidence from different cells")
        label = self.label if self.label is not None else other.label
        return CellEvidence(
            cell_id=self.cell_id,
            label=label,
            trials=self.trials + other.trials,
            failures=self.failures + other.failures,
            support=self.support + other.support,
        )


@dataclass
class CellEvidenceTable:
    """Evidence for every evaluated cell, keyed by cell id."""

    partition: Partition
    cells: Dict[int, CellEvidence] = field(default_factory=dict)
    queries: int = 0

    def add(self, evidence: CellEvidence) -> None:
        if evidence.cell_id in self.cells:
            self.cells[evidence.cell_id] = self.cells[evidence.cell_id].merge(evidence)
        else:
            self.cells[evidence.cell_id] = evidence

    def unastuteness_vector(self, default: float = 0.0) -> np.ndarray:
        """Per-cell unastuteness over the whole partition (``default`` where unseen)."""
        values = np.full(self.partition.num_cells, default, dtype=float)
        for cell_id, evidence in self.cells.items():
            values[cell_id] = evidence.unastuteness
        return values

    def trials_vector(self) -> np.ndarray:
        """Per-cell number of trials over the whole partition."""
        values = np.zeros(self.partition.num_cells, dtype=int)
        for cell_id, evidence in self.cells.items():
            values[cell_id] = evidence.trials
        return values

    def failures_vector(self) -> np.ndarray:
        """Per-cell number of observed failures over the whole partition."""
        values = np.zeros(self.partition.num_cells, dtype=int)
        for cell_id, evidence in self.cells.items():
            values[cell_id] = evidence.failures
        return values

    @property
    def evaluated_cells(self) -> List[int]:
        return sorted(self.cells)


class CellRobustnessEvaluator:
    """Collects per-cell misclassification evidence by sampling inside cells.

    Parameters
    ----------
    partition:
        Cell partition of the input space.
    samples_per_cell:
        Test points drawn inside each evaluated cell (a positive ``int``).
    perturbation_radius:
        Radius of the perturbations applied around labelled points when
        sampling test points (defaults to the cell radius); finite when set.
    include_center:
        Also evaluate the labelled points themselves (counts towards trials).
    policy:
        :class:`~repro.runtime.ExecutionPolicy` for classifying the test
        points.  Evidence is bit-identical across policies.
    """

    def __init__(
        self,
        partition: Partition,
        samples_per_cell: int = 10,
        perturbation_radius: Optional[float] = None,
        include_center: bool = True,
        policy: Optional["ExecutionPolicy"] = None,
    ) -> None:
        from ..runtime.policy import ExecutionPolicy, policy_or_default

        require_int("samples_per_cell", samples_per_cell, ReliabilityError)
        if samples_per_cell <= 0:
            raise ReliabilityError("samples_per_cell must be positive")
        if perturbation_radius is not None:
            require_finite("perturbation_radius", perturbation_radius, ReliabilityError)
        self.policy = policy_or_default(
            policy, ExecutionPolicy(), "CellRobustnessEvaluator", ReliabilityError
        )
        self.partition = partition
        self.samples_per_cell = samples_per_cell
        self.perturbation_radius = perturbation_radius
        self.include_center = include_center

    def evaluate(
        self,
        model: Classifier,
        reference: Dataset,
        cell_ids: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> CellEvidenceTable:
        """Collect evidence for the cells occupied by ``reference``.

        Parameters
        ----------
        model:
            Model under test.
        reference:
            Labelled data providing each cell's ground-truth label and the
            anchor points around which test points are sampled.
        cell_ids:
            Optional subset of cells to evaluate; defaults to every cell that
            contains at least one reference point.
        """
        if len(reference) == 0:
            raise ReliabilityError("reference dataset must not be empty")
        generator = ensure_rng(rng)
        assignments = self.partition.assign(reference.x)
        table = CellEvidenceTable(partition=self.partition)

        if cell_ids is None:
            cell_ids = np.unique(assignments)

        # draw every cell's test points first (same RNG stream as the old
        # per-cell loop), then classify them all in one chunked pass
        pending: List[np.ndarray] = []
        metas: List[tuple] = []  # (cell_id, label, support, num_points)
        for cell_id in np.asarray(cell_ids, dtype=int):
            members = np.flatnonzero(assignments == cell_id)
            if len(members) == 0:
                table.add(CellEvidence(cell_id=int(cell_id), label=None))
                continue
            labels = reference.y[members]
            label = int(np.bincount(labels).argmax())
            test_points = self._cell_test_points(
                reference.x[members], int(cell_id), generator
            )
            pending.append(test_points)
            metas.append((int(cell_id), label, len(members), len(test_points)))

        if pending:
            query_engine = self.policy.build_engine(model)
            predictions = np.asarray(
                query_engine.predict(np.concatenate(pending, axis=0))
            )
            offset = 0
            for cell_id, label, support, num_points in metas:
                cell_predictions = predictions[offset : offset + num_points]
                offset += num_points
                table.add(
                    CellEvidence(
                        cell_id=cell_id,
                        label=label,
                        trials=num_points,
                        failures=int(np.sum(cell_predictions != label)),
                        support=support,
                    )
                )
                table.queries += num_points
        return table

    def _cell_test_points(
        self,
        anchors: np.ndarray,
        cell_id: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Sample the test points of one cell (anchors plus perturbed draws)."""
        radius = (
            self.perturbation_radius
            if self.perturbation_radius is not None
            else self.partition.cell_radius(cell_id)
        )
        candidates: List[np.ndarray] = []
        if self.include_center:
            candidates.append(anchors)
        picks = generator.integers(0, len(anchors), size=self.samples_per_cell)
        noise = generator.uniform(-radius, radius, size=(self.samples_per_cell, anchors.shape[1]))
        candidates.append(np.clip(anchors[picks] + noise, 0.0, 1.0))
        return np.concatenate(candidates, axis=0)


__all__ = ["CellEvidence", "CellEvidenceTable", "CellRobustnessEvaluator"]
