"""Bayesian estimators of per-cell unastuteness with conservative bounds.

The ReAsDL model the paper builds on produces *conservative* reliability
claims: instead of plugging in the empirical failure rate of each cell, it
maintains a Beta posterior over the cell's unastuteness and reports an upper
credible bound.  Cells with little or no evidence therefore contribute a
pessimistic (large) unastuteness, which is exactly the behaviour a safety
argument needs.

A credible bound is a quantile of the posterior, the inverse regularized
incomplete beta function :func:`scipy.special.betaincinv`.  It gives the same
bits as ``scipy.stats.beta.ppf`` without loading :mod:`scipy.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from ..config import require_finite
from ..exceptions import ReliabilityError
from .cells import CellEvidenceTable


@dataclass
class BetaPrior:
    """Beta prior over a cell's unastuteness.

    The default ``Beta(1, 9)`` encodes a weak prior belief that roughly 10 %
    of inputs in an arbitrary cell could be mishandled — deliberately
    pessimistic for unexplored cells, quickly overridden by evidence.
    Both parameters must be finite positive numbers.
    """

    alpha: float = 1.0
    beta: float = 9.0

    def __post_init__(self) -> None:
        require_finite("alpha", self.alpha, ReliabilityError)
        require_finite("beta", self.beta, ReliabilityError)
        if self.alpha <= 0 or self.beta <= 0:
            raise ReliabilityError("Beta prior parameters must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def check_confidence(confidence: float) -> None:
    """Raise :class:`ReliabilityError` unless ``0.5 <= confidence < 1``.

    A one-sided bound at confidence ``c`` is the ``c`` (upper) or ``1 - c``
    (lower) posterior quantile.  Below 0.5 the two swap places: the "upper"
    bound falls below the posterior median and under the lower bound, so a
    conservative claim made at it is not conservative.
    """
    if not 0.5 <= confidence < 1.0:
        raise ReliabilityError(f"confidence must be in [0.5, 1), got {confidence!r}")


def _upper_bounds(alpha, beta, confidence: float) -> np.ndarray:
    """Upper credible bounds of ``Beta(alpha, beta)`` posteriors, elementwise.

    The ``confidence`` quantile, by :func:`~scipy.special.betaincinv`; one
    call over arrays gives the same bits as one call per cell.
    """
    check_confidence(confidence)
    return betaincinv(alpha, beta, confidence)


def _lower_bounds(alpha, beta, confidence: float) -> np.ndarray:
    """Lower credible bounds of ``Beta(alpha, beta)`` posteriors, elementwise.

    The ``1 - confidence`` quantile, by :func:`~scipy.special.betaincinv`.
    For ``confidence`` within float noise of 0.5 the two one-sided quantiles
    coincide; ``betaincinv`` is not strictly monotone at machine precision
    there, so the result is capped at the upper bound to keep
    ``lower <= upper`` always true.
    """
    check_confidence(confidence)
    lower = betaincinv(alpha, beta, 1.0 - confidence)
    if 0.5 <= confidence <= 0.5 + 1e-9:
        lower = np.minimum(lower, betaincinv(alpha, beta, confidence))
    return lower


@dataclass
class CellPosterior:
    """Beta posterior over one cell's unastuteness."""

    cell_id: int
    alpha: float
    beta: float

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def upper_bound(self, confidence: float = 0.95) -> float:
        """Upper credible bound at the given one-sided confidence level."""
        return float(_upper_bounds(self.alpha, self.beta, confidence))

    def lower_bound(self, confidence: float = 0.95) -> float:
        """Lower credible bound at the given one-sided confidence level.

        Never above :meth:`upper_bound`, also at ``confidence`` near 0.5.
        """
        return float(_lower_bounds(self.alpha, self.beta, confidence))


class BayesianCellModel:
    """Maps cell evidence to Beta posteriors over unastuteness.

    Parameters
    ----------
    prior:
        Prior applied to every cell.
    unexplored_pessimistic:
        When ``True``, cells with zero trials keep the raw prior (pessimistic
        mean ~ ``prior.mean``); when ``False`` they are treated as perfectly
        astute (mean 0), which is only appropriate for non-safety analyses.
    """

    def __init__(self, prior: BetaPrior | None = None, unexplored_pessimistic: bool = True) -> None:
        self.prior = prior if prior is not None else BetaPrior()
        self.unexplored_pessimistic = unexplored_pessimistic

    def posterior_for(self, trials: int, failures: int, cell_id: int = -1) -> CellPosterior:
        """Posterior after observing ``failures`` in ``trials`` Bernoulli trials."""
        if trials < 0 or failures < 0 or failures > trials:
            raise ReliabilityError("invalid evidence: need 0 <= failures <= trials")
        return CellPosterior(
            cell_id=cell_id,
            alpha=self.prior.alpha + failures,
            beta=self.prior.beta + (trials - failures),
        )

    def posterior_means(self, table: CellEvidenceTable) -> np.ndarray:
        """Posterior mean unastuteness for every cell of the table's partition."""
        return self._vector(table, bound=None)

    def posterior_upper_bounds(
        self, table: CellEvidenceTable, confidence: float = 0.95
    ) -> np.ndarray:
        """Conservative (upper credible bound) unastuteness for every cell."""
        return self._vector(table, bound=confidence)

    def posterior_lower_bounds(
        self, table: CellEvidenceTable, confidence: float = 0.95
    ) -> np.ndarray:
        """Lower credible bound for every cell; 0 for a cell with no evidence."""
        cell_ids, alpha, beta = self._evidence_posteriors(table)
        values = np.zeros(table.partition.num_cells)
        values[cell_ids] = _lower_bounds(alpha, beta, confidence)
        return values

    def _evidence_posteriors(
        self, table: CellEvidenceTable
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell ids of the table's evidence and their posterior Beta parameters."""
        evidence = np.array(
            [(cell_id, ev.trials, ev.failures) for cell_id, ev in table.cells.items()],
            dtype=np.int64,
        ).reshape(-1, 3)
        cell_ids, trials, failures = evidence.T
        if np.any((trials < 0) | (failures < 0) | (failures > trials)):
            raise ReliabilityError("invalid evidence: need 0 <= failures <= trials")
        alpha = self.prior.alpha + failures.astype(float)
        beta = self.prior.beta + (trials - failures).astype(float)
        return cell_ids, alpha, beta

    def _vector(self, table: CellEvidenceTable, bound: float | None) -> np.ndarray:
        num_cells = table.partition.num_cells
        if self.unexplored_pessimistic:
            default_alpha, default_beta = self.prior.alpha, self.prior.beta
        else:
            default_alpha, default_beta = 1e-3, 1e3
        alpha = np.full(num_cells, default_alpha, dtype=float)
        beta = np.full(num_cells, default_beta, dtype=float)
        cell_ids, evidence_alpha, evidence_beta = self._evidence_posteriors(table)
        alpha[cell_ids] = evidence_alpha
        beta[cell_ids] = evidence_beta
        if bound is None:
            return alpha / (alpha + beta)
        return _upper_bounds(alpha, beta, bound)


__all__ = ["BetaPrior", "CellPosterior", "BayesianCellModel"]
