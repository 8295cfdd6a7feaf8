"""Partitioning of the input space into cells.

The reliability model the paper builds on (ReAsDL, reference [12]/[13])
partitions the input domain into small "cells" — regions small enough that a
single ground-truth label and a single robustness evaluation are meaningful
for the whole cell, e.g. a norm ball around a natural input.  The operational
profile then assigns a probability to each cell, and delivered reliability is
the OP-weighted sum of per-cell unastuteness.

Two partition schemes are provided:

* :class:`GridPartition` — an axis-aligned grid over ``[0, 1]^d``; exact and
  exhaustive, practical for the low-dimensional geometric benchmarks.
* :class:`AnchorPartition` — cells induced by a set of anchor points (typically
  the operational dataset): each cell is the region of the input space closer
  to its anchor than to any other (a Voronoi cell), approximated for sampling
  purposes by an L∞ ball of a configurable radius around the anchor.  This is
  the scheme that scales to image-like inputs.  Rows find their nearest anchor
  by one matrix product per 256 rows and an ``argmin``
  (:mod:`repro.data.distances`, the expansion the KDE uses), with no search
  tree; exact ties go to the lowest anchor index.

Every partition rejects a non-finite row with :class:`DataError`: a NaN has
no cell, and a grid or an ``argmin`` would silently answer one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import RngLike, clip01, ensure_rng, finite_rows, require_finite
from ..exceptions import ConfigurationError, ShapeError
from .distances import squared_distance_blocks, squared_norms


class Partition:
    """Interface shared by all cell partitions of the input space."""

    @property
    def num_cells(self) -> int:
        """Total number of cells in the partition."""
        raise NotImplementedError

    @property
    def num_features(self) -> int:
        """Dimensionality of the partitioned input space."""
        raise NotImplementedError

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Map each row of ``x`` to the integer id of the cell containing it."""
        raise NotImplementedError

    def cell_center(self, cell_id: int) -> np.ndarray:
        """Return a representative (central) point of the cell."""
        raise NotImplementedError

    def sample_in_cell(
        self, cell_id: int, size: int, rng: RngLike = None
    ) -> np.ndarray:
        """Draw ``size`` points uniformly from the cell (clipped to ``[0, 1]^d``)."""
        raise NotImplementedError

    def cell_radius(self, cell_id: int) -> float:
        """Return the L∞ radius used when perturbing inside the cell."""
        raise NotImplementedError

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a 2-D float array; :class:`DataError` names a non-finite row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"expected inputs with {self.num_features} features, got {x.shape[1]}"
            )
        return finite_rows(x)


class GridPartition(Partition):
    """Axis-aligned grid over ``[0, 1]^d`` with ``bins_per_dim`` bins per axis.

    Only the first ``grid_dims`` axes are gridded (to keep the cell count
    manageable for higher-dimensional data); remaining axes are ignored when
    assigning cells, which corresponds to projecting the OP onto the gridded
    subspace.
    """

    def __init__(
        self, num_features: int, bins_per_dim: int = 10, grid_dims: Optional[int] = None
    ) -> None:
        if num_features <= 0:
            raise ConfigurationError("num_features must be positive")
        if bins_per_dim < 1:
            raise ConfigurationError("bins_per_dim must be at least 1")
        self._num_features = num_features
        self.bins_per_dim = bins_per_dim
        self.grid_dims = min(grid_dims or num_features, num_features)
        if self.grid_dims <= 0:
            raise ConfigurationError("grid_dims must be positive")
        if bins_per_dim**self.grid_dims > 5_000_000:
            raise ConfigurationError(
                "grid would have more than 5e6 cells; reduce bins_per_dim or grid_dims"
            )
        self._num_cells = bins_per_dim**self.grid_dims

    @property
    def num_cells(self) -> int:
        return self._num_cells

    @property
    def num_features(self) -> int:
        return self._num_features

    def assign(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        coords = np.clip(
            (x[:, : self.grid_dims] * self.bins_per_dim).astype(int),
            0,
            self.bins_per_dim - 1,
        )
        cell_ids = np.zeros(len(x), dtype=int)
        for dim in range(self.grid_dims):
            cell_ids = cell_ids * self.bins_per_dim + coords[:, dim]
        return cell_ids

    def _cell_coords(self, cell_id: int) -> np.ndarray:
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(f"cell_id {cell_id} out of range")
        coords = np.zeros(self.grid_dims, dtype=int)
        remaining = cell_id
        for dim in reversed(range(self.grid_dims)):
            coords[dim] = remaining % self.bins_per_dim
            remaining //= self.bins_per_dim
        return coords

    def cell_center(self, cell_id: int) -> np.ndarray:
        coords = self._cell_coords(cell_id)
        center = np.full(self.num_features, 0.5)
        center[: self.grid_dims] = (coords + 0.5) / self.bins_per_dim
        return center

    def cell_radius(self, cell_id: int) -> float:
        return 0.5 / self.bins_per_dim

    def sample_in_cell(
        self, cell_id: int, size: int, rng: RngLike = None
    ) -> np.ndarray:
        if size <= 0:
            raise ConfigurationError("size must be positive")
        generator = ensure_rng(rng)
        coords = self._cell_coords(cell_id)
        lower = coords / self.bins_per_dim
        samples = generator.random((size, self.num_features))
        samples[:, : self.grid_dims] = (
            lower + samples[:, : self.grid_dims] / self.bins_per_dim
        )
        return samples


class AnchorPartition(Partition):
    """Cells induced by anchor points (Voronoi assignment, L∞ ball sampling).

    A row's cell is its nearest anchor in Euclidean distance.  :meth:`assign`
    takes the clamped squared-distance expansion of
    :func:`~repro.data.distances.squared_distance_blocks` (one matrix product
    per 256 rows, shared with the KDE) and its ``argmin``, with no search
    tree.  Exact ties go to the lowest anchor index; a row whose two nearest
    anchors lie within the expansion's stated tolerance of each other may go
    to either.  The anchors must be finite rows (:class:`DataError`) and
    ``radius`` a finite positive number.
    """

    def __init__(self, anchors: np.ndarray, radius: float = 0.1) -> None:
        anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        if anchors.size == 0:
            raise ConfigurationError("AnchorPartition requires at least one anchor")
        require_finite("radius", radius)
        if radius <= 0:
            raise ConfigurationError("radius must be positive")
        self.anchors = finite_rows(anchors)
        self.radius = radius
        self._sq_norms = squared_norms(anchors)

    @property
    def num_cells(self) -> int:
        return len(self.anchors)

    @property
    def num_features(self) -> int:
        return self.anchors.shape[1]

    def assign(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        cells = np.empty(len(x), dtype=int)
        for start, sq_dist in squared_distance_blocks(x, self.anchors, self._sq_norms):
            cells[start : start + len(sq_dist)] = sq_dist.argmin(axis=1)
        return cells

    def cell_center(self, cell_id: int) -> np.ndarray:
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(f"cell_id {cell_id} out of range")
        return self.anchors[cell_id].copy()

    def cell_radius(self, cell_id: int) -> float:
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(f"cell_id {cell_id} out of range")
        return self.radius

    def sample_in_cell(
        self, cell_id: int, size: int, rng: RngLike = None
    ) -> np.ndarray:
        if size <= 0:
            raise ConfigurationError("size must be positive")
        generator = ensure_rng(rng)
        center = self.cell_center(cell_id)
        offsets = generator.uniform(-self.radius, self.radius, size=(size, self.num_features))
        return clip01(center + offsets)


def build_partition_for_dataset(
    x: np.ndarray,
    scheme: str = "auto",
    bins_per_dim: int = 10,
    radius: float = 0.1,
    max_anchors: int = 500,
    rng: RngLike = None,
) -> Partition:
    """Choose and build a sensible partition for a dataset.

    ``"grid"`` builds a :class:`GridPartition`, ``"anchor"`` an
    :class:`AnchorPartition` over (a subsample of) the dataset rows, and
    ``"auto"`` picks grid for up to three features and anchors otherwise.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    num_features = x.shape[1]
    if scheme == "auto":
        scheme = "grid" if num_features <= 3 else "anchor"
    if scheme == "grid":
        return GridPartition(num_features, bins_per_dim=bins_per_dim)
    if scheme == "anchor":
        generator = ensure_rng(rng)
        if len(x) > max_anchors:
            idx = generator.choice(len(x), size=max_anchors, replace=False)
            anchors = x[idx]
        else:
            anchors = x
        return AnchorPartition(anchors, radius=radius)
    raise ConfigurationError(
        f"unknown partition scheme {scheme!r}; expected 'grid', 'anchor' or 'auto'"
    )


__all__ = [
    "Partition",
    "GridPartition",
    "AnchorPartition",
    "build_partition_for_dataset",
]
