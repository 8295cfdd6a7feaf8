"""Squared Euclidean distances by one matrix product per block of rows.

The expansion ``||x - s||^2 = ||x||^2 + ||s||^2 - 2 x.s`` (scikit-learn's
``euclidean_distances``) turns a rows-by-points distance matrix into one
matrix product, where the broadcast ``x[:, None, :] - s[None, :, :]`` would
allocate ``rows x points x d`` floats.  It serves two callers: the KDE of
:class:`~repro.op.profile.EmpiricalProfile` and the nearest-anchor
assignment of :class:`~repro.data.partition.AnchorPartition`.  It lives in
:mod:`repro.data`, not :mod:`repro.op`, because :mod:`repro.op` imports the
partitions.

**Accuracy.**  Cancellation can push an entry below zero, so entries are
clamped at zero.  Each entry is within ``(d + 2) eps (||x||^2 + ||s||^2)``
of the exact squared distance, with ``eps = 2**-52`` (the float64 bound for a
``d``-term dot product, summed in any order, plus the two additions).  Two
points whose exact distances to a row differ by less than twice that bound
may therefore swap order.  The same rows in the same block give the same
bits; a row's last bits may depend on the rows that share its block.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

#: Rows per matrix product: a block's distance matrix is
#: ``BLOCK_ROWS x len(points)`` floats.
BLOCK_ROWS = 256


def squared_norms(a: np.ndarray) -> np.ndarray:
    """``||a_i||^2`` of every row of ``a``: the fixed half of the expansion."""
    return np.einsum("ij,ij->i", a, a)


def squared_distance_blocks(
    x: np.ndarray, points: np.ndarray, points_sq_norms: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, sq_dist)`` for each block of ``BLOCK_ROWS`` rows of ``x``.

    ``sq_dist[i, j]`` is the clamped squared distance of ``x[start + i]`` to
    ``points[j]``; ``points_sq_norms`` is ``squared_norms(points)``, computed
    once by the caller.

    Every block is computed in the same two buffers, allocated once per call,
    so a block is valid only until the next one is yielded and the caller may
    overwrite it in place.  Per-block temporaries would make a call's peak
    several blocks deep, and freeing them hands that memory back to the
    operating system to be faulted in again by the next call.  The in-place
    steps round exactly as the expression ``(||x||^2 + ||s||^2) - 2 (x.s)``.
    """
    rows = min(BLOCK_ROWS, len(x))
    sq_buffer = np.empty((rows, len(points)))
    cross_buffer = np.empty((rows, len(points)))
    for start in range(0, len(x), BLOCK_ROWS):
        chunk = x[start : start + BLOCK_ROWS]
        sq_dist = sq_buffer[: len(chunk)]
        cross = cross_buffer[: len(chunk)]
        np.add(squared_norms(chunk)[:, None], points_sq_norms[None, :], out=sq_dist)
        np.matmul(chunk, points.T, out=cross)
        cross *= 2.0
        sq_dist -= cross
        np.maximum(sq_dist, 0.0, out=sq_dist)
        yield start, sq_dist


__all__ = ["BLOCK_ROWS", "squared_norms", "squared_distance_blocks"]
