"""Discrete Fréchet distance (Alt & Godau, 1995; Eiter & Mannila, 1994).

The paper (§II): "Fréchet resembles Hausdorff but requires the point
matches to strictly follow the sequential point order". The discrete
variant is the standard O(n·m) dynamic program over the coupling lattice:

    c(i, j) = max( d(a_i, b_j), min(c(i-1, j), c(i-1, j-1), c(i, j-1)) )

The distance matrix is computed in one vectorized ``cdist``; the DP scan
itself is inherently sequential along each row (the ``c(i, j-1)`` term),
which is precisely why heuristic measures cannot be batched the way
embedding distances can (paper Table VIII discussion).
"""

from __future__ import annotations

import numpy as np

from ..trajectory.trajectory import TrajectoryLike, as_points
from .base import (
    TrajectorySimilarityMeasure,
    point_distances,
    register_measure,
)


def frechet_distance_reference(a: TrajectoryLike, b: TrajectoryLike) -> float:
    """Textbook row-scan discrete Fréchet; oracle for the vectorized path."""
    pa, pb = as_points(a), as_points(b)
    dists = point_distances(pa, pb)
    n, m = dists.shape

    previous = np.empty(m)
    current = np.empty(m)

    # First row: forced to walk along b while a stays at its first point.
    np.maximum.accumulate(dists[0], out=previous)
    for i in range(1, n):
        row = dists[i]
        current[0] = max(row[0], previous[0])
        for j in range(1, m):
            reach = min(previous[j], previous[j - 1], current[j - 1])
            current[j] = row[j] if row[j] > reach else reach
        previous, current = current, previous
    return float(previous[m - 1])


def frechet_distance(a: TrajectoryLike, b: TrajectoryLike) -> float:
    """Discrete Fréchet distance between two polylines.

    Anti-diagonal wavefront evaluation: every cell of diagonal ``i+j = k``
    depends only on diagonals ``k-1`` and ``k-2``, so each wavefront is one
    vectorized numpy step — identical results to the row scan without the
    O(n·m) Python-level inner loop.

    Diagonals are stored indexed by ``i`` with +inf at invalid slots; the
    boundary rows/columns fall out naturally because an out-of-range
    predecessor contributes +inf to the inner ``min``.
    """
    pa, pb = as_points(a), as_points(b)
    dists = point_distances(pa, pb)
    n, m = dists.shape
    if n == 1 or m == 1:
        # Degenerate coupling: forced to walk the longer polyline.
        return float(dists.max())

    INF = np.inf
    prev2 = np.full(n, INF)  # diagonal k-2
    prev = np.full(n, INF)   # diagonal k-1
    prev[0] = dists[0, 0]    # k = 0
    for k in range(1, n + m - 1):
        lo = max(0, k - (m - 1))
        hi = min(k, n - 1)
        i = np.arange(lo, hi + 1)
        d = dists[i, k - i]

        # predecessors (invalid -> +inf)
        up = np.full(len(i), INF)        # c(i-1, j)   on diag k-1 at i-1
        left = np.full(len(i), INF)      # c(i, j-1)   on diag k-1 at i
        diag = np.full(len(i), INF)      # c(i-1, j-1) on diag k-2 at i-1
        has_up = i >= 1
        up[has_up] = prev[i[has_up] - 1]
        has_left = (k - i) >= 1
        left[has_left] = prev[i[has_left]]
        has_diag = has_up & has_left
        diag[has_diag] = prev2[i[has_diag] - 1]

        current = np.full(n, INF)
        current[lo:hi + 1] = np.maximum(
            d, np.minimum(np.minimum(up, left), diag)
        )
        prev2, prev = prev, current
    return float(prev[n - 1])


@register_measure("frechet")
class Frechet(TrajectorySimilarityMeasure):
    """Registry wrapper for :func:`frechet_distance`."""

    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        return frechet_distance(a, b)
