"""Hausdorff distance between trajectories (Alt, 2009).

The paper's description (§II): "Hausdorff computes the maximum
point-to-trajectory distance between two trajectories". This is the classic
symmetric Hausdorff distance over the two point sets:

    H(A, B) = max( max_a min_b d(a, b),  max_b min_a d(a, b) )

It ignores point order — the property the paper contrasts with Fréchet —
and costs O(n·m) per pair (here one vectorized ``cdist``).
"""

from __future__ import annotations

import numpy as np

from ..trajectory.trajectory import TrajectoryLike, as_points
from .base import (
    TrajectorySimilarityMeasure,
    point_distances,
    register_measure,
)


def hausdorff_distance(a: TrajectoryLike, b: TrajectoryLike) -> float:
    """Symmetric point-set Hausdorff distance."""
    pa, pb = as_points(a), as_points(b)
    dists = point_distances(pa, pb)
    forward = dists.min(axis=1).max()
    backward = dists.min(axis=0).max()
    return float(max(forward, backward))


@register_measure("hausdorff")
class Hausdorff(TrajectorySimilarityMeasure):
    """Registry wrapper for :func:`hausdorff_distance`."""

    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        return hausdorff_distance(a, b)
