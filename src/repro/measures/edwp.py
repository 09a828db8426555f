"""EDwP — Edit Distance with Projections (Ranu et al., ICDE 2015).

EDwP aligns trajectories at the *segment* level and, crucially, allows
**interpolated points** (projections) so that trajectories sampled at
different rates can still be matched closely — the property that makes
EDwP the most downsampling-robust heuristic in the paper's Table IV, and
the extra projection geometry makes it the slowest (Table VIII).

Implementation: the standard O(n·m) dynamic program over point indices
with three moves, each charged ``replacement × coverage``:

* **both advance** (match segment ``p_i p_{i+1}`` with ``q_j q_{j+1}``):
  ``rep = d(p_i, q_j) + d(p_{i+1}, q_{j+1})``,
  ``cov = |p_i p_{i+1}| + |q_j q_{j+1}|``;
* **advance a only** (insert into b): the advancing point ``p_{i+1}`` is
  matched against its *projection* q̂ on the current edge of ``b``;
  ``rep = d(p_i, q_j) + d(p_{i+1}, q̂)``, ``cov = |p_i p_{i+1}| + |q_j q̂|``;
* **advance b only**: symmetric.

This follows the replacement/coverage cost model of the original paper
(§IV therein) with projection-based insertion, the formulation used by
public re-implementations in the trajectory-similarity literature.
"""

from __future__ import annotations

import numpy as np

from ..trajectory.trajectory import TrajectoryLike, as_points
from .base import (
    TrajectorySimilarityMeasure,
    point_distances,
    register_measure,
)


def _project_onto_segment(point: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``point`` onto segment ``start``–``end`` (clamped)."""
    direction = end - start
    norm_sq = float(direction @ direction)
    if norm_sq <= 1e-24:
        return start
    t = float(np.clip(((point - start) @ direction) / norm_sq, 0.0, 1.0))
    return start + t * direction


def edwp_distance_reference(a: TrajectoryLike, b: TrajectoryLike) -> float:
    """Double-loop EDwP; kept as the oracle for the vectorized path."""
    pa, pb = as_points(a), as_points(b)
    n, m = len(pa), len(pb)
    if n == 1 and m == 1:
        return float(np.linalg.norm(pa[0] - pb[0]))

    point_dist = point_distances(pa, pb)
    seg_a = np.linalg.norm(np.diff(pa, axis=0), axis=1)
    seg_b = np.linalg.norm(np.diff(pb, axis=0), axis=1)

    INF = np.inf
    dp = np.full((n, m), INF)
    dp[0, 0] = 0.0

    for i in range(n):
        for j in range(m):
            here = dp[i, j]
            if here == INF:
                continue
            # Move 1: advance both (replace segment with segment).
            if i + 1 < n and j + 1 < m:
                rep = point_dist[i, j] + point_dist[i + 1, j + 1]
                cov = seg_a[i] + seg_b[j]
                cost = here + rep * cov
                if cost < dp[i + 1, j + 1]:
                    dp[i + 1, j + 1] = cost
            # Move 2: advance a only; p_{i+1} matches its projection on b's edge.
            if i + 1 < n:
                if j + 1 < m:
                    proj = _project_onto_segment(pa[i + 1], pb[j], pb[j + 1])
                else:
                    proj = pb[j]
                d_proj = float(np.linalg.norm(pa[i + 1] - proj))
                rep = point_dist[i, j] + d_proj
                cov = seg_a[i] + float(np.linalg.norm(proj - pb[j]))
                cost = here + rep * cov
                if cost < dp[i + 1, j]:
                    dp[i + 1, j] = cost
            # Move 3: advance b only (symmetric).
            if j + 1 < m:
                if i + 1 < n:
                    proj = _project_onto_segment(pb[j + 1], pa[i], pa[i + 1])
                else:
                    proj = pa[i]
                d_proj = float(np.linalg.norm(pb[j + 1] - proj))
                rep = point_dist[i, j] + d_proj
                cov = seg_b[j] + float(np.linalg.norm(proj - pa[i]))
                cost = here + rep * cov
                if cost < dp[i, j + 1]:
                    dp[i, j + 1] = cost
    return float(dp[n - 1, m - 1])


def _projection_costs(
    moving: np.ndarray, anchor: np.ndarray, edges_start: np.ndarray,
    edges_dir: np.ndarray,
) -> tuple:
    """Vectorized projection geometry for the one-sided moves.

    ``moving``: the advancing points, ``(P, 2)``; ``anchor`` the stationary
    points paired with them is folded in by the caller. ``edges_*`` describe
    the segments projected onto, ``(E, 2)``. Returns ``(d_proj, cov)`` of
    shape ``(P, E)``: distance from each moving point to its clamped
    projection, and the projection's offset along the edge.
    """
    norm_sq = np.maximum((edges_dir ** 2).sum(axis=1), 1e-24)  # (E,)
    diff = moving[:, None, :] - edges_start[None, :, :]        # (P, E, 2)
    t = np.clip((diff * edges_dir[None]).sum(axis=2) / norm_sq[None], 0.0, 1.0)
    proj_offset = t[:, :, None] * edges_dir[None]              # (P, E, 2)
    d_proj = np.linalg.norm(diff - proj_offset, axis=2)
    cov = np.linalg.norm(proj_offset, axis=2)
    return d_proj, cov


def edwp_distance(a: TrajectoryLike, b: TrajectoryLike) -> float:
    """Edit distance with projections between two polylines.

    Row-vectorized form of :func:`edwp_distance_reference` (identical
    results): all three move-cost matrices are precomputed with broadcast
    geometry, and the within-row left dependency — additive costs
    ``dp[i, j] = min(vec[j], dp[i, j-1] + L[i, j-1])`` — unrolls into a
    running minimum over ``vec[k] - cumsum(L)[k]``.
    """
    pa, pb = as_points(a), as_points(b)
    n, m = len(pa), len(pb)
    if n == 1 and m == 1:
        return float(np.linalg.norm(pa[0] - pb[0]))

    point_dist = point_distances(pa, pb)
    seg_a = np.linalg.norm(np.diff(pa, axis=0), axis=1)  # (n-1,)
    seg_b = np.linalg.norm(np.diff(pb, axis=0), axis=1)  # (m-1,)

    # --- move-cost matrices ------------------------------------------------
    # U[i, j]: advance a from (i, j); valid for i < n-1. (n-1, m)
    up = np.empty((max(n - 1, 0), m))
    if n > 1:
        if m > 1:
            d_proj, cov = _projection_costs(
                pa[1:], pb[:-1], pb[:-1], pb[1:] - pb[:-1]
            )
            up[:, :-1] = (point_dist[:-1, :-1] + d_proj) * (
                seg_a[:, None] + cov
            )
        # last column: b has no edge to project onto; match pb[m-1] itself
        up[:, m - 1] = (point_dist[:-1, m - 1] + point_dist[1:, m - 1]) * seg_a

    # L[i, j]: advance b from (i, j); valid for j < m-1. (n, m-1)
    left = np.empty((n, max(m - 1, 0)))
    if m > 1:
        if n > 1:
            d_proj, cov = _projection_costs(
                pb[1:], pa[:-1], pa[:-1], pa[1:] - pa[:-1]
            )
            left[:-1, :] = (point_dist[:-1, :-1] + d_proj.T) * (
                seg_b[None, :] + cov.T
            )
        left[n - 1, :] = (point_dist[n - 1, :-1] + point_dist[n - 1, 1:]) * seg_b

    # D[i, j]: advance both from (i, j); valid i < n-1, j < m-1. (n-1, m-1)
    if n > 1 and m > 1:
        diag = (point_dist[:-1, :-1] + point_dist[1:, 1:]) * (
            seg_a[:, None] + seg_b[None, :]
        )

    # --- DP sweep ------------------------------------------------------------
    row = np.empty(m)
    row[0] = 0.0
    if m > 1:
        # first row: only left moves are possible
        row[1:] = np.cumsum(left[0])
    for i in range(1, n):
        vec = np.empty(m)
        vec[0] = row[0] + up[i - 1, 0]
        if m > 1:
            vec[1:] = np.minimum(row[:-1] + diag[i - 1], row[1:] + up[i - 1, 1:])
            offsets = np.concatenate([[0.0], np.cumsum(left[i])])  # exclusive
            row = offsets + np.minimum.accumulate(vec - offsets)
        else:
            row = vec
    return float(row[m - 1])


@register_measure("edwp")
class EDwP(TrajectorySimilarityMeasure):
    """Registry wrapper for :func:`edwp_distance`."""

    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        return edwp_distance(a, b)
