"""Shared infrastructure for the learned baseline measures.

Every baseline in the paper's comparison ultimately exposes the same
contract as TrajCL: ``encode(trajectories) -> (N, d)`` embeddings compared
with L1 distance. :class:`repro.core.learned.LearnedSimilarityMeasure`
provides that contract plus batching; :class:`CoordinateScaler` here
normalizes raw coordinates for the models that consume them directly (the
recurrent baselines).

Faithfulness note (DESIGN.md §1): each baseline preserves its published
*architecture class* — recurrent seq2seq (t2vec, E2DTC), CNN over rasters
(TrjSR), vanilla-attention contrastive (CSTRM), LSTM + memory (NeuTraj),
sub-trajectory supervision (Traj2SimVec), LSTM + attention (T3S), graph
attention (TrajGAT) — at reduced width, on the shared ``repro.nn``
substrate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..trajectory.preprocess import pad_point_arrays
from ..trajectory.trajectory import TrajectoryLike, as_points


class CoordinateScaler:
    """Affine map of raw coordinates into [0, 1]² fitted on a training set."""

    def __init__(self):
        self.min_xy: Optional[np.ndarray] = None
        self.scale: Optional[np.ndarray] = None

    def fit(self, trajectories: Sequence[TrajectoryLike]) -> "CoordinateScaler":
        mins = np.full(2, np.inf)
        maxs = np.full(2, -np.inf)
        for trajectory in trajectories:
            points = as_points(trajectory)
            mins = np.minimum(mins, points.min(axis=0))
            maxs = np.maximum(maxs, points.max(axis=0))
        if not np.isfinite(mins).all():
            raise ValueError("cannot fit scaler on an empty set")
        self.min_xy = mins
        self.scale = np.maximum(maxs - mins, 1e-9)
        return self

    def transform(self, trajectory: TrajectoryLike) -> np.ndarray:
        if self.min_xy is None:
            raise RuntimeError("scaler must be fitted before transform")
        return (as_points(trajectory) - self.min_xy) / self.scale

    def transform_batch(
        self, trajectories: Sequence[TrajectoryLike], max_len: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scaled, padded ``(B, L, 2)`` batch plus true lengths."""
        scaled = [self.transform(t) for t in trajectories]
        return pad_point_arrays(scaled, max_len=max_len)
