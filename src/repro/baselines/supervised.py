"""Shared fit for the supervised approximator baselines.

NeuTraj, Traj2SimVec, T3S and TrajGAT all follow the same recipe (paper
§II): sample trajectory pairs, compute the target heuristic distance
(Hausdorff / Fréchet / EDR / EDwP), and regress the embedding-space
distance onto it. Subclasses supply the architecture via ``embed_batch``
and may override ``pair_loss`` (NeuTraj's weighting, Traj2SimVec's
sub-trajectory term).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..core.learned import (
    FinetuneHistory,
    HeuristicRegressor,
    l1_regression_loss,
    regression_pairs,
)
from ..measures.base import TrajectorySimilarityMeasure
from ..trajectory.trajectory import TrajectoryLike, as_points
from .base import CoordinateScaler

#: per-epoch losses of a supervised approximator fit
SupervisedFitHistory = FinetuneHistory


class SupervisedApproximator(HeuristicRegressor):
    """Base class: regress L1 embedding distance onto a heuristic measure."""

    def __init__(self):
        super().__init__()
        self.scaler = CoordinateScaler()

    def _scaled_batch(self, trajectories: Sequence[TrajectoryLike]):
        """Scaled, padded ``(B, max_len, 2)`` coordinates plus lengths; the
        scaler is fitted on the first batch it sees."""
        if self.scaler.min_xy is None:
            self.scaler.fit(trajectories)
        return self.scaler.transform_batch(trajectories, max_len=self.max_len)

    def pair_loss(
        self,
        emb_left: nn.Tensor,
        emb_right: nn.Tensor,
        targets: np.ndarray,
        batch_left: Sequence[np.ndarray],
        batch_right: Sequence[np.ndarray],
        measure: TrajectorySimilarityMeasure,
        rng: np.random.Generator,
    ) -> nn.Tensor:
        """Default: plain MSE between predicted and target distances."""
        del batch_left, batch_right, measure, rng
        return l1_regression_loss(emb_left, emb_right, targets)

    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        measure: TrajectorySimilarityMeasure,
        epochs: int = 3,
        pairs: int = 256,
        batch_size: int = 32,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> SupervisedFitHistory:
        """Train on ``pairs`` sampled pairs for ``epochs`` passes."""
        rng = rng if rng is not None else np.random.default_rng(0)
        point_lists = [as_points(t) for t in trajectories]
        left, right, targets, self.target_scale = regression_pairs(
            point_lists, measure, pairs, rng)
        optimizer = nn.Adam(self.parameters(), lr=lr)

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            batch_left = [point_lists[i] for i in left[index]]
            batch_right = [point_lists[j] for j in right[index]]
            return self.pair_loss(
                self.embed_batch(batch_left), self.embed_batch(batch_right),
                targets[index], batch_left, batch_right, measure, rng,
            )

        return SupervisedFitHistory([
            nn.train_epoch(optimizer, len(left), batch_size, rng, batch_loss)
            for _epoch in range(epochs)])
