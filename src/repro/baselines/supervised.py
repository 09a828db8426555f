"""Shared training loop for the supervised approximator baselines.

NeuTraj, Traj2SimVec, T3S and TrajGAT all follow the same recipe (paper
§II): sample trajectory pairs, compute the target heuristic distance
(Hausdorff / Fréchet / EDR / EDwP), and regress the embedding-space
distance onto it. Subclasses supply the architecture via ``embed_batch``
and may override ``pair_loss`` (NeuTraj's weighting, Traj2SimVec's
sub-trajectory term).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..measures.base import TrajectorySimilarityMeasure
from ..trajectory.trajectory import TrajectoryLike, as_points
from .base import LearnedSimilarityMeasure, sample_training_pairs


@dataclass
class SupervisedFitHistory:
    """Per-epoch losses of a supervised approximator fit."""

    losses: List[float] = field(default_factory=list)


class SupervisedApproximator(LearnedSimilarityMeasure):
    """Base class: regress L1 embedding distance onto a heuristic measure."""

    def __init__(self):
        super().__init__()
        #: scale of the supervision targets, set by fit(); applied in
        #: distance_matrix so predictions live on the measure's scale
        self.target_scale: float = 1.0

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
        predicted = (emb_left - emb_right).abs().sum(axis=-1)
        diff = predicted - nn.Tensor(targets)
        return (diff * diff).mean()

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
        if len(trajectories) < 2:
            raise ValueError("need at least two trajectories")
        rng = rng if rng is not None else np.random.default_rng(0)
        point_lists = [as_points(t) for t in trajectories]
        left, right = sample_training_pairs(len(point_lists), pairs, rng)
        targets = np.array([
            measure.distance(point_lists[i], point_lists[j])
            for i, j in zip(left, right)
        ])
        self.target_scale = float(targets.mean()) or 1.0
        targets = targets / self.target_scale

        optimizer = nn.Adam(self.parameters(), lr=lr)
        history = SupervisedFitHistory()
        for _epoch in range(epochs):
            order = rng.permutation(len(left))
            epoch_losses = []
            for start in range(0, len(order), batch_size):
                index = order[start:start + batch_size]
                batch_left = [point_lists[i] for i in left[index]]
                batch_right = [point_lists[j] for j in right[index]]

                optimizer.zero_grad()
                emb_left = self.embed_batch(batch_left)
                emb_right = self.embed_batch(batch_right)
                loss = self.pair_loss(
                    emb_left, emb_right, targets[index],
                    batch_left, batch_right, measure, rng,
                )
                loss.backward()
                nn.clip_grad_norm(self.parameters(), max_norm=5.0)
                optimizer.step()
                epoch_losses.append(loss.item())
            history.losses.append(float(np.mean(epoch_losses)))
        return history

    def distance_matrix(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        return self.target_scale * super().distance_matrix(queries, database)
