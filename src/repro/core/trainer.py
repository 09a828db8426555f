"""Self-supervised pre-training loop for TrajCL (paper §III / §V-A).

Per batch: two augmented views of each trajectory are generated (default
pair: point masking + trajectory truncating, the paper's best combination),
pushed through the online and momentum branches, scored with InfoNCE, and
the online branch is updated by Adam (lr 1e-3 halved every 5 epochs). The
momentum branch follows by EMA. Early stopping mirrors the paper: stop
after ``patience`` epochs without loss improvement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..trajectory.trajectory import TrajectoryLike, as_points
from .augmentation import make_view
from .model import TrajCL


@dataclass
class TrainHistory:
    """Per-epoch training record returned by :class:`TrajCLTrainer.fit`."""

    losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    @property
    def epochs_run(self) -> int:
        return len(self.losses)


class TrajCLTrainer:
    """Drives contrastive pre-training of a :class:`TrajCL` model."""

    def __init__(self, model: TrajCL, rng: Optional[np.random.Generator] = None):
        self.model = model
        self.config = model.config
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.optimizer = nn.Adam(model.trainable_parameters(), lr=self.config.learning_rate)
        self.scheduler = nn.StepLR(
            self.optimizer, step_size=self.config.lr_step_epochs, gamma=self.config.lr_gamma
        )

    def make_views(self, trajectory: TrajectoryLike) -> tuple:
        """Generate the two augmented views of one trajectory (Fig. 2 input)."""
        aug_a, aug_b = self.config.augmentations
        points = as_points(trajectory)
        return (
            make_view(points, aug_a, self.rng, self.config),
            make_view(points, aug_b, self.rng, self.config),
        )

    def train_epoch(self, trajectories: Sequence[TrajectoryLike]) -> float:
        """One pass over the training set; returns the mean batch loss."""
        self.model.encoder.train()
        self.model.projector.train()

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            views = [self.make_views(trajectories[i]) for i in index]
            return self.model.contrastive_loss([v[0] for v in views],
                                               [v[1] for v in views])

        # InfoNCE needs at least two anchors to be meaningful
        return nn.train_epoch(self.optimizer, len(trajectories),
                              self.config.batch_size, self.rng, batch_loss,
                              min_batch=2, after_step=self.model.momentum_update)

    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        epochs: Optional[int] = None,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainHistory:
        """Train for up to ``epochs`` (default: config.max_epochs) epochs.

        ``callback(epoch_index, epoch_loss)`` runs after every epoch — the
        Fig. 5a learning-curve benchmark hooks evaluation in here.
        """
        if len(trajectories) == 0:
            raise ValueError("no training trajectories")
        epochs = epochs if epochs is not None else self.config.max_epochs
        history = TrainHistory()
        best_loss = float("inf")
        since_best = 0
        for epoch in range(epochs):
            start_time = time.perf_counter()
            epoch_loss = self.train_epoch(trajectories)
            history.epoch_seconds.append(time.perf_counter() - start_time)
            history.losses.append(epoch_loss)
            self.scheduler.step()
            if callback is not None:
                callback(epoch, epoch_loss)
            if epoch_loss < best_loss - 1e-6:
                best_loss = epoch_loss
                since_best = 0
            else:
                since_best += 1
                if since_best >= self.config.early_stop_patience:
                    history.stopped_early = True
                    break
        return history
