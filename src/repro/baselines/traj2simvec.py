"""Traj2SimVec baseline (Zhang et al., IJCAI 2020).

Traj2SimVec accelerates NeuTraj-style training with simpler sampling and
adds an **auxiliary sub-trajectory loss**: prefixes of a pair should also
match the heuristic distance of those prefixes, giving the model
sub-trajectory-level supervision. Reproduced as a GRU coordinate encoder
whose loss is ``MSE(full pairs) + λ · MSE(prefix pairs)`` with one random
prefix cut per batch.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..core.learned import l1_regression_loss
from ..trajectory.trajectory import TrajectoryLike
from .supervised import SupervisedApproximator


class Traj2SimVec(SupervisedApproximator):
    """GRU encoder with sub-trajectory auxiliary supervision."""

    name = "traj2simvec"

    def __init__(
        self,
        hidden_dim: int = 32,
        max_len: int = 64,
        aux_weight: float = 0.3,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.max_len = max_len
        self.output_dim = hidden_dim
        self.aux_weight = aux_weight
        self.gru = nn.GRU(2, hidden_dim, rng=rng)

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        batch, lengths = self._scaled_batch(trajectories)
        _, final_hidden = self.gru(nn.Tensor(batch), lengths=lengths)
        return final_hidden

    def pair_loss(self, emb_left, emb_right, targets, batch_left, batch_right,
                  measure, rng):
        loss = l1_regression_loss(emb_left, emb_right, targets)

        # Sub-trajectory auxiliary term: one random prefix fraction per batch.
        fraction = float(rng.uniform(0.3, 0.8))
        prefix_left = [p[: max(2, int(len(p) * fraction))] for p in batch_left]
        prefix_right = [p[: max(2, int(len(p) * fraction))] for p in batch_right]
        prefix_targets = np.array([
            measure.distance(a, b) for a, b in zip(prefix_left, prefix_right)
        ]) / self.target_scale
        return loss + self.aux_weight * l1_regression_loss(
            self.embed_batch(prefix_left), self.embed_batch(prefix_right),
            prefix_targets)
