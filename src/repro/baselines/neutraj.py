"""NeuTraj baseline (Yao et al., ICDE 2019) — LSTM + spatial memory.

NeuTraj augments an LSTM encoder with a *spatial attention memory*: each
step's hidden state is blended with the memory of grid cells near the
current point, so spatially close trajectories reuse hidden context. Its
loss weights close pairs more heavily than far ones, which learns the top
of the similarity ranking first.

Reproduction: an LSTM over scaled coordinates with a per-cell memory table
read through attention at every step (memory write simplified to EMA of
hidden states into the visited cell), trained with the distance-weighted
MSE of the original paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..core.learned import l1_regression_loss
from ..trajectory import Grid
from ..trajectory.trajectory import TrajectoryLike
from .supervised import SupervisedApproximator


class NeuTraj(SupervisedApproximator):
    """LSTM encoder with grid-cell memory and weighted ranking supervision."""

    name = "neutraj"

    def __init__(
        self,
        grid: Grid,
        hidden_dim: int = 32,
        max_len: int = 64,
        memory_decay: float = 0.9,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.grid = grid
        self.max_len = max_len
        self.output_dim = hidden_dim
        self.memory_decay = memory_decay
        self.lstm = nn.LSTM(2, hidden_dim, rng=rng)
        self.memory_gate = nn.Linear(2 * hidden_dim, hidden_dim, rng=rng)
        #: non-learned spatial memory (updated by EMA during embedding)
        self.cell_memory = np.zeros((grid.n_cells, hidden_dim))

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        batch, lengths = self._scaled_batch(trajectories)
        outputs, final_hidden = self.lstm(nn.Tensor(batch), lengths=lengths)

        # Spatial memory read: average the memory of cells each trajectory
        # visits, gate it against the LSTM summary.
        reads = np.zeros((len(trajectories), self.output_dim))
        for i, trajectory in enumerate(trajectories):
            points = np.asarray(trajectory, dtype=np.float64)[: self.max_len]
            cells = self.grid.cell_of(points)
            reads[i] = self.cell_memory[cells].mean(axis=0)
            if self.training:
                # EMA write of the (detached) summary into visited cells.
                summary = final_hidden.data[i]
                self.cell_memory[cells] *= self.memory_decay
                self.cell_memory[cells] += (1 - self.memory_decay) * summary
        gated = self.memory_gate(
            nn.concatenate([final_hidden, nn.Tensor(reads)], axis=1)
        ).tanh()
        return final_hidden + gated

    def pair_loss(self, emb_left, emb_right, targets, batch_left, batch_right,
                  measure, rng):
        """NeuTraj's distance-weighted MSE: near pairs get larger weight."""
        del batch_left, batch_right, measure, rng
        weights = np.exp(-targets)  # targets are mean-normalized distances
        return l1_regression_loss(emb_left, emb_right, targets,
                                  weights / weights.mean())
