"""T3S baseline (Yang et al., ICDE 2021) — LSTM + vanilla self-attention.

T3S combines two encoders: a vanilla self-attention encoder over the
grid-cell token sequence (structural view) and an LSTM over raw
coordinates (spatial view); the trajectory embedding is their sum, and the
model is trained to approximate a heuristic measure. This is the
"vanilla LSTMs and self-attention" combination the paper positions TrajCL's
dual-feature attention against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..nn import functional as F
from ..trajectory import Grid
from ..trajectory.trajectory import TrajectoryLike
from .supervised import SupervisedApproximator
from .t2vec import _cell_sequences


class T3S(SupervisedApproximator):
    """Self-attention (cells) + LSTM (coordinates), summed embeddings."""

    name = "t3s"

    def __init__(
        self,
        grid: Grid,
        hidden_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        max_len: int = 64,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.grid = grid
        self.max_len = max_len
        self.output_dim = hidden_dim
        self.cell_embedding = nn.Embedding(grid.n_cells, hidden_dim, rng=rng)
        self.attention = nn.TransformerEncoder(
            hidden_dim, num_heads, num_layers, dropout=dropout, rng=rng
        )
        self.lstm = nn.LSTM(2, hidden_dim, rng=rng)

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        # Structural view: attention over cell tokens.
        tokens, lengths = _cell_sequences(trajectories, self.grid, self.max_len)
        mask = np.arange(self.max_len)[None, :] >= lengths[:, None]
        hidden, _ = self.attention(self.cell_embedding(tokens), key_padding_mask=mask)
        structural = F.mean_pool(hidden, lengths=lengths)
        # Spatial view: LSTM over scaled coordinates.
        coords, coord_lengths = self._scaled_batch(trajectories)
        _, spatial = self.lstm(nn.Tensor(coords), lengths=coord_lengths)
        return structural + spatial
