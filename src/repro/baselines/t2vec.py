"""t2vec baseline (Li et al., ICDE 2018) — recurrent seq2seq embeddings.

t2vec learns trajectory embeddings with a GRU encoder–decoder trained as a
*denoising* sequence model over grid-cell tokens: the encoder consumes a
down-sampled / noisy variant of a trajectory's cell sequence and the
decoder reconstructs the original cell sequence. The paper's key extra is
a spatial-proximity-aware loss that spreads target probability over nearby
cells; here that is reproduced by smoothing each one-hot target over the 8
neighbouring grid cells (exactly computable on the grid graph).

The encoder's final hidden state is the trajectory embedding. The O(l)
sequential recurrence is the efficiency bottleneck the paper contrasts
with TrajCL's one-shot attention (Tables I and VIII).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..core.learned import LearnedSimilarityMeasure
from ..graph.grid_graph import GridGraph
from ..nn import functional as F
from ..trajectory.grid import Grid
from ..trajectory.trajectory import TrajectoryLike, as_points


def _cell_sequences(
    trajectories: Sequence[TrajectoryLike],
    grid: Grid,
    max_len: int,
) -> tuple:
    """Tokenize to padded cell-id batches ``(B, L)`` plus lengths."""
    batch = len(trajectories)
    tokens = np.zeros((batch, max_len), dtype=np.int64)
    lengths = np.zeros(batch, dtype=np.int64)
    for i, trajectory in enumerate(trajectories):
        cells = grid.cell_of(as_points(trajectory))[:max_len]
        tokens[i, : len(cells)] = cells
        lengths[i] = len(cells)
    return tokens, lengths


class T2Vec(LearnedSimilarityMeasure):
    """GRU encoder–decoder over grid-cell tokens."""

    name = "t2vec"

    def __init__(
        self,
        grid: Grid,
        embedding_dim: int = 32,
        hidden_dim: int = 32,
        max_len: int = 64,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.grid = grid
        self.max_len = max_len
        self.output_dim = hidden_dim
        self.cell_embedding = nn.Embedding(grid.n_cells, embedding_dim, rng=rng)
        self.encoder = nn.GRU(embedding_dim, hidden_dim, rng=rng)
        self.decoder = nn.GRU(embedding_dim, hidden_dim, rng=rng)
        self.output_proj = nn.Linear(hidden_dim, grid.n_cells, rng=rng)
        self._neighbor_table: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Embedding API
    # ------------------------------------------------------------------
    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        tokens, lengths = _cell_sequences(trajectories, self.grid, self.max_len)
        embedded = self.cell_embedding(tokens)
        _, final_hidden = self.encoder(embedded, lengths=lengths)
        return final_hidden

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _smoothed_targets(self, tokens: np.ndarray) -> np.ndarray:
        """Spatial-proximity-aware targets: 0.8 on the true cell, 0.2 spread
        over its 8 grid neighbours (the t2vec loss's locality idea)."""
        if self._neighbor_table is None:
            self._neighbor_table = GridGraph(self.grid).neighbors_padded
        flat = tokens.reshape(-1)
        targets = np.zeros((len(flat), self.grid.n_cells))
        targets[np.arange(len(flat)), flat] = 0.8
        neighbors = self._neighbor_table[flat]  # (N, 8)
        valid = neighbors != GridGraph.PAD
        weights = 0.2 * valid / np.maximum(valid.sum(axis=1, keepdims=True), 1)
        rows = np.repeat(np.arange(len(flat)), 8)
        np.add.at(targets, (rows, np.maximum(neighbors, 0).reshape(-1)),
                  (weights * valid).reshape(-1))
        return targets.reshape(tokens.shape + (self.grid.n_cells,))

    def _denoise(self, points: np.ndarray, rng: np.random.Generator,
                 drop: float = 0.3) -> np.ndarray:
        keep = rng.random(len(points)) >= drop
        if keep.sum() < 2:
            keep[:2] = True
        return points[keep]

    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        epochs: int = 3,
        batch_size: int = 16,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> List[float]:
        """Denoising seq2seq training; returns per-epoch mean losses."""
        if not trajectories:
            raise ValueError("no training trajectories")
        rng = rng if rng is not None else np.random.default_rng(0)
        optimizer = nn.Adam(self.parameters(), lr=lr)
        point_lists = [as_points(t) for t in trajectories]

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            originals = [point_lists[i] for i in index]
            noisy = [self._denoise(p, rng) for p in originals]
            noisy_tokens, noisy_lengths = _cell_sequences(
                noisy, self.grid, self.max_len
            )
            target_tokens, target_lengths = _cell_sequences(
                originals, self.grid, self.max_len
            )
            encoded = self.cell_embedding(noisy_tokens)
            _, hidden = self.encoder(encoded, lengths=noisy_lengths)
            # Teacher forcing: decoder sees the (embedded) target sequence
            # shifted right; first input is the encoder summary itself.
            decoder_inputs = self.cell_embedding(
                np.concatenate(
                    [np.zeros((len(index), 1), dtype=np.int64),
                     target_tokens[:, :-1]],
                    axis=1,
                )
            )
            outputs, _ = self.decoder(decoder_inputs, lengths=target_lengths,
                                      h0=hidden)
            logits = self.output_proj(outputs)          # (B, L, n_cells)
            log_probs = F.log_softmax(logits, axis=-1)
            targets = self._smoothed_targets(target_tokens)
            mask = (
                np.arange(self.max_len)[None, :] < target_lengths[:, None]
            ).astype(np.float64)
            per_token = -(log_probs * nn.Tensor(targets)).sum(axis=-1)
            return (per_token * nn.Tensor(mask)).sum() * (1.0 / max(mask.sum(), 1))

        return [nn.train_epoch(optimizer, len(point_lists), batch_size, rng,
                               batch_loss)
                for _epoch in range(epochs)]
