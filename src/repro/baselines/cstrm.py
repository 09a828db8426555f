"""CSTRM baseline (Liu et al., Computer Communications 2022).

CSTRM is the closest prior work to TrajCL: contrastive self-supervised
trajectory representation with a *vanilla* multi-head self-attention
encoder over grid-cell embeddings, positive views generated by point
shifting and point masking, and a hinge (margin) multi-view loss.

The differences the paper leverages (§V-B discussion) are reproduced
structurally:

* **vanilla MSM only** — no dual-feature attention, no fine-grained
  spatial stream;
* **trainable cell-embedding table learned from scratch** — this is the
  parameter-heavy module that triggers CSTRM's out-of-memory failure on
  the country-scale Germany grid in the paper (n_cells × d parameters);
  :meth:`check_memory` reproduces the guard;
* **shift + mask** as the two views;
* margin-based contrastive loss with in-batch negatives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..core.augmentation import point_mask, point_shift
from ..core.learned import LearnedSimilarityMeasure
from ..nn import functional as F
from ..trajectory.grid import Grid
from ..trajectory.trajectory import TrajectoryLike, as_points
from .t2vec import _cell_sequences


class MemoryBudgetExceeded(RuntimeError):
    """Raised when the cell-embedding table would exceed the memory budget
    (the paper's CSTRM-on-Germany OOM, Table III footnote)."""


class CSTRM(LearnedSimilarityMeasure):
    """Vanilla-attention contrastive trajectory model."""

    name = "cstrm"

    def __init__(
        self,
        grid: Grid,
        embedding_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        max_len: int = 64,
        margin: float = 0.5,
        dropout: float = 0.1,
        max_cell_parameters: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.check_memory(grid.n_cells, embedding_dim, max_cell_parameters)
        self.grid = grid
        self.max_len = max_len
        self.margin = margin
        self.output_dim = embedding_dim
        self.cell_embedding = nn.Embedding(grid.n_cells, embedding_dim, rng=rng)
        self.encoder = nn.TransformerEncoder(
            embedding_dim, num_heads, num_layers, dropout=dropout, rng=rng
        )

    @staticmethod
    def check_memory(
        n_cells: int,
        embedding_dim: int,
        max_cell_parameters: Optional[int],
    ) -> None:
        """Reject grids whose from-scratch cell table exceeds the budget."""
        if max_cell_parameters is not None and n_cells * embedding_dim > max_cell_parameters:
            raise MemoryBudgetExceeded(
                f"cell table needs {n_cells * embedding_dim} parameters "
                f"(> budget {max_cell_parameters}); this reproduces CSTRM's "
                f"out-of-memory failure on country-scale grids"
            )

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        tokens, lengths = _cell_sequences(trajectories, self.grid, self.max_len)
        mask = np.arange(self.max_len)[None, :] >= lengths[:, None]
        hidden, _ = self.encoder(self.cell_embedding(tokens), key_padding_mask=mask)
        return F.mean_pool(hidden, lengths=lengths)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        epochs: int = 3,
        batch_size: int = 16,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> List[float]:
        """Hinge multi-view contrastive training with in-batch negatives."""
        if len(trajectories) < 2:
            raise ValueError("need at least two trajectories")
        rng = rng if rng is not None else np.random.default_rng(0)
        optimizer = nn.Adam(self.parameters(), lr=lr)
        point_lists = [as_points(t) for t in trajectories]

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            anchors = [point_shift(point_lists[i], rng) for i in index]
            positives = [point_mask(point_lists[i], rng) for i in index]
            z_a = F.normalize(self.embed_batch(anchors))
            z_p = F.normalize(self.embed_batch(positives))
            sims = z_a @ z_p.swapaxes(0, 1)               # (B, B) cosines
            positive = sims[np.arange(len(index)), np.arange(len(index))]
            # hinge: every off-diagonal negative must trail the positive
            # by at least the margin
            negative_mask = ~np.eye(len(index), dtype=bool)
            violations = (
                sims - positive.expand_dims(1) + self.margin
            ).relu() * nn.Tensor(negative_mask.astype(np.float64))
            return violations.sum() * (1.0 / max(negative_mask.sum(), 1))

        return [nn.train_epoch(optimizer, len(point_lists), batch_size, rng,
                               batch_loss, min_batch=2)
                for _epoch in range(epochs)]
