"""TrajGAT baseline (Yao et al., KDD 2022) — graph attention for long-term
dependency.

TrajGAT models a trajectory as a graph (the original builds a PR-quadtree
hierarchy over the space and attends over graph neighbourhoods) so that
attention respects *spatial* structure rather than only sequence order.

Reproduction: attention over trajectory points whose logits carry an
additive **pairwise-distance bias** ``-‖p_i − p_j‖ / σ`` with a learnable
scale — i.e. graph attention over the spatial proximity graph in soft
form. This preserves the architectural essence (structure-aware attention,
strong at metrics dominated by point geometry such as Hausdorff — the
paper's Table X observation) without the quadtree machinery; the
simplification is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..measures.base import point_distances
from ..nn import functional as F
from ..trajectory.trajectory import TrajectoryLike
from .supervised import SupervisedApproximator


class SpatialBiasAttentionLayer(nn.Module):
    """One attention block with additive spatial-distance bias."""

    def __init__(self, dim: int, num_heads: int, dropout: float,
                 rng: np.random.Generator):
        super().__init__()
        self.attn = nn.MultiHeadSelfAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = nn.LayerNorm(dim)
        self.norm2 = nn.LayerNorm(dim)
        self.ffn = nn.FeedForward(dim, dropout=dropout, rng=rng)
        #: learnable inverse length-scale of the distance bias
        self.bias_scale = nn.Parameter(np.array(1.0))

    def forward(self, x: nn.Tensor, distance_bias: np.ndarray,
                key_padding_mask: Optional[np.ndarray]) -> nn.Tensor:
        # Recompute attention with the spatial bias folded into the logits.
        query = self.attn.split_heads(self.attn.w_query(x))
        key = self.attn.split_heads(self.attn.w_key(x))
        value = self.attn.split_heads(self.attn.w_value(x))
        logits = (query @ key.swapaxes(-1, -2)) * self.attn.scale
        logits = logits + self.bias_scale * nn.Tensor(distance_bias[:, None, :, :])
        mask_bias = F.attention_mask_bias(key_padding_mask, self.attn.num_heads)
        if mask_bias is not None:
            logits = logits + mask_bias
        weights = F.softmax(logits, axis=-1)
        context = self.attn.attn_drop(weights) @ value
        out = self.attn.w_out(self.attn.merge_heads(context))
        x = self.norm1(x + out)
        return self.norm2(x + self.ffn(x))


class TrajGAT(SupervisedApproximator):
    """Distance-biased graph attention approximator."""

    name = "trajgat"

    def __init__(
        self,
        hidden_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        max_len: int = 64,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.max_len = max_len
        self.output_dim = hidden_dim
        self.input_proj = nn.Linear(2, hidden_dim, rng=rng)
        self.layers = nn.ModuleList(
            SpatialBiasAttentionLayer(hidden_dim, num_heads, dropout, rng)
            for _ in range(num_layers)
        )

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        coords, lengths = self._scaled_batch(trajectories)
        batch, seq_len, _ = coords.shape
        # Negative pairwise distances as the graph bias: nearby points
        # attend to each other more (soft adjacency).
        bias = np.empty((batch, seq_len, seq_len))
        for i in range(batch):
            bias[i] = -point_distances(coords[i], coords[i])
        mask = np.arange(seq_len)[None, :] >= lengths[:, None]

        x = self.input_proj(nn.Tensor(coords))
        for layer in self.layers:
            x = layer(x, bias, mask)
        return F.mean_pool(x, lengths=lengths)
