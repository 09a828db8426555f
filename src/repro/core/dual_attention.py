"""DualMSM — the dual-feature multi-head self-attention module (paper §IV-C).

DualMSM receives the structural stream ``T`` and the spatial stream ``S``
and produces the fused hidden output ``C_ts`` (plus the propagated spatial
hidden states). Per the paper:

1. structural Q/K/V are linear maps of ``T`` (per head); the structural
   attention coefficients are ``A_t = softmax(Q_t K_t^T / sqrt(d_t/h))``
   (Eq. 12);
2. the spatial branch is a stacked *vanilla* transformer encoder over ``S``
   (bottom-right of Fig. 4, "we stack these layers in DualMSM — two layers
   in the experiments"); its last layer provides ``A_s``;
3. the two coefficient matrices are fused adaptively with a learnable γ and
   applied to the structural values: ``C_ts^i = (A_t^i + γ A_s^i) V_t^i``
   (Eq. 15), heads concatenated through ``W_o`` (Eq. 14 analogue).

This is the mechanism the ablation (Fig. 7) isolates against vanilla MSM
and against feature concatenation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F


class DualMSM(nn.Module):
    """Dual-feature multi-head self-attention."""

    def __init__(
        self,
        structural_dim: int,
        spatial_dim: int,
        num_heads: int,
        num_spatial_layers: int = 2,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if structural_dim % num_heads or spatial_dim % num_heads:
            raise ValueError("feature dims must be divisible by num_heads")
        if num_spatial_layers < 1:  # Eq. 15 fuses the last one's A_s
            raise ValueError("DualMSM needs num_spatial_layers >= 1, got "
                             f"{num_spatial_layers}")
        rng = rng if rng is not None else np.random.default_rng()
        self.structural_dim = structural_dim
        self.num_heads = num_heads
        self.head_dim = structural_dim // num_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)

        self.w_query = nn.Linear(structural_dim, structural_dim, bias=False, rng=rng)
        self.w_key = nn.Linear(structural_dim, structural_dim, bias=False, rng=rng)
        self.w_value = nn.Linear(structural_dim, structural_dim, bias=False, rng=rng)
        self.w_out = nn.Linear(structural_dim, structural_dim, bias=False, rng=rng)
        self.spatial_encoder = nn.TransformerEncoder(
            spatial_dim, num_heads, num_spatial_layers, dropout=dropout, rng=rng
        )
        #: the adaptive fusion weight γ of Eq. 15
        self.gamma = nn.Parameter(np.array(1.0))
        self.attn_drop = nn.Dropout(dropout, rng=rng)

    def _split_heads(self, x: nn.Tensor) -> nn.Tensor:
        batch, seq_len, _ = x.shape
        return x.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        structural: nn.Tensor,
        spatial: nn.Tensor,
        key_padding_mask: Optional[np.ndarray] = None,
    ) -> Tuple[nn.Tensor, nn.Tensor]:
        """Return ``(C_ts, spatial_hidden)``.

        ``C_ts``: ``(B, L, d_t)`` fused output; ``spatial_hidden``:
        ``(B, L, d_s)`` output of the internal spatial encoder, which the
        next DualSTB layer consumes as its spatial stream.
        """
        query = self._split_heads(self.w_query(structural))
        key = self._split_heads(self.w_key(structural))
        value = self._split_heads(self.w_value(structural))

        logits = (query @ key.swapaxes(-1, -2)) * self.scale
        bias = F.attention_mask_bias(key_padding_mask, self.num_heads)
        if bias is not None:
            logits = logits + bias
        attn_structural = F.softmax(logits, axis=-1)  # A_t, Eq. 12

        spatial_hidden, attn_spatial = self.spatial_encoder(
            spatial, key_padding_mask=key_padding_mask
        )  # A_s of the last stacked spatial layer

        fused = attn_structural + self.gamma * attn_spatial  # Eq. 15 coefficients
        context = self.attn_drop(fused) @ value
        batch, _, seq_len, _ = context.shape
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.structural_dim)
        return self.w_out(merged), spatial_hidden
