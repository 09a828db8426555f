"""Configuration for TrajCL models and training.

Defaults follow the paper's §V-A settings where they matter for behaviour
(augmentation pair, ρ parameters, heads, layers, temperature, momentum,
schedule), with *scale* parameters (embedding dim, queue size, batch size)
reduced to CPU-trainable sizes. The builders start from
:meth:`TrajCLConfig.reduced` (:func:`repro.core.build_trajcl`, so
``build_city_pipeline`` and the ``trajcl`` backend factory);
:meth:`TrajCLConfig.paper_scale` is the paper's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass
class TrajCLConfig:
    """All knobs of the TrajCL pipeline in one place."""

    # ---------------- feature enrichment (paper §IV-B) ----------------
    # grid, cell size and the 4 spatial columns belong to FeatureEnrichment
    #: structural (cell) embedding dimensionality d_t; this is also the
    #: model width d, since C_ts lives in R^{l x d_t}
    structural_dim: int = 32
    #: maximum points per trajectory l; longer inputs are truncated,
    #: shorter ones zero-padded (paper §IV-C)
    max_len: int = 64

    # ---------------- backbone encoder (paper §IV-C) ----------------
    #: attention heads h (paper: 4)
    num_heads: int = 4
    #: stacked DualSTB layers L (paper: 2)
    num_layers: int = 2
    #: stacked layers of the spatial MSM branch inside DualMSM (paper: 2)
    num_spatial_layers: int = 2
    #: dropout probability in residual blocks
    dropout: float = 0.1
    #: hidden width multiplier of the FFN blocks
    ffn_multiplier: int = 4

    # ---------------- contrastive head (paper §III) ----------------
    #: projection-head output dimensionality (z); paper uses a lower-
    #: dimensional space than d
    projection_dim: int = 16
    #: InfoNCE temperature τ
    temperature: float = 0.07
    #: negative queue capacity |Q_neg| (paper default 2048; scaled down)
    queue_size: int = 512
    #: MoCo momentum coefficient m (paper: 0.999)
    momentum: float = 0.999

    # ---------------- augmentation (paper §IV-A) ----------------
    #: default view-generating augmentations (paper best pair: mask + truncate)
    augmentations: Tuple[str, str] = ("mask", "truncate")
    #: max point-shift offset ρ_m in coordinate units (paper: 100 m)
    shift_radius: float = 100.0
    #: Gaussian σ of the (pre-truncation) shift distribution (paper: 0.5)
    shift_sigma: float = 0.5
    #: point-mask drop proportion ρ_d (paper: 0.3)
    mask_ratio: float = 0.3
    #: truncation keep proportion ρ_b (paper: 0.7)
    truncate_keep: float = 0.7
    #: Douglas–Peucker threshold ρ_p (paper: 100 m)
    simplify_epsilon: float = 100.0

    # ---------------- training (paper §V-A) ----------------
    learning_rate: float = 1e-3
    lr_step_epochs: int = 5
    lr_gamma: float = 0.5
    batch_size: int = 32
    max_epochs: int = 5
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.structural_dim % self.num_heads:
            raise ValueError("structural_dim must be divisible by num_heads")
        if 4 % self.num_heads:
            raise ValueError("num_heads must divide the 4 spatial columns")
        if not 0 < self.truncate_keep < 1:
            raise ValueError("truncate_keep must be in (0, 1)")
        if not 0 <= self.mask_ratio < 1:
            raise ValueError("mask_ratio must be in [0, 1)")
        if not 0 < self.momentum < 1:
            raise ValueError("momentum must be in (0, 1)")

    def with_overrides(self, **kwargs) -> "TrajCLConfig":
        """Functional update (dataclasses.replace wrapper)."""
        return replace(self, **kwargs)

    @classmethod
    def reduced(cls) -> "TrajCLConfig":
        """The builders' preset: smaller queue and batch, 3 epochs, m 0.95."""
        return cls(queue_size=256, batch_size=16, max_epochs=3, momentum=0.95)

    @classmethod
    def paper_scale(cls) -> "TrajCLConfig":
        """The configuration of the paper's experiments (GPU scale)."""
        return cls(
            structural_dim=256,
            max_len=200,
            projection_dim=128,
            queue_size=2048,
            batch_size=128,
            max_epochs=20,
        )
