"""TrajCL — the full contrastive trajectory similarity model (paper §III).

Implements the MoCo-style dual-branch framework of Fig. 2:

* an online branch (backbone encoder ``F`` + projection head ``P``) trained
  by gradient descent;
* a momentum branch (``F'`` + ``P'``) updated by the exponential moving
  average of Eq. 3 (m = 0.999) and never by gradients;
* a fixed-size FIFO **negative queue** of recent momentum projections
  (§III, "we use a queue Q_neg of a fixed size to store negative samples");
* the InfoNCE objective of Eq. 2 over cosine similarities with
  temperature τ.

After training, ``encode`` exposes the detached feature-enrichment +
backbone pipeline: trajectory → embedding ``h``, compared with L1 distance
(the paper's similarity convention). :func:`build_trajcl` builds it all
from raw trajectories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.losses import info_nce_loss
from ..index import distance
from ..trajectory.grid import Grid
from ..trajectory.trajectory import TrajectoryLike
from .config import TrajCLConfig
from .encoder import build_encoder
from .features import FeatureEnrichment
from .infer import InferenceEncoder, resolve_dtype

if TYPE_CHECKING:
    from .trainer import TrainHistory


class NegativeQueue:
    """Fixed-capacity FIFO of L2-normalized momentum projections."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.dim = dim
        self._buffer = np.zeros((capacity, dim), dtype=np.float64)
        self._size = 0
        self._pointer = 0

    def push(self, vectors: np.ndarray) -> None:
        """Enqueue rows (oldest entries are overwritten once full)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        if self.capacity == 0 or len(vectors) == 0:
            return
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors = vectors / np.maximum(norms, 1e-8)
        if len(vectors) >= self.capacity:
            # Only the newest ``capacity`` rows survive a full lap; they land
            # so that the row *after* the final pointer is the oldest.
            self._pointer = (self._pointer + len(vectors)) % self.capacity
            self._buffer[:] = np.roll(vectors[-self.capacity:], self._pointer,
                                      axis=0)
            self._size = self.capacity
            return
        first = min(len(vectors), self.capacity - self._pointer)
        self._buffer[self._pointer:self._pointer + first] = vectors[:first]
        if first < len(vectors):  # wrap around to the front
            self._buffer[:len(vectors) - first] = vectors[first:]
        self._pointer = (self._pointer + len(vectors)) % self.capacity
        self._size = min(self._size + len(vectors), self.capacity)

    def negatives(self) -> Optional[np.ndarray]:
        """Current contents ``(size, dim)`` or None when empty."""
        if self._size == 0:
            return None
        return self._buffer[: self._size]

    def __len__(self) -> int:
        return self._size


class TrajCL(nn.Module):
    """The complete TrajCL model (feature pipeline + dual branches + queue)."""

    def __init__(
        self,
        features: FeatureEnrichment,
        config: Optional[TrajCLConfig] = None,
        encoder_variant: str = "dual",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        config = config if config is not None else TrajCLConfig()
        if features.structural_dim != config.structural_dim:
            raise ValueError(
                f"cell embedding dim {features.structural_dim} != "
                f"config.structural_dim {config.structural_dim}"
            )
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.config = config
        self.features = features
        self.encoder_variant = encoder_variant

        encoder_kwargs = dict(
            structural_dim=config.structural_dim,
            spatial_dim=features.spatial_dim,
            num_heads=config.num_heads,
            num_layers=config.num_layers,
            dropout=config.dropout,
            ffn_multiplier=config.ffn_multiplier,
            rng=rng,
        )
        if encoder_variant == "dual":
            encoder_kwargs["num_spatial_layers"] = config.num_spatial_layers
        self.encoder = build_encoder(encoder_variant, **encoder_kwargs)
        self.projector = nn.ProjectionHead(
            self.encoder.output_dim, config.projection_dim, rng=rng
        )

        # Momentum branch: same architecture, copied weights, no gradients,
        # permanently in eval mode (no dropout noise on the keys).
        self.momentum_encoder = build_encoder(encoder_variant, **encoder_kwargs)
        self.momentum_projector = nn.ProjectionHead(
            self.encoder.output_dim, config.projection_dim, rng=rng
        )
        self.momentum_encoder.load_state_dict(self.encoder.state_dict())
        self.momentum_projector.load_state_dict(self.projector.state_dict())
        for param in self.momentum_encoder.parameters():
            param.requires_grad = False
        for param in self.momentum_projector.parameters():
            param.requires_grad = False
        self.momentum_encoder.eval()
        self.momentum_projector.eval()

        self.queue = NegativeQueue(config.queue_size, config.projection_dim)
        self._inference_cache: dict = {}

    # ------------------------------------------------------------------
    # Branch forwards
    # ------------------------------------------------------------------
    def trainable_parameters(self) -> List[nn.Parameter]:
        """Parameters updated by SGD: online encoder + projector (Eq. 3 note)."""
        return self.encoder.parameters() + self.projector.parameters()

    def _embed_online(self, views: Sequence[TrajectoryLike]) -> nn.Tensor:
        structural, spatial, mask, lengths = self.features.encode_batch(views)
        return self.encoder(
            nn.Tensor(structural), nn.Tensor(spatial),
            key_padding_mask=mask, lengths=lengths,
        )

    def _embed_momentum(self, views: Sequence[TrajectoryLike]) -> np.ndarray:
        structural, spatial, mask, lengths = self.features.encode_batch(views)
        with nn.no_grad():
            h = self.momentum_encoder(
                nn.Tensor(structural), nn.Tensor(spatial),
                key_padding_mask=mask, lengths=lengths,
            )
            z = self.momentum_projector(h)
        return z.data

    # ------------------------------------------------------------------
    # Training API
    # ------------------------------------------------------------------
    def contrastive_loss(
        self,
        views_online: Sequence[TrajectoryLike],
        views_momentum: Sequence[TrajectoryLike],
        update_queue: bool = True,
    ) -> nn.Tensor:
        """InfoNCE loss of one batch of (view, view') pairs (Eq. 2).

        The momentum projections become negatives for *later* batches: the
        queue is updated after the loss is formed, per MoCo.
        """
        z_online = self.projector(self._embed_online(views_online))
        z_momentum = self._embed_momentum(views_momentum)
        loss = info_nce_loss(
            z_online,
            nn.Tensor(z_momentum),
            self.queue.negatives(),
            temperature=self.config.temperature,
        )
        if update_queue:
            self.queue.push(z_momentum)
        return loss

    def momentum_update(self) -> None:
        """Eq. 3: Θ' ← m·Θ' + (1-m)·Θ for encoder and projector."""
        m = self.config.momentum
        pairs = [
            (self.momentum_encoder, self.encoder),
            (self.momentum_projector, self.projector),
        ]
        for momentum_module, online_module in pairs:
            online = dict(online_module.named_parameters())
            for name, param in momentum_module.named_parameters():
                param.data *= m
                param.data += (1.0 - m) * online[name].data

    # ------------------------------------------------------------------
    # Inference API
    # ------------------------------------------------------------------
    def inference_encoder(self, dtype=None) -> Optional[InferenceEncoder]:
        """The compiled numpy engine for the current weights (or None).

        Engines are cached per dtype and keyed on a version, not on the
        weights: :func:`repro.nn.parameter_version` moves with every
        parameter write (``param.data`` assignment, ``load_state_dict``,
        the optimiser steps), and a swapped encoder, feature pipeline or
        cell table changes the key (:meth:`InferenceEncoder.is_current`).
        So training between ``encode`` calls transparently triggers a
        recompile, and a cache hit costs a few compares. Returns None when
        the encoder variant cannot be exported (custom encoders fall back
        to the reference path).
        """
        dtype = resolve_dtype(dtype)
        if not InferenceEncoder.supports(self):
            return None
        cached = self._inference_cache.get(dtype.name)
        if cached is not None and cached.is_current(self):
            return cached
        engine = InferenceEncoder.from_model(self, dtype=dtype)
        self._inference_cache[dtype.name] = engine
        return engine

    def encode(
        self,
        trajectories: Sequence[TrajectoryLike],
        batch_size: int = 256,
        fast: bool = True,
        dtype=None,
    ) -> np.ndarray:
        """Embed trajectories with the trained backbone ``F``: ``(N, d)``
        float32 rows.

        This is the detached encoder of Fig. 2 — no projection head, per
        standard contrastive-learning practice (the head is only for the
        loss space).

        The autograd-free :class:`~repro.core.infer.InferenceEncoder`
        does the work — fused numpy forward, ``batch_size`` trajectories
        featurised at a time and run in length buckets, each padded to
        its own maximum length and sized by the engine to stay
        cache-resident. ``fast=False`` (the float64 Tensor graph, where
        ``batch_size`` is the exact chunk width; also the automatic
        fallback for unexported encoder variants) and ``dtype="float64"``
        are what the parity suite compares it against, not serving
        options: whichever route runs, rows come back in ``dtype``.
        """
        if fast:
            engine = self.inference_encoder(dtype)
            if engine is not None:
                return engine.encode(trajectories, batch_size=batch_size)
        was_training = self.encoder.training
        self.encoder.eval()
        chunks = []
        with nn.no_grad():
            for start in range(0, len(trajectories), batch_size):
                batch = trajectories[start:start + batch_size]
                chunks.append(self._embed_online(batch).data.copy())
        if was_training:
            self.encoder.train()
        return np.concatenate(chunks, axis=0).astype(resolve_dtype(dtype),
                                                     copy=False)

    @property
    def dtype(self) -> np.dtype:
        """Dtype of :meth:`encode`'s rows when the caller names none."""
        return resolve_dtype(None)

    def distance_matrix(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        """L1 embedding distances ``(|Q|, |D|)`` — the paper's similarity.

        Computed by the blocked kernel of :mod:`repro.index.distance` (no
        ``(|Q|, |D|, d)`` broadcast), in the encoder's dtype.
        """
        return distance.pairwise(self.encode(queries), self.encode(database))


def build_trajcl(trajectories: Sequence[TrajectoryLike], grid: Grid,
                 config: Optional[TrajCLConfig] = None, *,
                 encoder_variant: str = "dual", epochs: Optional[int] = None,
                 train: bool = True, seed: int = 0,
                 ) -> Tuple[TrajCL, Optional[TrainHistory]]:
    """node2vec cells over ``grid`` (``seed + 1``) → :class:`TrajCL`
    (``seed + 2``) → pre-training (``seed + 3``; no history unless
    ``train``). ``config`` defaults to :meth:`TrajCLConfig.reduced`."""
    from ..graph import node2vec_embeddings
    from .trainer import TrajCLTrainer

    config = config if config is not None else TrajCLConfig.reduced()
    cells = node2vec_embeddings(grid, dim=config.structural_dim, seed=seed + 1)
    model = TrajCL(FeatureEnrichment(grid, cells, max_len=config.max_len),
                   config, encoder_variant=encoder_variant,
                   rng=np.random.default_rng(seed + 2))
    if not train:
        return model, None
    trainer = TrajCLTrainer(model, rng=np.random.default_rng(seed + 3))
    return model, trainer.fit(trajectories, epochs=epochs)
