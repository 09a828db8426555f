"""Fine-tuning TrajCL to approximate a heuristic measure (paper §V-F).

Setup per the paper: "We take the trained encoder of TrajCL ... and connect
it with a two-layer MLP where the size of each layer is the same as d. We
fine-tune the last layer of the encoder and train the MLP to predict a
given heuristic similarity value, optimizing the MSE loss."

Concretely, the refined embedding is ``g = MLP(F(T))`` and the predicted
distance between two trajectories is ``||g_a - g_b||_1``, trained by MSE
against the (scale-normalized) heuristic distance. Embedding once and
comparing in O(d) preserves the "fast estimator" property the paper is
after. Two modes:

* ``mode="last_layer"`` — **TrajCL** in Table X: only the encoder's final
  block plus the MLP receive gradients;
* ``mode="all"`` — **TrajCL*** in Table X: the whole encoder is unfrozen.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..trajectory.trajectory import TrajectoryLike
from .learned import (
    FinetuneHistory,
    HeuristicRegressor,
    l1_regression_loss,
    regression_pairs,
)
from .model import TrajCL

if TYPE_CHECKING:  # a serving process that loads the model loads no measure
    from ..measures.base import TrajectorySimilarityMeasure

FINETUNE_MODES = ("last_layer", "all", "head_only")


class _RegressionHead(HeuristicRegressor):
    """A backbone plus "a two-layer MLP where the size of each layer is
    the same as d", fit to regress a heuristic measure."""

    #: global gradient-norm bound of :meth:`fit` (``None``: no clipping)
    max_norm: Optional[float] = 5.0

    def __init__(self, base, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.base = base
        self.mlp = nn.Sequential(
            nn.Linear(dim, dim, rng=rng),
            nn.ReLU(),
            nn.Linear(dim, dim, rng=rng),
        )

    def trainable_parameters(self) -> List[nn.Parameter]:
        return self.mlp.parameters()

    def _pair_embedder(self, trajectories) -> Callable[[np.ndarray], nn.Tensor]:
        """Differentiable refined embeddings of ``trajectories[indices]``."""
        return lambda index: self.embed_batch([trajectories[i] for i in index])

    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        measure: TrajectorySimilarityMeasure,
        epochs: int = 5,
        pairs_per_epoch: int = 512,
        batch_size: int = 32,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> FinetuneHistory:
        """Regress the heuristic ``measure`` on random pairs of ``trajectories``.

        The pairs and their heuristic targets (the expensive calls) are
        sampled once; every epoch revisits them in a new order.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        left, right, targets, self.target_scale = regression_pairs(
            trajectories, measure, pairs_per_epoch, rng)
        embed = self._pair_embedder(trajectories)
        optimizer = nn.Adam(self.trainable_parameters(), lr=lr)

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            return l1_regression_loss(embed(left[index]), embed(right[index]),
                                      targets[index])

        return FinetuneHistory([
            nn.train_epoch(optimizer, len(left), batch_size, rng, batch_loss,
                           max_norm=self.max_norm)
            for _epoch in range(epochs)])


class FrozenBackboneApproximator(_RegressionHead):
    """Heuristic approximation head over any pre-trained embedding model.

    Used for the Table X rows of the *self-supervised baselines* (t2vec,
    TrjSR, E2DTC, CSTRM): their pre-trained encoder is frozen and a
    two-layer MLP is trained on top to regress a heuristic measure, the
    "Pre-trained + fine-tuning" protocol of §V-F. (Backpropagating through
    the recurrent baselines would be needlessly slow; the MLP head carries
    the adaptation, a documented simplification.)

    ``base`` may be anything exposing ``encode(trajectories) -> (N, d)``.
    It is kept frozen and chunks its own encode, so the head maps a whole
    ``encode`` call at once.
    """

    max_norm = None
    encode_chunk = sys.maxsize

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        return self.mlp(nn.Tensor(self.base.encode(list(trajectories))))

    def _pair_embedder(self, trajectories):
        # the base is frozen: embed every trajectory once, not per batch
        base_embeddings = self.base.encode(list(trajectories))
        return lambda index: self.mlp(nn.Tensor(base_embeddings[index]))


class HeuristicApproximator(_RegressionHead):
    """TrajCL backbone + 2-layer MLP head regressing a heuristic measure."""

    encode_chunk = 256

    def __init__(
        self,
        model: TrajCL,
        mode: str = "last_layer",
        rng: Optional[np.random.Generator] = None,
    ):
        if mode not in FINETUNE_MODES:
            raise ValueError(f"mode must be one of {FINETUNE_MODES}")
        super().__init__(
            model, model.encoder.output_dim,
            rng if rng is not None else np.random.default_rng(model.config.seed + 1))
        self.mode = mode
        self._configure_freezing()

    def _configure_freezing(self) -> None:
        for param in self.base.encoder.parameters():
            param.requires_grad = False
        if self.mode == "all":
            for param in self.base.encoder.parameters():
                param.requires_grad = True
        elif self.mode == "last_layer":
            for param in self.base.encoder.last_layer_parameters():
                param.requires_grad = True

    def trainable_parameters(self) -> List[nn.Parameter]:
        params = [p for p in self.base.encoder.parameters() if p.requires_grad]
        return params + self.mlp.parameters()

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        """Differentiable path: backbone embedding → MLP refinement."""
        structural, spatial, mask, lengths = self.base.features.encode_batch(trajectories)
        h = self.base.encoder(
            nn.Tensor(structural), nn.Tensor(spatial),
            key_padding_mask=mask, lengths=lengths,
        )
        return self.mlp(h)
