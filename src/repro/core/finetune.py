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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from .. import nn
from ..index import distance
from ..trajectory.trajectory import TrajectoryLike
from .model import TrajCL

if TYPE_CHECKING:  # a serving process that loads the model loads no measure
    from ..measures.base import TrajectorySimilarityMeasure

FINETUNE_MODES = ("last_layer", "all", "head_only")


class FrozenBackboneApproximator(nn.Module):
    """Heuristic approximation head over any pre-trained embedding model.

    Used for the Table X rows of the *self-supervised baselines* (t2vec,
    TrjSR, E2DTC, CSTRM): their pre-trained encoder is frozen and a
    two-layer MLP is trained on top to regress a heuristic measure, the
    "Pre-trained + fine-tuning" protocol of §V-F. (Backpropagating through
    the recurrent baselines would be needlessly slow; the MLP head carries
    the adaptation, a documented simplification.)

    ``base`` may be anything exposing ``encode(trajectories) -> (N, d)``.
    """

    def __init__(self, base, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.base = base if not isinstance(base, nn.Module) else base  # kept frozen
        self._base_encode = base.encode
        self.mlp = nn.Sequential(
            nn.Linear(dim, dim, rng=rng),
            nn.ReLU(),
            nn.Linear(dim, dim, rng=rng),
        )
        self.target_scale: float = 1.0

    def trainable_parameters(self) -> List[nn.Parameter]:
        return self.mlp.parameters()

    def encode(self, trajectories: Sequence[TrajectoryLike]) -> np.ndarray:
        base_embeddings = self._base_encode(list(trajectories))
        with nn.no_grad():
            refined = self.mlp(nn.Tensor(base_embeddings))
        return refined.data.copy()

    def distance_matrix(self, queries, database) -> np.ndarray:
        return self.target_scale * distance.pairwise(
            self.encode(queries), self.encode(database)
        )

    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        measure: TrajectorySimilarityMeasure,
        epochs: int = 5,
        pairs_per_epoch: int = 512,
        batch_size: int = 32,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> "FinetuneHistory":
        """MSE-regress the measure on frozen base embeddings."""
        if len(trajectories) < 2:
            raise ValueError("need at least two trajectories to form pairs")
        rng = rng if rng is not None else np.random.default_rng(0)
        base_embeddings = self._base_encode(list(trajectories))

        n = len(trajectories)
        left = rng.integers(0, n, size=pairs_per_epoch)
        right = rng.integers(0, n, size=pairs_per_epoch)
        distinct = left != right
        left, right = left[distinct], right[distinct]
        targets = np.array([
            measure.distance(trajectories[i], trajectories[j])
            for i, j in zip(left, right)
        ])
        self.target_scale = float(targets.mean()) or 1.0
        targets = targets / self.target_scale

        optimizer = nn.Adam(self.trainable_parameters(), lr=lr)
        history = FinetuneHistory()
        for _epoch in range(epochs):
            order = rng.permutation(len(left))
            epoch_losses = []
            for start in range(0, len(order), batch_size):
                index = order[start:start + batch_size]
                optimizer.zero_grad()
                emb_left = self.mlp(nn.Tensor(base_embeddings[left[index]]))
                emb_right = self.mlp(nn.Tensor(base_embeddings[right[index]]))
                predicted = (emb_left - emb_right).abs().sum(axis=-1)
                diff = predicted - nn.Tensor(targets[index])
                loss = (diff * diff).mean()
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            history.losses.append(float(np.mean(epoch_losses)))
        return history


@dataclass
class FinetuneHistory:
    """Per-epoch MSE losses from :meth:`HeuristicApproximator.fit`."""

    losses: List[float] = field(default_factory=list)


class HeuristicApproximator(nn.Module):
    """TrajCL backbone + 2-layer MLP head regressing a heuristic measure."""

    def __init__(
        self,
        model: TrajCL,
        mode: str = "last_layer",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if mode not in FINETUNE_MODES:
            raise ValueError(f"mode must be one of {FINETUNE_MODES}")
        rng = rng if rng is not None else np.random.default_rng(model.config.seed + 1)
        self.base = model
        self.mode = mode
        dim = model.encoder.output_dim
        # "a two-layer MLP where the size of each layer is the same as d"
        self.mlp = nn.Sequential(
            nn.Linear(dim, dim, rng=rng),
            nn.ReLU(),
            nn.Linear(dim, dim, rng=rng),
        )
        #: learned scale of the heuristic targets (set during fit)
        self.target_scale: float = 1.0
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

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def refined_embeddings(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        """Differentiable path: backbone embedding → MLP refinement."""
        structural, spatial, mask, lengths = self.base.features.encode_batch(trajectories)
        h = self.base.encoder(
            nn.Tensor(structural), nn.Tensor(spatial),
            key_padding_mask=mask, lengths=lengths,
        )
        return self.mlp(h)

    def encode(self, trajectories: Sequence[TrajectoryLike],
               batch_size: int = 256) -> np.ndarray:
        """Inference path: refined embeddings as a numpy array."""
        self.eval()
        chunks = []
        with nn.no_grad():
            for start in range(0, len(trajectories), batch_size):
                chunk = trajectories[start:start + batch_size]
                chunks.append(self.refined_embeddings(chunk).data.copy())
        self.train()
        return np.concatenate(chunks, axis=0)

    def distance_matrix(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        """Predicted heuristic distances ``(|Q|, |D|)`` (L1 in refined space)."""
        return self.target_scale * distance.pairwise(
            self.encode(queries), self.encode(database)
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
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

        Targets are normalized by their mean so the MSE scale is measure-
        independent; the scale is retained for :meth:`distance_matrix`.
        """
        if len(trajectories) < 2:
            raise ValueError("need at least two trajectories to form pairs")
        rng = rng if rng is not None else np.random.default_rng(0)
        optimizer = nn.Adam(self.trainable_parameters(), lr=lr)
        history = FinetuneHistory()

        # Pre-sample the supervision pairs and their heuristic targets once
        # (the expensive O(n^2)-per-pair heuristic calls).
        n = len(trajectories)
        left = rng.integers(0, n, size=pairs_per_epoch)
        right = rng.integers(0, n, size=pairs_per_epoch)
        distinct = left != right
        left, right = left[distinct], right[distinct]
        targets = np.array([
            measure.distance(trajectories[i], trajectories[j])
            for i, j in zip(left, right)
        ])
        self.target_scale = float(targets.mean()) or 1.0
        targets = targets / self.target_scale

        for _epoch in range(epochs):
            order = rng.permutation(len(left))
            epoch_losses = []
            for start in range(0, len(order), batch_size):
                index = order[start:start + batch_size]
                batch_left = [trajectories[i] for i in left[index]]
                batch_right = [trajectories[j] for j in right[index]]

                optimizer.zero_grad()
                emb_left = self.refined_embeddings(batch_left)
                emb_right = self.refined_embeddings(batch_right)
                predicted = (emb_left - emb_right).abs().sum(axis=-1)
                diff = predicted - nn.Tensor(targets[index])
                loss = (diff * diff).mean()
                loss.backward()
                nn.clip_grad_norm(self.trainable_parameters(), max_norm=5.0)
                optimizer.step()
                epoch_losses.append(loss.item())
            history.losses.append(float(np.mean(epoch_losses)))
        return history
