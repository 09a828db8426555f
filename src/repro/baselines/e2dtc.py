"""E2DTC baseline (Fang et al., ICDE 2021) — t2vec + self-training clustering.

E2DTC reuses the t2vec backbone encoder and adds cluster-oriented losses
(a DEC-style self-training KL term) so embeddings organize into clusters.
The paper observes it behaves like t2vec on similarity search ("t2vec and
E2DTC share similar results, as they use the same backbone encoder",
§V-B) and is slightly worse — the clustering objective is not optimized
for similarity ranking. This implementation reproduces exactly that
structure: t2vec pre-training followed by DEC refinement rounds
(Student-t soft assignments sharpened toward the target distribution).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..trajectory import Grid
from ..trajectory.trajectory import TrajectoryLike
from .t2vec import T2Vec


def _kmeans_centers(points: np.ndarray, k: int, rng: np.random.Generator,
                    iterations: int = 20) -> np.ndarray:
    """Plain k-means for cluster initialization (Lloyd's algorithm)."""
    k = min(k, len(points))
    centers = points[rng.choice(len(points), size=k, replace=False)].copy()
    for _ in range(iterations):
        distances = np.linalg.norm(points[:, None] - centers[None], axis=2)
        assignment = distances.argmin(axis=1)
        for j in range(k):
            members = points[assignment == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers


class E2DTC(T2Vec):
    """t2vec backbone + DEC-style cluster self-training."""

    name = "e2dtc"

    def __init__(
        self,
        grid: Grid,
        n_clusters: int = 8,
        embedding_dim: int = 32,
        hidden_dim: int = 32,
        max_len: int = 64,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(grid, embedding_dim=embedding_dim, hidden_dim=hidden_dim,
                         max_len=max_len, rng=rng)
        self.n_clusters = n_clusters
        self.cluster_centers: Optional[np.ndarray] = None

    def _soft_assignment(self, embeddings: nn.Tensor) -> nn.Tensor:
        """Student-t similarity q_ij between embeddings and cluster centres."""
        centers = nn.Tensor(self.cluster_centers)
        diff = embeddings.expand_dims(1) - centers.expand_dims(0)  # (B, K, d)
        sq = (diff * diff).sum(axis=-1)
        q = 1.0 / (1.0 + sq)
        return q / q.sum(axis=1, keepdims=True)

    @staticmethod
    def _target_distribution(q: np.ndarray) -> np.ndarray:
        """DEC sharpening: p_ij ∝ q_ij² / Σ_i q_ij."""
        weight = q ** 2 / np.maximum(q.sum(axis=0, keepdims=True), 1e-12)
        return weight / weight.sum(axis=1, keepdims=True)

    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        epochs: int = 3,
        cluster_epochs: int = 2,
        batch_size: int = 16,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> List[float]:
        """Pre-train the t2vec backbone, then run DEC refinement rounds."""
        rng = rng if rng is not None else np.random.default_rng(0)
        losses = super().fit(trajectories, epochs=epochs, batch_size=batch_size,
                             lr=lr, rng=rng)

        embeddings = self.encode(list(trajectories))
        self.cluster_centers = _kmeans_centers(embeddings, self.n_clusters, rng)

        optimizer = nn.Adam(self.parameters(), lr=lr * 0.1)

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            q = self._soft_assignment(self.embed_batch([trajectories[i] for i in index]))
            p = self._target_distribution(q.data)
            # KL(p || q) over the batch
            return (nn.Tensor(p) * (nn.Tensor(np.log(p + 1e-12)) - q.log())).sum(
                axis=1
            ).mean()

        losses.extend(nn.train_epoch(optimizer, len(trajectories), batch_size,
                                     rng, batch_loss)
                      for _round in range(cluster_epochs))
        return losses
