"""What every learned similarity measure shares: the baselines and
TrajCL's fine-tune heads build on this module, which imports neither.

:class:`LearnedSimilarityMeasure` embeds in no-grad chunks of its
differentiable ``embed_batch`` and compares by L1 distance. A
:class:`HeuristicRegressor` (the §V-F heads; NeuTraj, Traj2SimVec, T3S,
TrajGAT) fits :func:`l1_regression_loss` on :func:`regression_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..index import distance
from ..trajectory.trajectory import TrajectoryLike

if TYPE_CHECKING:  # a model that only encodes loads no measure
    from ..measures.base import TrajectorySimilarityMeasure


class LearnedSimilarityMeasure(nn.Module):
    """Base class: batched encoding + L1 embedding distances."""

    #: embedding dimensionality, set by subclasses
    output_dim: int = 0
    #: registry name, set by subclasses
    name: str = "learned"
    #: trajectories per ``embed_batch`` call in :meth:`encode`
    encode_chunk: int = 128

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        """Differentiable embedding of a (small) batch. Subclasses implement."""
        raise NotImplementedError

    def encode(
        self,
        trajectories: Sequence[TrajectoryLike],
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Inference-mode embeddings ``(N, output_dim)``, ``batch_size``
        (default :attr:`encode_chunk`) trajectories per forward. Every
        submodule is back in its own training mode afterwards."""
        size = batch_size or self.encode_chunk
        modes = [(module, module.training) for module in self.modules()]
        self.eval()
        try:
            with nn.no_grad():
                chunks = [self.embed_batch(trajectories[start:start + size]).data.copy()
                          for start in range(0, len(trajectories), size)]
        finally:
            for module, training in modes:
                module.training = training
        return np.concatenate(chunks, axis=0)

    def distance_matrix(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        """L1 distances between query and database embeddings.

        Blocked (:mod:`repro.index.distance`) — no ``(|Q|, |D|, d)`` broadcast.
        """
        return distance.pairwise(self.encode(queries), self.encode(database))


class HeuristicRegressor(LearnedSimilarityMeasure):
    """A learned measure whose L1 distance regresses a heuristic one on
    mean-normalised targets; :meth:`distance_matrix` rescales by that mean."""

    #: scale of the supervision targets, set by fit()
    target_scale: float = 1.0

    def distance_matrix(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        """Predicted heuristic distances ``(|Q|, |D|)``."""
        return self.target_scale * super().distance_matrix(queries, database)


@dataclass
class FinetuneHistory:
    """Per-epoch mean losses of a :class:`HeuristicRegressor` fit."""

    losses: List[float] = field(default_factory=list)


def sample_training_pairs(
    n: int,
    count: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct random index pairs for supervised distance regression."""
    left = rng.integers(0, n, size=count)
    right = rng.integers(0, n, size=count)
    keep = left != right
    return left[keep], right[keep]


def regression_pairs(
    trajectories: Sequence[TrajectoryLike],
    measure: TrajectorySimilarityMeasure,
    count: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(left, right, targets / scale, scale)``: up to ``count`` distinct
    index pairs and their ``measure`` distances over ``scale``, the mean
    distance (1.0 if 0). The heuristic runs here once per pair."""
    if len(trajectories) < 2:
        raise ValueError("need at least two trajectories to form pairs")
    left, right = sample_training_pairs(len(trajectories), count, rng)
    targets = np.array([
        measure.distance(trajectories[i], trajectories[j])
        for i, j in zip(left, right)
    ])
    scale = float(targets.mean()) or 1.0
    return left, right, targets / scale, scale


def l1_regression_loss(
    emb_left: nn.Tensor,
    emb_right: nn.Tensor,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> nn.Tensor:
    """MSE between the pairs' L1 embedding distances and ``targets``,
    each pair's squared error times its weight when ``weights`` is given."""
    predicted = (emb_left - emb_right).abs().sum(axis=-1)
    diff = predicted - nn.Tensor(targets)
    squared = diff * diff
    if weights is not None:
        squared = squared * nn.Tensor(weights)
    return squared.mean()
