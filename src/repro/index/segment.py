r"""Segment-based trajectory index with kNN pruning (the DFT stand-in).

The paper's Hausdorff kNN baseline (§V-E) follows DFT [Xie, Li & Phillips,
PVLDB 2017]: a segment-based spatial index plus lower-bound pruning
strategies. This reproduction keeps the two properties the experiments
measure:

* **query pruning** — candidates are ranked by a cheap lower bound
  (point-to-bounding-box distances, valid for the symmetric Hausdorff
  distance) and exact O(n·m) evaluations stop once the bound exceeds the
  current k-th best;
* **heavy auxiliary memory** — DFT materializes every segment into
  uniform grid buckets (segment MBR + trajectory id), which is what makes
  its memory footprint balloon with the database size (Table IX's OOM at
  \|D\| = 10M). Nothing here reads such buckets, so none are built:
  :attr:`SegmentHausdorffIndex.memory_bytes` models their entries.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from ..measures.hausdorff import hausdorff_distance
from ..trajectory.trajectory import Ragged, TrajectoryLike, as_points_batch


def _boxes(batch: Ragged) -> np.ndarray:
    """``(min_x, min_y, max_x, max_y)`` of every item of a validated
    batch, in two array passes over its points."""
    if not batch:
        return np.empty((0, 4))
    points, offsets = batch.pack()
    return np.concatenate([np.minimum.reduceat(points, offsets[:-1]),
                           np.maximum.reduceat(points, offsets[:-1])], axis=1)


class SegmentHausdorffIndex:
    """Trajectory kNN under Hausdorff with bounding-box pruning."""

    def __init__(self):
        self._trajectories = Ragged()
        self._boxes = np.empty((0, 4))
        self._n_points = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, trajectories: Sequence[TrajectoryLike]) -> None:
        """Index exactly ``trajectories``, dropping what was held."""
        if not len(trajectories):
            raise ValueError("no trajectories to index")
        self._trajectories = Ragged()
        self._boxes, self._n_points = np.empty((0, 4)), 0
        self.add(trajectories)

    def add(self, trajectories: Sequence[TrajectoryLike]) -> None:
        """Hold the trajectories (their blocks, as they are) and compute
        their MBRs in array passes over the points."""
        batch = as_points_batch(trajectories)
        self._trajectories.append(batch)
        self._boxes = np.concatenate([self._boxes, _boxes(batch)])
        self._n_points += int(batch.lengths().sum())
        # Bbox corner points (N, 4, 2), precomputed for the vectorized
        # backward lower bound.
        self._corners = self._boxes[:, [0, 1, 0, 3, 2, 1, 2, 3]].reshape(
            -1, 4, 2)

    def __len__(self) -> int:
        return len(self._trajectories)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size of DFT: points + MBRs + one segment
        bucket entry per segment.

        The entries model DFT's grid buckets, costed at the 2×8-byte
        ``(trajectory id, segment)`` payload plus Python object overhead
        (~48 bytes each) — the auxiliary data that makes segment indexes
        memory-hungry. This index builds no buckets; it reports what DFT
        would hold.
        """
        segments = self._n_points - len(self._trajectories)
        return self._n_points * 16 + self._boxes.nbytes + segments * 64

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def lower_bounds_batch(
        self,
        queries: Sequence[TrajectoryLike],
        max_elements: int = 2 ** 23,
    ) -> np.ndarray:
        """Hausdorff lower bounds ``(|Q|, N)``, vectorized across queries
        *and* trajectories.

        ``H(Q, T) >= max_q dist(q, bbox(T))`` and symmetrically
        ``>= max_t dist(t, bbox(Q))``; take the larger of the two using
        only bounding boxes (the second side uses bbox corners of T).
        Queries are padded to a common length (replicating their first
        point, which cannot change a max) and processed in blocks of
        ``~max_elements`` scalars so memory stays bounded.
        """
        if not self._trajectories:
            raise RuntimeError("index must be built before querying")
        queries = as_points_batch(queries)
        n_queries, n = len(queries), len(self._trajectories)
        boxes = self._boxes
        if n_queries == 0:
            return np.empty((0, n))
        query_boxes = _boxes(queries)
        points, offsets = queries.pack()
        lengths = np.diff(offsets)[:, None]
        max_pts = int(lengths.max())
        columns = np.arange(max_pts)
        padded = points[offsets[:-1, None]
                        + np.where(columns < lengths, columns, 0)]

        bounds = np.empty((n_queries, n))
        corner_x = self._corners[None, :, :, 0]          # (1, N, 4)
        corner_y = self._corners[None, :, :, 1]
        # Both passes chunk over queries: the forward temporaries are
        # (C, P, N), the backward ones (C, N, 4), so a shared step of
        # ~max_elements // (max(P, 4) * N) bounds both.
        step = max(1, int(max_elements // max(1, max(max_pts, 4) * n)))
        for start in range(0, n_queries, step):
            chunk = padded[start:start + step]           # (C, P, 2)
            px = chunk[:, :, None, 0]
            py = chunk[:, :, None, 1]
            dx = np.maximum(
                np.maximum(boxes[None, None, :, 0] - px, px - boxes[None, None, :, 2]),
                0.0,
            )
            dy = np.maximum(
                np.maximum(boxes[None, None, :, 1] - py, py - boxes[None, None, :, 3]),
                0.0,
            )
            forward = np.hypot(dx, dy).max(axis=1)       # (C, N)

            qbox = query_boxes[start:start + step]       # (C, 4)
            dx = np.maximum(
                np.maximum(qbox[:, None, None, 0] - corner_x,
                           corner_x - qbox[:, None, None, 2]),
                0.0,
            )
            dy = np.maximum(
                np.maximum(qbox[:, None, None, 1] - corner_y,
                           corner_y - qbox[:, None, None, 3]),
                0.0,
            )
            backward = np.hypot(dx, dy).min(axis=2)      # (C, N)
            bounds[start:start + step] = np.maximum(forward, backward)
        return bounds

    def lower_bound(self, query_points: np.ndarray) -> np.ndarray:
        """Single-query lower bounds ``(N,)`` (see :meth:`lower_bounds_batch`)."""
        return self.lower_bounds_batch([query_points])[0]

    def _knn_one(
        self, query_points: np.ndarray, bounds: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Pruned exact kNN for one query given its lower-bound row."""
        k = min(k, len(self._trajectories))
        order = np.argsort(bounds)
        heap: List[Tuple[float, int]] = []  # max-heap via negated distance
        evaluations = 0
        for traj_id in order:
            if len(heap) == k and bounds[traj_id] >= -heap[0][0]:
                break  # every remaining candidate is provably worse
            exact = hausdorff_distance(query_points, self._trajectories[traj_id])
            evaluations += 1
            if len(heap) < k:
                heapq.heappush(heap, (-exact, int(traj_id)))
            elif exact < -heap[0][0]:
                heapq.heapreplace(heap, (-exact, int(traj_id)))
        results = sorted((-negated, traj_id) for negated, traj_id in heap)
        distances = np.array([r[0] for r in results])
        indices = np.array([r[1] for r in results], dtype=np.int64)
        return distances, indices, evaluations

    def knn(self, query: TrajectoryLike, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact Hausdorff k nearest neighbours with lower-bound pruning.

        Returns ``(distances, indices)`` sorted ascending. Also records the
        number of exact evaluations in :attr:`last_exact_evaluations` for
        the pruning-effectiveness tests.
        """
        distances, indices = self.knn_batch([query], k)
        found = indices[0] >= 0
        return distances[0][found], indices[0][found]

    def knn_batch(
        self, queries: Sequence[TrajectoryLike], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact Hausdorff kNN for a batch of queries: ``(Q, k)`` arrays.

        The query-to-bbox lower bounds — the vectorizable part of the DFT
        pruning scheme — are computed for *all* queries in one batched
        pass; only the pruned exact evaluations remain per query. Rows are
        padded with ``inf`` / ``-1`` when the database holds fewer than
        ``k`` trajectories. :attr:`last_exact_evaluations` records the
        total across the batch.
        """
        points = as_points_batch(queries)
        bounds = self.lower_bounds_batch(points)
        out_d = np.full((len(points), k), np.inf)
        out_i = np.full((len(points), k), -1, dtype=np.int64)
        total_evaluations = 0
        for row, query_points in enumerate(points):
            distances, indices, evaluations = self._knn_one(
                query_points, bounds[row], k
            )
            out_d[row, :len(distances)] = distances
            out_i[row, :len(indices)] = indices
            total_evaluations += evaluations
        self.last_exact_evaluations = total_evaluations
        return out_d, out_i
