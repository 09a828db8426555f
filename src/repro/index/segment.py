r"""Segment-based trajectory index with kNN pruning (the DFT stand-in).

The paper's Hausdorff kNN baseline (§V-E) follows DFT [Xie, Li & Phillips,
PVLDB 2017]: a segment-based spatial index plus lower-bound pruning
strategies. This reproduction keeps the two properties the experiments
measure:

* **query pruning** — candidates are ranked by a cheap lower bound
  (point-to-bounding-box distances, valid for the symmetric Hausdorff
  distance) and exact O(n·m) evaluations stop once the bound exceeds the
  current k-th best;
* **heavy auxiliary memory** — per-segment entries are materialized into
  uniform grid buckets (segment MBR + trajectory id), which is what makes
  DFT's memory footprint balloon with the database size (Table IX's OOM at
  \|D\| = 10M).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..measures.hausdorff import hausdorff_distance
from ..trajectory.trajectory import TrajectoryLike, as_points


class SegmentHausdorffIndex:
    """Trajectory kNN under Hausdorff with segment buckets + pruning."""

    def __init__(self, bucket_size: float = 500.0):
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.bucket_size = bucket_size
        self._trajectories: List[np.ndarray] = []
        self._boxes: Optional[np.ndarray] = None
        #: bucket -> list of (trajectory_id, segment_index)
        self._segment_buckets: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._n_segments = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, trajectories: Sequence[TrajectoryLike]) -> None:
        """Materialize the segment buckets and per-trajectory MBRs."""
        if not trajectories:
            raise ValueError("no trajectories to index")
        self._trajectories = [as_points(t) for t in trajectories]
        self._segment_buckets = {}
        self._n_segments = 0
        boxes = np.empty((len(self._trajectories), 4))
        for traj_id, points in enumerate(self._trajectories):
            mins = points.min(axis=0)
            maxs = points.max(axis=0)
            boxes[traj_id] = (mins[0], mins[1], maxs[0], maxs[1])
            # Per-segment bucket entries (midpoint bucketing).
            midpoints = 0.5 * (points[:-1] + points[1:])
            cells = np.floor(midpoints / self.bucket_size).astype(np.int64)
            for seg_index, (cx, cy) in enumerate(map(tuple, cells)):
                self._segment_buckets.setdefault((cx, cy), []).append(
                    (traj_id, seg_index)
                )
            self._n_segments += max(len(points) - 1, 0)
        self._boxes = boxes
        # Bbox corner points (N, 4, 2), precomputed for the vectorized
        # backward lower bound.
        self._corners = boxes[:, [0, 1, 0, 3, 2, 1, 2, 3]].reshape(-1, 4, 2)

    def __len__(self) -> int:
        return len(self._trajectories)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size: points + MBRs + segment bucket entries.

        Bucket entries are costed at the 2×8-byte tuple payload plus Python
        object overhead (~48 bytes each) — the auxiliary data that makes
        segment indexes memory-hungry.
        """
        points = sum(t.nbytes for t in self._trajectories)
        boxes = self._boxes.nbytes if self._boxes is not None else 0
        buckets = self._n_segments * 64
        return points + boxes + buckets

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
        return self._lower_bounds_prepared([as_points(q) for q in queries],
                                           max_elements)

    def _lower_bounds_prepared(
        self, points: List[np.ndarray], max_elements: int = 2 ** 23
    ) -> np.ndarray:
        """:meth:`lower_bounds_batch` over already-validated point arrays."""
        if self._boxes is None:
            raise RuntimeError("index must be built before querying")
        n_queries, n = len(points), len(self._trajectories)
        boxes = self._boxes
        if n_queries == 0:
            return np.empty((0, n))
        max_pts = max(len(p) for p in points)
        padded = np.empty((n_queries, max_pts, 2))
        query_boxes = np.empty((n_queries, 4))
        for i, pts in enumerate(points):
            padded[i, :len(pts)] = pts
            padded[i, len(pts):] = pts[0]
            query_boxes[i] = (pts[:, 0].min(), pts[:, 1].min(),
                              pts[:, 0].max(), pts[:, 1].max())

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
        if self._boxes is None:
            raise RuntimeError("index must be built before querying")
        query_points = as_points(query)
        bounds = self._lower_bounds_prepared([query_points])[0]
        distances, indices, evaluations = self._knn_one(query_points, bounds, k)
        self.last_exact_evaluations = evaluations
        return distances, indices

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
        if self._boxes is None:
            raise RuntimeError("index must be built before querying")
        points = [as_points(q) for q in queries]
        bounds = self._lower_bounds_prepared(points)
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
