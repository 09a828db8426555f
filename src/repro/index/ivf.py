"""IVFFlat — inverted-file vector index (the Faiss stand-in).

The paper indexes TrajCL embeddings with Faiss, "a widely used library for
similarity queries over dense vectors based on a Voronoi diagram" (§V-E).
IVFFlat is exactly that structure: a k-means coarse quantizer partitions
the space into ``n_lists`` Voronoi cells; each database vector is stored in
the inverted list of its nearest centre; a query scans only the ``n_probe``
closest lists. Recall/latency trades off through ``n_probe``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import distance
from .kmeans import kmeans


class IVFFlatIndex:
    """Voronoi-partitioned inverted lists over embedding vectors."""

    def __init__(
        self,
        dim: int,
        n_lists: int = 16,
        n_probe: int = 4,
    ):
        if n_lists < 1:
            raise ValueError("n_lists must be positive")
        self.dim = dim
        self.n_lists = n_lists
        self.n_probe = max(1, min(n_probe, n_lists))
        self.centers: Optional[np.ndarray] = None
        self._lists: list = []
        self._ids: list = []
        self._trained = False
        self._size = 0
        self.train_count = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def train(self, vectors: np.ndarray, rng: Optional[np.random.Generator] = None) -> None:
        """Fit the coarse quantizer (k-means over a training sample).

        Re-training empties the inverted lists, so previously added vectors
        must be re-added by the caller; the id counter resets with them.
        """
        if len(vectors) < self.n_lists:
            raise ValueError(
                f"need at least n_lists={self.n_lists} training vectors"
            )
        # Centres — and with them the inverted lists — take the dtype of
        # the training vectors (float32 stays float32).
        self.centers, _ = kmeans(vectors, self.n_lists, rng=rng)
        self._lists = [np.empty((0, self.dim), dtype=self.centers.dtype)
                       for _ in range(self.n_lists)]
        self._ids = [np.empty(0, dtype=np.int64) for _ in range(self.n_lists)]
        self._trained = True
        self._size = 0
        self.train_count += 1

    def add(self, vectors: np.ndarray) -> None:
        """Assign vectors to their Voronoi cells' inverted lists."""
        if not self._trained:
            raise RuntimeError("index must be trained before adding vectors")
        vectors = np.asarray(vectors, dtype=self.centers.dtype)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        assignment = distance.assign(vectors, self.centers)
        # each cell's rows, ascending (a stable sort); np.unique would load
        # numpy.ma, ~1.7 MB resident
        counts = np.bincount(assignment, minlength=self.n_lists)
        groups = np.split(np.argsort(assignment, kind="stable"),
                          np.cumsum(counts)[:-1])
        for cell in np.flatnonzero(counts):
            members = groups[cell]
            self._lists[cell] = np.concatenate([self._lists[cell], vectors[members]])
            self._ids[cell] = np.concatenate([self._ids[cell],
                                              members + self._size])
        self._size += len(vectors)

    def __len__(self) -> int:
        return self._size

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (vectors + ids + centres)."""
        vectors = sum(lst.nbytes for lst in self._lists)
        ids = sum(ids.nbytes for ids in self._ids)
        centers = self.centers.nbytes if self.centers is not None else 0
        return vectors + ids + centers

    def export(self) -> Tuple[dict, dict]:
        """``(meta, arrays)`` snapshot: ``vectors`` back in id order, the
        ``centers`` and each vector's cell (``assign``)."""
        order = np.argsort(np.concatenate(self._ids))
        cells = np.repeat(np.arange(self.n_lists),
                          [len(ids) for ids in self._ids])
        return {}, {"vectors": np.concatenate(self._lists)[order],
                    "centers": self.centers, "assign": cells[order]}

    def restore(self, meta: dict, arrays: dict) -> None:
        """Refill the lists :meth:`export` flattened (on a fresh
        instance); no k-means runs, ids ascend within a list as built."""
        self.centers = distance.as_floats(arrays["centers"])
        self.n_lists = len(self.centers)  # as clamped at build time
        vectors = np.asarray(arrays["vectors"], dtype=self.centers.dtype)
        self._ids = [np.flatnonzero(arrays["assign"] == cell)
                     for cell in range(self.n_lists)]
        self._lists = [vectors[ids] for ids in self._ids]
        self._trained = True
        self._size = len(vectors)
        self.train_count = 1

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int,
               n_probe: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """kNN over the ``n_probe`` nearest Voronoi cells per query.

        Returns ``(distances, indices)`` padded with ``inf``/``-1`` when a
        query's probed lists hold fewer than ``k`` vectors.
        """
        if not self._trained or self._size == 0:
            raise RuntimeError("index is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=self.centers.dtype))
        probe = max(1, min(n_probe if n_probe is not None else self.n_probe,
                           self.n_lists))
        center_distances = distance.pairwise(queries, self.centers)
        probed = np.argsort(center_distances, axis=1)[:, :probe]

        out_distances = np.full((len(queries), k), np.inf,
                                dtype=self.centers.dtype)
        out_indices = np.full((len(queries), k), -1, dtype=np.int64)
        for row, cells in enumerate(probed):
            candidate_ids = np.concatenate([self._ids[c] for c in cells])
            if len(candidate_ids) == 0:
                continue
            distances = np.concatenate([
                distance.pairwise(queries[row:row + 1], self._lists[c])[0]
                for c in cells
            ])
            take = min(k, len(distances))
            # Rank all probed candidates by (distance, database id) — the
            # id tie-break must span the k boundary (argpartition would
            # keep an arbitrary subset of boundary ties) so results are
            # deterministic and agree with the brute-force reference.
            chosen = np.lexsort((candidate_ids, distances))[:take]
            out_distances[row, :take] = distances[chosen]
            out_indices[row, :take] = candidate_ids[chosen]
        return out_distances, out_indices
