"""Exact brute-force kNN over embedding vectors (the accuracy reference).

Ranks by the paper's L1 distance through the shared kernel in
:mod:`repro.index.distance`. The IVF index's recall is measured against
this index in the tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import distance
from .rows import RowStore


class BruteForceIndex:
    """Store vectors; answer kNN by full scan.

    Vectors are kept in the dtype of the first :meth:`add` (float32 or
    float64; anything else is stored as float64) in a
    :class:`~repro.index.rows.RowStore`, so ingest is linear and a float32
    encoder pays 4 bytes per dimension, not 8.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._store = RowStore(np.empty((0, dim), dtype=np.float64))

    @property
    def _data(self) -> np.ndarray:
        """The stored vectors (a view of the used rows)."""
        return self._store.rows

    def add(self, vectors: np.ndarray) -> None:
        vectors = distance.as_floats(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        if len(self._store) == 0 and len(vectors):
            self._store = RowStore(np.empty((0, self.dim), dtype=vectors.dtype))
        self._store.append(vectors)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def memory_bytes(self) -> int:
        """Bytes of the stored vectors (used rows, not spare capacity)."""
        return self._data.nbytes

    def export(self) -> Tuple[dict, dict]:
        """``(meta, arrays)`` snapshot: the stored rows in their dtype."""
        return {}, {"data": self._data}

    def restore(self, meta: dict, arrays: dict) -> None:
        """Take over the rows :meth:`export` wrote (on a fresh instance)."""
        self._store = RowStore(distance.as_floats(arrays["data"]))

    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the k nearest, sorted ascending."""
        if len(self._store) == 0:
            raise RuntimeError("index is empty")
        # The scan runs in the stored dtype: casting the few queries is
        # free, promoting the whole database per search is not.
        queries = np.asarray(queries, dtype=self._store.dtype)
        return distance.topk(queries, self._data,
                             max(0, min(k, len(self._store))))
