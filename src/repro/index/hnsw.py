"""HNSW — hierarchical navigable small-world graph index.

Vectors live once in a float32 matrix (grown geometrically). On insertion
each node draws its maximum layer from a geometric distribution
(``level = floor(-ln(U) / ln(M))``), is greedily routed from the entry
point down to its layer, and links to at most ``M`` neighbours per layer
(``2M`` at layer 0) chosen by the standard select-by-heuristic rule (keep
a candidate only if it is closer to the query than to every neighbour
already kept — this preserves edges that cross cluster boundaries).
Queries greedily descend the upper layers and run a best-first beam
search of width ``ef_search`` over layer 0.

``distance_evaluations`` counts every vector-distance computation so the
benchmarks can demonstrate sub-linear scanning versus the brute-force
``N`` per query. Scan arithmetic is float32 end to end (the law is
``tests/index/test_ann.py::test_compressed_search_distances_stay_float32``).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

from . import distance


class HNSWIndex:
    """Navigable small-world graph over embedding vectors.

    Purely incremental: there is no ``train`` step, :meth:`add` inserts
    one node at a time. ``seed`` fixes the level-sampling stream so a
    build over the same vectors is deterministic.
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 64,
        ef_search: int = 32,
        seed: int = 0,
        max_level_cap: int = 32,
    ):
        if m < 2:
            raise ValueError("m must be >= 2")
        if ef_construction < 1 or ef_search < 1:
            raise ValueError("ef_construction and ef_search must be >= 1")
        self.dim = dim
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self.max_level_cap = max_level_cap
        self._level_mult = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)
        self._data = np.empty((0, dim), dtype=np.float32)
        self._size = 0
        #: per node: one python list of neighbour ids per layer 0..level
        self._links: List[List[List[int]]] = []
        self._levels: List[int] = []
        self._entry = -1
        self._max_level = -1
        self.distance_evaluations = 0

    def __len__(self) -> int:
        return self._size

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (float32 vectors + graph links)."""
        links = sum(
            len(layer) for node in self._links for layer in node
        )
        # Links round-trip through int64 arrays in snapshots; count 8 B each.
        return self._size * self.dim * 4 + links * 8

    @property
    def max_level(self) -> int:
        """Top layer of the graph (``-1`` while empty)."""
        return self._max_level

    # ------------------------------------------------------------------
    # Distance kernel (float32, counted)
    # ------------------------------------------------------------------
    def _distances_to(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Distances from one float32 query row to the given node ids: a
        row sum of its own, with :mod:`.distance`'s bits (a law holds them
        equal), as a 32-id :func:`distance.pairwise` call costs over 2x."""
        self.distance_evaluations += len(ids)
        return np.abs(self._data[ids] - query).sum(axis=1)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _ensure_capacity(self, extra: int) -> None:
        need = self._size + extra
        if need <= len(self._data):
            return
        capacity = max(16, len(self._data))
        while capacity < need:
            capacity *= 2
        grown = np.empty((capacity, self.dim), dtype=np.float32)
        grown[:self._size] = self._data[:self._size]
        self._data = grown

    def add(self, vectors: np.ndarray) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        self._ensure_capacity(len(vectors))
        for vector in vectors:
            self._insert(vector)

    def _sample_level(self) -> int:
        u = max(float(self._rng.random()), 1e-12)
        return min(int(-math.log(u) * self._level_mult), self.max_level_cap)

    def _insert(self, vector: np.ndarray) -> None:
        node = self._size
        self._data[node] = vector
        self._size += 1
        level = self._sample_level()
        self._levels.append(level)
        self._links.append([[] for _ in range(level + 1)])
        if self._entry < 0:
            self._entry = node
            self._max_level = level
            return
        query = self._data[node]
        entry = self._entry
        for layer in range(self._max_level, level, -1):
            entry = self._greedy(query, entry, layer)
        eps = [entry]
        for layer in range(min(level, self._max_level), -1, -1):
            found = self._search_layer(query, eps, self.ef_construction, layer)
            m_max = self.m0 if layer == 0 else self.m
            neighbors = self._select_neighbors(found, self.m)
            self._links[node][layer] = [nid for _, nid in neighbors]
            for _, nid in neighbors:
                back = self._links[nid][layer]
                back.append(node)
                if len(back) > m_max:
                    self._shrink(nid, layer, m_max)
            eps = [nid for _, nid in found]
        if level > self._max_level:
            self._entry = node
            self._max_level = level

    def _shrink(self, node: int, layer: int, m_max: int) -> None:
        """Re-select a node's over-full neighbour list by the heuristic."""
        ids = self._links[node][layer]
        distances = self._distances_to(
            self._data[node], np.array(ids, dtype=np.int64)
        )
        ranked = sorted(zip(distances.tolist(), ids))
        self._links[node][layer] = [
            nid for _, nid in self._select_neighbors(ranked, m_max)
        ]

    def _select_neighbors(
        self, candidates: List[Tuple[float, int]], m: int
    ) -> List[Tuple[float, int]]:
        """Keep candidates closer to the target than to any kept neighbour.

        Falls back to the nearest skipped candidates when the heuristic
        keeps fewer than ``m`` — isolated nodes hurt recall more than the
        occasional redundant edge.
        """
        if m <= 0 or not candidates:
            return []
        if len(candidates) == 1:
            return list(candidates)
        # One vectorized candidate-to-candidate distance matrix; the
        # pruning loop below then runs on scalar lookups instead of a
        # single-element numpy round-trip per (candidate, kept) pair.
        ids = np.array([node for _, node in candidates], dtype=np.int64)
        vectors = self._data[ids]
        cross = distance.pairwise(vectors, vectors)
        self.distance_evaluations += len(ids) * (len(ids) - 1) // 2
        target = np.array([distance for distance, _ in candidates],
                          dtype=np.float32)
        alive = np.ones(len(candidates), dtype=bool)
        kept: List[int] = []
        for i in range(len(candidates)):
            if not alive[i]:
                continue
            kept.append(i)
            if len(kept) >= m:
                break
            # Prune every candidate closer to the one just kept than to
            # the target — one vectorized sweep per kept neighbour.
            alive &= cross[:, i] >= target
            alive[i] = False
        if len(kept) < m:
            chosen = set(kept)
            for i in range(len(candidates)):
                if len(kept) >= m:
                    break
                if i not in chosen:
                    kept.append(i)
        return [candidates[i] for i in kept]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _greedy(self, query: np.ndarray, start: int, layer: int) -> int:
        """Hill-climb to the locally nearest node on ``layer``."""
        current = start
        current_distance = float(
            self._distances_to(query, np.array([start], dtype=np.int64))[0]
        )
        while True:
            ids = self._links[current][layer]
            if not ids:
                return current
            distances = self._distances_to(query, np.array(ids, dtype=np.int64))
            best = int(np.argmin(distances))
            if distances[best] < current_distance:
                current = ids[best]
                current_distance = float(distances[best])
            else:
                return current

    def _search_layer(
        self, query: np.ndarray, entry_points: List[int], ef: int, layer: int
    ) -> List[Tuple[float, int]]:
        """Best-first beam of width ``ef``; returns ``(distance, id)`` ascending."""
        eps = list(dict.fromkeys(entry_points))
        distances = self._distances_to(query, np.array(eps, dtype=np.int64))
        visited = set(eps)
        candidates = list(zip(distances.tolist(), eps))  # min-heap
        heapq.heapify(candidates)
        results = [(-d, node) for d, node in candidates]  # max-heap (negated)
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)
        while candidates:
            distance, node = heapq.heappop(candidates)
            if len(results) >= ef and distance > -results[0][0]:
                break
            fresh = [n for n in self._links[node][layer] if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            fresh_distances = self._distances_to(
                query, np.array(fresh, dtype=np.int64)
            )
            for d, nid in zip(fresh_distances.tolist(), fresh):
                if len(results) < ef or d < -results[0][0]:
                    heapq.heappush(candidates, (d, nid))
                    heapq.heappush(results, (-d, nid))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-neg, node) for neg, node in results)

    def search(self, queries: np.ndarray, k: int,
               ef_search: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Beam-search kNN; rows padded with ``inf``/``-1``."""
        if self._size == 0:
            raise RuntimeError("index is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) queries")
        ef = max(k, ef_search if ef_search is not None else self.ef_search)
        out_distances = np.full((len(queries), k), np.inf, dtype=np.float32)
        out_indices = np.full((len(queries), k), -1, dtype=np.int64)
        for row, query in enumerate(queries):
            entry = self._entry
            for layer in range(self._max_level, 0, -1):
                entry = self._greedy(query, entry, layer)
            found = self._search_layer(query, [entry], ef, 0)
            take = min(k, len(found))
            for col in range(take):
                out_distances[row, col] = found[col][0]
                out_indices[row, col] = found[col][1]
        return out_distances, out_indices

    # ------------------------------------------------------------------
    # Snapshot support (flat int arrays; see HNSWBackendIndex)
    # ------------------------------------------------------------------
    def export(self) -> Tuple[dict, dict]:
        """``(meta, arrays)`` capturing vectors, levels and every link list."""
        counts, flat = [], []
        for node_links in self._links:
            for layer_ids in node_links:
                counts.append(len(layer_ids))
                flat.extend(layer_ids)
        meta = {"entry": self._entry, "max_level": self._max_level}
        arrays = {
            "data": self._data[:self._size].copy(),
            "levels": np.array(self._levels, dtype=np.int64),
            "link_counts": np.array(counts, dtype=np.int64),
            "links_flat": np.array(flat, dtype=np.int64),
        }
        return meta, arrays

    def restore(self, meta: dict, arrays: dict) -> None:
        """Restore the exact graph written by :meth:`export`."""
        data = np.asarray(arrays["data"], dtype=np.float32)
        levels = [int(v) for v in arrays["levels"]]
        counts = [int(v) for v in arrays["link_counts"]]
        flat = [int(v) for v in arrays["links_flat"]]
        self._data = data.copy()
        self._size = len(data)
        self._levels = levels
        self._links = []
        position = 0
        cursor = 0
        for level in levels:
            node_links = []
            for _layer in range(level + 1):
                count = counts[cursor]
                cursor += 1
                node_links.append(flat[position:position + count])
                position += count
            self._links.append(node_links)
        self._entry = int(meta["entry"])
        self._max_level = int(meta["max_level"])
