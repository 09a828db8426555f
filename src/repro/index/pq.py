"""Product quantization — codebook-compressed residency with ADC scans.

A vector is split into ``n_subspaces`` contiguous sub-vectors and each
subspace gets its own k-means codebook (≤256 centroids, so one uint8 per
subspace). Stored vectors shrink from ``4 * dim`` bytes to ``n_subspaces``
bytes. A query builds a per-subspace table of sub-distances once (the LUT)
and scores every code row with table gathers only — asymmetric distance
computation (ADC), no vector arithmetic in the scan.

Two optional stages trade memory back for recall:

* ``coarse_lists > 0`` — IVF-PQ: a coarse k-means partition (reusing
  :func:`repro.index.kmeans.kmeans`) assigns each vector to a Voronoi
  cell and the PQ codebooks quantize *residuals* against the cell centre,
  which are much smaller in magnitude than raw vectors; queries probe the
  ``n_probe`` nearest cells with a per-cell residual LUT.
* ``refine_dtype`` — keep a low-precision (float16/float32) copy of every
  vector and exactly re-rank the best ``refine_factor * k`` ADC candidates
  against it before answering.

Everything here is float32 — training vectors, codebooks, LUTs, ADC
accumulators and outputs — and codes stay uint8 (the law is
``tests/index/test_ann.py::test_compressed_search_distances_stay_float32``).
Training is one stacked :func:`~repro.index.kmeans.kmeans` call over
every sub-space, which ranks centres under its own L2 GEMM (the Lloyd
objective). Codes and LUTs are one stacked L1
:func:`~repro.index.distance.assign` / :func:`~repro.index.distance.pairwise`
call over every sub-space, the kernel the coarse step and the re-rank
call too; the ADC scan only adds table entries.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import distance
from .kmeans import kmeans
from .rows import RowStore

_REFINE_DTYPES = (None, "float16", "float32")


class ProductQuantizer:
    """Per-subspace k-means codebooks over (possibly zero-padded) vectors.

    ``dim`` need not divide ``n_subspaces``: vectors are zero-padded to
    ``sub_dim * n_subspaces`` columns, which leaves every distance
    unchanged (the pad contributes identically to data and queries).
    """

    def __init__(
        self,
        dim: int,
        n_subspaces: int = 8,
        n_centroids: int = 256,
        iterations: int = 20,
    ):
        if n_subspaces < 1:
            raise ValueError("n_subspaces must be positive")
        if not 1 <= n_centroids <= 256:
            raise ValueError("n_centroids must be in [1, 256] to fit uint8 codes")
        self.dim = dim
        self.n_subspaces = min(n_subspaces, dim)
        self.n_centroids = n_centroids
        self.iterations = iterations
        self.sub_dim = -(-dim // self.n_subspaces)  # ceil
        self.padded_dim = self.sub_dim * self.n_subspaces
        self.codebooks: Optional[np.ndarray] = None  # float32 (m, k, sub_dim)

    @property
    def trained(self) -> bool:
        return self.codebooks is not None

    def _pad(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        if self.padded_dim == self.dim:
            return vectors
        out = np.zeros((len(vectors), self.padded_dim), dtype=np.float32)
        out[:, :self.dim] = vectors
        return out

    def _split(self, padded: np.ndarray) -> np.ndarray:
        """``(N, m, sub_dim)`` view of padded vectors: every sub-space at
        once."""
        return padded.reshape(len(padded), self.n_subspaces, self.sub_dim)

    def train(self, vectors: np.ndarray, rng: Optional[np.random.Generator] = None) -> None:
        """Fit every subspace's k-means codebook in one stacked call (k
        clamped to the data); the seeding draws go sub-space by
        sub-space, as one call per sub-space would take them."""
        padded = self._pad(vectors)
        if len(padded) == 0:
            raise ValueError("cannot train a product quantizer on zero vectors")
        k = min(self.n_centroids, len(padded))
        self.codebooks, _ = kmeans(self._split(padded).transpose(1, 0, 2), k,
                                   iterations=self.iterations, rng=rng)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid uint8 code per subspace: ``(N, n_subspaces)``."""
        if not self.trained:
            raise RuntimeError("product quantizer is untrained")
        if not 1 <= len(self.codebooks[0]) <= 256:
            raise ValueError("a uint8 code needs 1 to 256 centroids, "
                             f"got {len(self.codebooks[0])}")
        return distance.assign(self._split(self._pad(vectors)),
                               self.codebooks).astype(np.uint8)

    def lut(self, queries: np.ndarray) -> np.ndarray:
        """Per-query sub-distance tables, float32 ``(|Q|, m, k)``."""
        if not self.trained:
            raise RuntimeError("product quantizer is untrained")
        return distance.pairwise(self._split(self._pad(queries)),
                                 self.codebooks)

    def adc(self, tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC distances float32 ``(|Q|, N)`` from LUT gathers only."""
        acc = np.zeros((tables.shape[0], len(codes)), dtype=np.float32)
        for j in range(self.n_subspaces):
            acc += tables[:, j, codes[:, j]]
        return acc

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float32 ``(N, dim)`` centroid concatenations."""
        if not self.trained:
            raise RuntimeError("product quantizer is untrained")
        parts = self.codebooks[np.arange(self.n_subspaces), codes]
        return parts.reshape(len(codes), self.padded_dim)[:, :self.dim]


class PQIndex:
    """PQ / IVF-PQ compressed index with an optional exact re-rank tail.

    ``coarse_lists=0`` keeps one flat code list (pure PQ, full ADC scan).
    ``coarse_lists>0`` partitions with coarse k-means and product-quantizes
    residuals; queries probe the ``n_probe`` nearest cells. With
    ``refine_dtype`` set, a low-precision copy of every vector is retained
    and the top ``refine_factor * k`` ADC candidates are re-ranked exactly.

    Like IVF, :meth:`train` must run before :meth:`add` and re-training
    empties stored codes (codebooks changed); adds after training are
    incremental — new vectors are encoded against the existing codebooks.
    """

    def __init__(
        self,
        dim: int,
        n_subspaces: int = 8,
        n_centroids: int = 256,
        coarse_lists: int = 0,
        n_probe: int = 8,
        refine_factor: int = 4,
        refine_dtype: Optional[str] = None,
        iterations: int = 20,
    ):
        if coarse_lists < 0:
            raise ValueError("coarse_lists must be >= 0")
        if refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        if refine_dtype not in _REFINE_DTYPES:
            raise ValueError(f"refine_dtype must be one of {_REFINE_DTYPES}")
        self.pq = ProductQuantizer(
            dim, n_subspaces=n_subspaces, n_centroids=n_centroids,
            iterations=iterations,
        )
        self.dim = dim
        self.coarse_lists = coarse_lists
        self.n_probe = n_probe
        self.refine_factor = refine_factor
        self.refine_dtype = refine_dtype
        self.centers: Optional[np.ndarray] = None
        self._codes = RowStore(
            np.empty((0, self.pq.n_subspaces), dtype=np.uint8))
        # Cell assignment per stored vector (IVF-PQ only; None when flat).
        self._assign: Optional[RowStore] = None
        self._cell_members: Optional[List[np.ndarray]] = None
        self._tail: Optional[RowStore] = None
        self._trained = False
        self.train_count = 0

    @property
    def trained(self) -> bool:
        return self._trained

    def _reset_storage(self) -> None:
        self._codes = RowStore(
            np.empty((0, self.pq.n_subspaces), dtype=np.uint8))
        self._assign = (
            RowStore(np.empty(0, dtype=np.int32)) if self.coarse_lists
            else None
        )
        self._cell_members = None
        self._tail = (
            RowStore(np.empty((0, self.dim), dtype=self.refine_dtype))
            if self.refine_dtype else None
        )

    def train(self, vectors: np.ndarray, rng: Optional[np.random.Generator] = None) -> None:
        """Fit coarse centres (IVF-PQ) and per-subspace codebooks."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        if self.coarse_lists:
            if len(vectors) < self.coarse_lists:
                raise ValueError(
                    f"need at least coarse_lists={self.coarse_lists} training vectors"
                )
            self.centers, assignment = kmeans(vectors, self.coarse_lists, rng=rng)
            training = vectors - self.centers[assignment]
        else:
            training = vectors
        self.pq.train(training, rng=rng)
        self._reset_storage()
        self._trained = True
        self.train_count += 1

    def add(self, vectors: np.ndarray) -> None:
        if not self._trained:
            raise RuntimeError("index must be trained before adding vectors")
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        if self.coarse_lists:
            assignment = distance.assign(vectors, self.centers).astype(np.int32)
            encoded = self.pq.encode(vectors - self.centers[assignment])
            self._assign.append(assignment)
            self._cell_members = None
        else:
            encoded = self.pq.encode(vectors)
        self._codes.append(encoded)
        if self._tail is not None:
            self._tail.append(vectors)

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (codes + codebooks + centres + tail)."""
        total = self._codes.rows.nbytes
        if self.pq.codebooks is not None:
            total += self.pq.codebooks.nbytes
        if self._assign is not None:
            total += self._assign.rows.nbytes
        if self.centers is not None:
            total += self.centers.nbytes
        if self._tail is not None:
            total += self._tail.rows.nbytes
        return total

    def export(self) -> Tuple[dict, dict]:
        """``(meta, arrays)`` snapshot: codebooks and code rows, plus cell
        assignment + centres (IVF-PQ) and the refine tail when kept."""
        arrays = {"codebooks": self.pq.codebooks, "codes": self._codes.rows}
        if self._assign is not None:
            arrays["assign"] = self._assign.rows
            arrays["centers"] = self.centers
        if self._tail is not None:
            arrays["tail"] = self._tail.rows
        return {}, arrays

    def restore(self, meta: dict, arrays: dict) -> None:
        """Take over what :meth:`export` wrote (on a fresh instance); no
        k-means runs."""
        self._reset_storage()
        self.pq.codebooks = np.asarray(arrays["codebooks"], dtype=np.float32)
        self._codes = RowStore(np.asarray(arrays["codes"], dtype=np.uint8))
        if "assign" in arrays:
            self._assign = RowStore(
                np.asarray(arrays["assign"], dtype=np.int32))
            self.centers = np.asarray(arrays["centers"], dtype=np.float32)
            self.coarse_lists = len(self.centers)  # as clamped at build time
        if "tail" in arrays:
            self._tail = RowStore(np.asarray(arrays["tail"]))
        self._trained = True
        self.train_count = 1

    def _members(self) -> List[np.ndarray]:
        if self._cell_members is None:
            self._cell_members = [
                np.flatnonzero(self._assign.rows == cell)
                for cell in range(self.coarse_lists)
            ]
        return self._cell_members

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int,
               n_probe: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """ADC kNN (+ optional refine); rows padded with ``inf``/``-1``."""
        if not self._trained or len(self._codes) == 0:
            raise RuntimeError("index is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) queries")
        fetch = k if self._tail is None else max(k, k * self.refine_factor)
        if self.coarse_lists:
            distances, indices = self._search_coarse(queries, fetch, n_probe)
        else:
            tables = self.pq.lut(queries)
            distances, indices = distance.topk_rows(
                self.pq.adc(tables, self._codes.rows), fetch)
        if self._tail is not None:
            distances, indices = self._refine(queries, indices, k)
        return distances[:, :k], indices[:, :k]

    def _search_coarse(self, queries: np.ndarray, fetch: int,
                       n_probe: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
        probe = max(1, min(n_probe if n_probe is not None else self.n_probe,
                           self.coarse_lists))
        center_distances = distance.pairwise(queries, self.centers)
        probed = np.argsort(center_distances, axis=1)[:, :probe]
        members = self._members()
        out_distances = np.full((len(queries), fetch), np.inf, dtype=np.float32)
        out_indices = np.full((len(queries), fetch), -1, dtype=np.int64)
        for row, cells in enumerate(probed):
            ids_parts, distance_parts = [], []
            for cell in cells:
                ids = members[cell]
                if len(ids) == 0:
                    continue
                # LUT of the query's residual against this cell's centre:
                # ADC then scores |(q - c) - decode(code)| = full distance.
                residual = queries[row:row + 1] - self.centers[cell]
                tables = self.pq.lut(residual)
                distance_parts.append(
                    self.pq.adc(tables, self._codes.rows[ids])[0])
                ids_parts.append(ids)
            if not ids_parts:
                continue
            ids = np.concatenate(ids_parts)
            distances = np.concatenate(distance_parts)
            take = min(fetch, len(ids))
            chosen = np.lexsort((ids, distances))[:take]
            out_distances[row, :take] = distances[chosen]
            out_indices[row, :take] = ids[chosen]
        return out_distances, out_indices

    def _refine(self, queries: np.ndarray, indices: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact re-rank of ADC candidates against the retained tail."""
        out_distances = np.full((len(queries), k), np.inf, dtype=np.float32)
        out_indices = np.full((len(queries), k), -1, dtype=np.int64)
        for row in range(len(queries)):
            ids = indices[row]
            ids = ids[ids >= 0]
            if len(ids) == 0:
                continue
            exact = distance.pairwise(queries[row:row + 1],
                                      self._tail.rows[ids])[0]
            take = min(k, len(ids))
            chosen = np.lexsort((ids, exact))[:take]
            out_distances[row, :take] = exact[chosen]
            out_indices[row, :take] = ids[chosen]
        return out_distances, out_indices
