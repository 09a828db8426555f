"""Product quantization — codebook-compressed residency with ADC scans.

A vector is split into ``n_subspaces`` contiguous sub-vectors and each
subspace gets its own k-means codebook (≤256 centroids, so one uint8 per
subspace). Stored vectors shrink from ``4 * dim`` bytes to ``n_subspaces``
bytes. A query builds a per-subspace table of sub-distances once (the LUT)
and scores every code row with table gathers only — asymmetric distance
computation (ADC), no vector arithmetic in the scan. The codes are one
flat list, scanned whole in row blocks; more ``n_subspaces`` buys recall
with code bytes, and ``refine_dtype`` buys it with a float16/float32
copy of every vector that re-ranks the best ``refine_factor * k``.

Everything here is float32 — training vectors, codebooks, LUTs, ADC
accumulators and outputs — and codes stay uint8 (the law is
``tests/index/test_ann.py::test_compressed_search_distances_stay_float32``).
Training is one stacked :func:`~repro.index.kmeans.kmeans` call over
every sub-space, which ranks centres under its own L2 GEMM (the Lloyd
objective). Codes and LUTs are one stacked L1
:func:`~repro.index.distance.assign` / :func:`~repro.index.distance.pairwise`
call over every sub-space, the kernel the re-rank calls too; the ADC
scan only adds table entries.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import distance
from .kmeans import kmeans
from .rows import RowStore

_REFINE_DTYPES = (None, "float16", "float32")
#: scalars in one row block of the ``(|Q|, N)`` ADC accumulator
ADC_BLOCK_ELEMENTS = 1 << 17


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
        """ADC distances float32 ``(|Q|, N)`` from LUT gathers only.

        Rows go in blocks of :data:`ADC_BLOCK_ELEMENTS` // ``|Q|``, each
        summed over the sub-spaces in order, so every sum keeps the bits
        of one pass over the whole matrix. A ``(m, k, |Q|)`` LUT makes
        each gather a contiguous ``|Q|`` row.
        """
        n_queries = tables.shape[0]
        step = max(1, ADC_BLOCK_ELEMENTS // max(1, n_queries))
        by_code = np.ascontiguousarray(tables.transpose(1, 2, 0))
        out = np.empty((n_queries, len(codes)), dtype=np.float32)
        for n0 in range(0, len(codes), step):
            rows = codes[n0:n0 + step]
            acc = np.zeros((len(rows), n_queries), dtype=np.float32)
            for j in range(self.n_subspaces):
                acc += by_code[j][rows[:, j]]
            out[:, n0:n0 + step] = acc.T
        return out

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float32 ``(N, dim)`` centroid concatenations."""
        if not self.trained:
            raise RuntimeError("product quantizer is untrained")
        parts = self.codebooks[np.arange(self.n_subspaces), codes]
        return parts.reshape(len(codes), self.padded_dim)[:, :self.dim]


class PQIndex:
    """Flat PQ compressed index: one ADC scan over every code row, whose
    best ``refine_factor * k`` a ``refine_dtype`` tail re-ranks exactly.

    :meth:`train` must run before :meth:`add` and re-training empties
    stored codes (codebooks changed); adds after training are
    incremental — new vectors are encoded against the existing codebooks.
    """

    def __init__(
        self,
        dim: int,
        n_subspaces: int = 8,
        n_centroids: int = 256,
        refine_factor: int = 4,
        refine_dtype: Optional[str] = None,
        iterations: int = 20,
    ):
        if refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        if refine_dtype not in _REFINE_DTYPES:
            raise ValueError(f"refine_dtype must be one of {_REFINE_DTYPES}")
        self.pq = ProductQuantizer(
            dim, n_subspaces=n_subspaces, n_centroids=n_centroids,
            iterations=iterations,
        )
        self.dim = dim
        self.refine_factor = refine_factor
        self.refine_dtype = refine_dtype
        self._reset_storage()
        self.train_count = 0

    @property
    def trained(self) -> bool:
        return self.pq.trained

    def _reset_storage(self) -> None:
        self._codes = RowStore(
            np.empty((0, self.pq.n_subspaces), dtype=np.uint8))
        self._tail: Optional[RowStore] = (
            RowStore(np.empty((0, self.dim), dtype=self.refine_dtype))
            if self.refine_dtype else None
        )

    def train(self, vectors: np.ndarray, rng: Optional[np.random.Generator] = None) -> None:
        """Fit the per-subspace codebooks."""
        self.pq.train(vectors, rng=rng)
        self._reset_storage()
        self.train_count += 1

    def add(self, vectors: np.ndarray) -> None:
        if not self.trained:
            raise RuntimeError("index must be trained before adding vectors")
        vectors = np.asarray(vectors, dtype=np.float32)
        self._codes.append(self.pq.encode(vectors))
        if self._tail is not None:
            self._tail.append(vectors)

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (codes + codebooks + tail)."""
        total = self._codes.rows.nbytes
        if self.pq.codebooks is not None:
            total += self.pq.codebooks.nbytes
        if self._tail is not None:
            total += self._tail.rows.nbytes
        return total

    def export(self) -> Tuple[dict, dict]:
        """``(meta, arrays)`` snapshot: codebooks and code rows, plus the
        refine tail when kept."""
        arrays = {"codebooks": self.pq.codebooks, "codes": self._codes.rows}
        if self._tail is not None:
            arrays["tail"] = self._tail.rows
        return {}, arrays

    def restore(self, meta: dict, arrays: dict) -> None:
        """Take over what :meth:`export` wrote (on a fresh instance); no
        k-means runs."""
        self.pq.codebooks = np.asarray(arrays["codebooks"], dtype=np.float32)
        self._codes = RowStore(np.asarray(arrays["codes"], dtype=np.uint8))
        self._tail = RowStore(arrays["tail"]) if "tail" in arrays else None
        self.train_count = 1

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """ADC kNN (+ optional refine); rows padded with ``inf``/``-1``."""
        if len(self._codes) == 0:
            raise RuntimeError("index is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        fetch = k if self._tail is None else k * self.refine_factor
        scores = self.pq.adc(self.pq.lut(queries), self._codes.rows)
        distances, indices = distance.topk_rows(scores, fetch)
        if self._tail is not None:
            distances, indices = self._refine(queries, indices, k)
        return distances[:, :k], indices[:, :k]

    def _refine(self, queries: np.ndarray, indices: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact re-rank of ADC candidates against the retained tail: one
        stacked call, each query against its own candidate rows (the
        ``-1`` pad ranks last, as ``inf``)."""
        pad = indices < 0
        exact = distance.pairwise(
            queries[None], self._tail.rows[np.where(pad, 0, indices)])[0]
        exact[pad] = np.inf
        order = np.lexsort((indices, exact, pad))[:, :k]
        return (np.take_along_axis(exact, order, axis=1),
                np.take_along_axis(indices, order, axis=1))
