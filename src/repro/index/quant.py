"""Int8 scalar quantization — compressed-residency flat index.

Each dimension gets an affine grid ``x ≈ offset[d] + scale[d] * code`` with
``code ∈ [0, 255]`` stored as uint8 — an 8× size reduction over the float64
residency of :class:`~repro.index.bruteforce.BruteForceIndex` (4× over
float32). Queries are quantized onto the same grid and distances are
computed symmetrically in the integer domain: int16 code differences
weighted per dimension by ``scale``. All scan intermediates stay
int16/float32 — never float64 (the law is
``tests/index/test_ann.py::test_compressed_search_distances_stay_float32``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import distance
from .rows import RowStore


class ScalarQuantizer:
    """Per-dimension affine uint8 quantizer trained on the data min/max."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.scale: Optional[np.ndarray] = None   # float32 (dim,)
        self.offset: Optional[np.ndarray] = None  # float32 (dim,)

    @property
    def trained(self) -> bool:
        return self.scale is not None

    def train(self, vectors: np.ndarray) -> None:
        """Fit ``offset = min`` and ``scale = (max - min) / 255`` per dim."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        if len(vectors) == 0:
            raise ValueError("cannot train a quantizer on zero vectors")
        lo = vectors.min(axis=0)
        span = np.maximum(vectors.max(axis=0) - lo, 1e-12)
        self.offset = lo.astype(np.float32)
        self.scale = (span / 255.0).astype(np.float32)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize to uint8 codes, clipping to the trained range."""
        if not self.trained:
            raise RuntimeError("quantizer is untrained")
        vectors = np.asarray(vectors, dtype=np.float64)
        codes = np.rint((vectors - self.offset) / self.scale)
        return np.clip(codes, 0.0, 255.0).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float32 grid points from uint8 codes."""
        if not self.trained:
            raise RuntimeError("quantizer is untrained")
        return self.offset + self.scale * codes.astype(np.float32)


class Int8FlatIndex:
    """Flat scan over uint8 codes with an int-domain distance kernel.

    Like :class:`~repro.index.ivf.IVFFlatIndex`, :meth:`train` must run
    before :meth:`add`; re-training empties the stored codes (the grid
    changed, so old codes are meaningless) and the caller re-adds.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.quantizer = ScalarQuantizer(dim)
        self._codes = RowStore(np.empty((0, dim), dtype=np.uint8))
        self.train_count = 0

    @property
    def trained(self) -> bool:
        return self.quantizer.trained

    def train(self, vectors: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> None:
        """Fit the per-dimension grid; empties stored codes.

        The grid is min/max — nothing is drawn; ``rng`` is accepted so
        every trainable structure takes ``train(vectors, rng=...)``.
        """
        self.quantizer.train(vectors)
        self._codes = RowStore(np.empty((0, self.dim), dtype=np.uint8))
        self.train_count += 1

    def add(self, vectors: np.ndarray) -> None:
        if not self.trained:
            raise RuntimeError("index must be trained before adding vectors")
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) vectors")
        self._codes.append(self.quantizer.encode(vectors))

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (codes + the affine grid)."""
        grid = 0
        if self.trained:
            grid = self.quantizer.scale.nbytes + self.quantizer.offset.nbytes
        return self._codes.rows.nbytes + grid

    def export(self) -> Tuple[dict, dict]:
        """``(meta, arrays)`` snapshot: the code rows and the grid."""
        return {}, {"codes": self._codes.rows,
                    "scale": self.quantizer.scale,
                    "offset": self.quantizer.offset}

    def restore(self, meta: dict, arrays: dict) -> None:
        """Take over what :meth:`export` wrote (on a fresh instance)."""
        self.quantizer.scale = np.asarray(arrays["scale"], dtype=np.float32)
        self.quantizer.offset = np.asarray(arrays["offset"], dtype=np.float32)
        self._codes = RowStore(np.asarray(arrays["codes"], dtype=np.uint8))
        self.train_count = 1

    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """kNN by symmetric int-domain scan; rows padded with ``inf``/``-1``."""
        if len(self._codes) == 0:
            raise RuntimeError("index is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected (*, {self.dim}) queries")
        qcodes = self.quantizer.encode(queries).astype(np.int16)
        return distance.topk_rows(self._scan(qcodes), k)

    def _scan(self, qcodes: np.ndarray) -> np.ndarray:
        """Dense ``(|Q|, N)`` float32 distances from int16 query codes."""
        return distance.pairwise(qcodes, self._codes.rows,
                                 self.quantizer.scale)
