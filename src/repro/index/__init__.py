"""``repro.index`` — kNN indexes: brute force, IVFFlat (Faiss stand-in),
the segment-based Hausdorff index (DFT stand-in), and the compressed /
approximate structures (int8 scalar quantization, product quantization,
HNSW graph). Every vector distance any of them computes comes from the
one blocked, dtype-preserving kernel in :mod:`repro.index.distance`.

The structures load on first use (PEP 562, see :mod:`repro._lazy`): a
shard that builds a brute-force index loads neither the graph, the
quantizers nor the segment index and its Hausdorff measure.
"""

from .._lazy import lazy_exports

# A function named like its submodule is bound here, before any structure
# imports that submodule and rebinds the name to it.
from .kmeans import kmeans, kmeans_plus_plus_init

#: submodule -> the names ``repro.index`` re-exports from it
_EXPORTS = {
    "bruteforce": ("BruteForceIndex", "pairwise_distances"),
    "distance": ("topk_rows",),
    "hnsw": ("HNSWIndex",),
    "ivf": ("IVFFlatIndex",),
    "pq": ("PQIndex", "ProductQuantizer"),
    "quant": ("Int8FlatIndex", "ScalarQuantizer"),
    "rows": ("RowStore",),
    "segment": ("SegmentHausdorffIndex",),
}

__all__ = [
    "distance",
    "BruteForceIndex",
    "pairwise_distances",
    "kmeans",
    "kmeans_plus_plus_init",
    "IVFFlatIndex",
    "SegmentHausdorffIndex",
    "Int8FlatIndex",
    "ScalarQuantizer",
    "topk_rows",
    "ProductQuantizer",
    "PQIndex",
    "HNSWIndex",
    "RowStore",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
