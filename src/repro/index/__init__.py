"""``repro.index`` — kNN indexes: brute force, IVFFlat (Faiss stand-in),
the segment-based Hausdorff index (DFT stand-in), and the compressed /
approximate structures (int8 scalar quantization, product quantization,
HNSW graph). Their L1 distances come from the one kernel in
:mod:`repro.index.distance` (PQ's codes and LUTs as stacked sub-space
calls) but HNSW's graph walk, which sums rows to the kernel's bits;
k-means ranks centres with its own L2 GEMM, the Lloyd objective.

The structures load on first use (PEP 562, see :mod:`repro._lazy`): a
shard that builds a brute-force index loads neither the graph, the
quantizers nor the segment index and its Hausdorff measure.
"""

from .._lazy import lazy_exports

#: submodule -> the names ``repro.index`` re-exports from it
_EXPORTS = {
    "bruteforce": ("BruteForceIndex",),
    "distance": ("topk_rows",),
    "hnsw": ("HNSWIndex",),
    "ivf": ("IVFFlatIndex",),
    "kmeans": ("kmeans", "kmeans_plus_plus_init"),
    "pq": ("PQIndex", "ProductQuantizer"),
    "quant": ("Int8FlatIndex", "ScalarQuantizer"),
    "rows": ("RowStore",),
    "segment": ("SegmentHausdorffIndex",),
}
#: submodules ``repro.index`` re-exports whole
_SUBMODULES = ("distance",)
#: bound at import: a function named like its submodule would be rebound
#: to the module when any structure first imports it
_EAGER = ("kmeans",)

__all__ = [*_SUBMODULES, *(name for names in _EXPORTS.values()
                           for name in names)]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, _SUBMODULES, _EAGER)
