"""``repro.index`` — kNN indexes: brute force, IVFFlat (Faiss stand-in),
the segment-based Hausdorff index (DFT stand-in), and the compressed /
approximate structures (int8 scalar quantization, product quantization,
HNSW graph). Every vector distance any of them computes comes from the
one blocked, dtype-preserving kernel in :mod:`repro.index.distance`."""

from . import distance
from .bruteforce import BruteForceIndex, pairwise_distances
from .distance import topk_rows
from .hnsw import HNSWIndex
from .ivf import IVFFlatIndex
from .kmeans import kmeans, kmeans_plus_plus_init
from .pq import PQIndex, ProductQuantizer
from .quant import Int8FlatIndex, ScalarQuantizer
from .rows import RowStore
from .segment import SegmentHausdorffIndex

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
