"""Index adapters: one :class:`~repro.api.protocols.Index` contract over
the brute-force, IVFFlat, segment-Hausdorff and compressed/approximate
structures of :mod:`repro.index`.

Vector indexes (``"bruteforce"``, ``"ivf"``, ``"pq"``, ``"int8"``,
``"hnsw"``) consume the embeddings an embedding backend produces; the
trajectory index (``"segment"``) consumes raw trajectories and answers
exact Hausdorff kNN with pruning, so it only composes with the
``"hausdorff"`` distance backend.

The IVF adapter hides the train-before-add dance of the raw
:class:`~repro.index.ivf.IVFFlatIndex`: vectors accumulate in a buffer and
the coarse quantizer is (re)trained lazily on first search, with ``n_lists``
clamped to what the data supports. Updates are incremental: once trained,
appended vectors are assigned to the existing centroids, and k-means only
re-runs when the database has grown ``retrain_factor``× past the size it
was last trained on.

The quantized adapters (``"pq"``, ``"int8"``) buffer floats only until
their first search: codebooks/grids train once on (a sample of) the
buffered vectors, everything buffered is encoded, and the float originals
are **dropped** — compressed residency is the point, so ``memory_bytes``
reflects codes, not hidden float copies. Vectors added after training are
encoded against the existing codebooks/grid (incremental, no re-train).
``"hnsw"`` has no train step at all; inserts go straight into the graph.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..index import (
    BruteForceIndex,
    HNSWIndex,
    Int8FlatIndex,
    IVFFlatIndex,
    PQIndex,
    RowStore,
    SegmentHausdorffIndex,
    distance,
)
from ..trajectory import as_points
from .protocols import Index

__all__ = [
    "BruteForceBackendIndex",
    "IVFBackendIndex",
    "SegmentBackendIndex",
    "PQBackendIndex",
    "Int8BackendIndex",
    "HNSWBackendIndex",
    "register_index",
    "get_index",
    "available_indexes",
    "index_is_exact",
]

_INDEXES: Dict[str, Callable[..., Index]] = {}


def _as_vectors(items) -> np.ndarray:
    """``items`` as 2-D float vectors in the dtype they arrived in.

    An index stores what the encoder emits: float32 stays float32 (half
    the bytes per vector), float64 stays float64, anything else becomes
    float64.
    """
    return np.atleast_2d(distance.as_floats(items))


def register_index(name: str):
    """Decorator registering an index factory under ``name``."""

    def decorate(factory):
        _INDEXES[name] = factory
        return factory

    return decorate


def get_index(name: str, **kwargs) -> Index:
    """Instantiate a registered index (``"bruteforce"``/``"ivf"``/``"segment"``)."""
    try:
        factory = _INDEXES[name]
    except KeyError:
        raise KeyError(
            f"unknown index {name!r}; available: {available_indexes()}"
        ) from None
    return factory(**kwargs)


def available_indexes() -> List[str]:
    """Sorted names of every registered index type."""
    return sorted(_INDEXES)


def index_is_exact(name: Optional[str]) -> bool:
    """Whether shards built from index ``name`` answer exact kNN.

    The sharded merge (:class:`~repro.api.serving.ShardedSimilarityService`,
    :class:`~repro.api.cluster.ClusterCoordinator`) keys its bit-exactness
    frontier certificate on this. ``None`` (the backend default / pairwise
    scan path) is exact; unknown names conservatively count as approximate.
    """
    if name is None:
        return True
    factory = _INDEXES.get(name)
    if factory is None:
        return False
    return bool(getattr(factory, "exact", True))


@register_index("bruteforce")
class BruteForceBackendIndex(Index):
    """Exact full-scan kNN over embedding vectors."""

    name = "bruteforce"
    consumes = "vectors"

    def __init__(self, metric: str = "l1"):
        self.metric = metric
        self._inner: Optional[BruteForceIndex] = None

    def add(self, items) -> None:
        vectors = _as_vectors(items)
        if self._inner is None:
            self._inner = BruteForceIndex(vectors.shape[1], metric=self.metric)
        self._inner.add(vectors)

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._inner is None:
            raise RuntimeError("index is empty")
        return self._inner.search(np.atleast_2d(queries), k)

    def __len__(self) -> int:
        return 0 if self._inner is None else len(self._inner)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size of the stored vectors."""
        return 0 if self._inner is None else self._inner.memory_bytes

    def state(self):
        meta = {"type": self.name, "metric": self.metric}
        arrays = {}
        if self._inner is not None:
            arrays["data"] = self._inner._data
        return meta, arrays

    @classmethod
    def restore(cls, meta, arrays) -> "BruteForceBackendIndex":
        index = cls(metric=meta["metric"])
        if "data" in arrays and len(arrays["data"]):
            index.add(arrays["data"])
        return index


@register_index("ivf")
class IVFBackendIndex(Index):
    """IVFFlat (Voronoi inverted lists) with lazy training and incremental add.

    The quantizer trains on the first search. Later :meth:`add` calls assign
    the new vectors to the *existing* centroids — no k-means re-run — until
    the database has grown ``retrain_factor``× beyond the size it was last
    trained on, at which point the next search re-trains with ``n_lists``
    re-clamped to the new size. ``train_count`` records how many k-means
    runs have happened.
    """

    name = "ivf"
    consumes = "vectors"
    exact = False

    def __init__(
        self,
        n_lists: int = 16,
        n_probe: int = 4,
        metric: str = "l1",
        seed: int = 0,
        retrain_factor: float = 2.0,
    ):
        if retrain_factor < 1.0:
            raise ValueError("retrain_factor must be >= 1")
        self.n_lists = n_lists
        self.n_probe = n_probe
        self.metric = metric
        self.seed = seed
        self.retrain_factor = retrain_factor
        self.train_count = 0
        self._trained_size = 0
        self._vectors = np.empty((0, 0))
        self._inner: Optional[IVFFlatIndex] = None

    def add(self, items) -> None:
        vectors = _as_vectors(items)
        if self._vectors.size == 0:
            self._vectors = vectors.copy()
        else:
            self._vectors = np.concatenate([self._vectors, vectors], axis=0)
        if self._inner is None:
            return  # quantizer trains lazily on the next search
        if len(self._vectors) > self.retrain_factor * self._trained_size:
            self._inner = None  # grown too far past the trained quantizer
        else:
            self._inner.add(vectors)  # assign to the existing centroids

    def _build(self) -> IVFFlatIndex:
        if self._inner is None:
            # Coarse quantizer needs >= n_lists training vectors and stays
            # meaningful with a few vectors per cell.
            n_lists = max(1, min(self.n_lists, len(self._vectors) // 4))
            inner = IVFFlatIndex(
                self._vectors.shape[1], n_lists=n_lists, metric=self.metric,
                n_probe=max(1, min(self.n_probe, n_lists)),
            )
            inner.train(self._vectors, rng=np.random.default_rng(self.seed))
            inner.add(self._vectors)
            self._inner = inner
            self._trained_size = len(self._vectors)
            self.train_count += 1
        return self._inner

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if len(self._vectors) == 0:
            raise RuntimeError("index is empty")
        return self._build().search(np.atleast_2d(queries), k)

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (inverted lists + ids + centres)."""
        return 0 if len(self._vectors) == 0 else self._build().memory_bytes

    def stats(self) -> Dict:
        # Deliberately not the base implementation: touching
        # ``memory_bytes`` before the first search would run k-means just
        # to answer a stats probe.
        info = {"name": self.name, "size": len(self), "exact": self.exact,
                "trained": self._inner is not None,
                "train_count": self.train_count}
        info["memory_bytes"] = int(
            self._inner.memory_bytes if self._inner is not None
            else self._vectors.nbytes
        )
        return info

    def state(self):
        meta = {
            "type": self.name, "metric": self.metric, "n_lists": self.n_lists,
            "n_probe": self.n_probe, "seed": self.seed,
            "retrain_factor": self.retrain_factor,
        }
        return meta, {"vectors": self._vectors}

    @classmethod
    def restore(cls, meta, arrays) -> "IVFBackendIndex":
        index = cls(n_lists=meta["n_lists"], n_probe=meta["n_probe"],
                    metric=meta["metric"], seed=meta["seed"],
                    retrain_factor=meta.get("retrain_factor", 2.0))
        if "vectors" in arrays and len(arrays["vectors"]):
            index.add(arrays["vectors"])
        return index


@register_index("segment")
class SegmentBackendIndex(Index):
    """Exact Hausdorff kNN over raw trajectories (segment buckets + pruning)."""

    name = "segment"
    consumes = "trajectories"
    #: the measure this index answers; the service refuses to compose it
    #: with a different distance backend
    measure_name = "hausdorff"

    def __init__(self, bucket_size: float = 500.0):
        self.bucket_size = bucket_size
        self._trajectories: List[np.ndarray] = []
        self._inner: Optional[SegmentHausdorffIndex] = None

    def add(self, items) -> None:
        self._trajectories.extend(as_points(t) for t in items)
        self._inner = None  # rebuilt lazily with the new contents

    def _build(self) -> SegmentHausdorffIndex:
        if self._inner is None:
            inner = SegmentHausdorffIndex(bucket_size=self.bucket_size)
            inner.build(self._trajectories)
            self._inner = inner
        return self._inner

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if not self._trajectories:
            raise RuntimeError("index is empty")
        # One batched lower-bound pass for every query (rows padded to k
        # with inf/-1, mirroring the vector indexes); only the pruned
        # exact Hausdorff evaluations remain per-query work.
        return self._build().knn_batch(list(queries), k)

    def __len__(self) -> int:
        return len(self._trajectories)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size (points + MBRs + segment buckets)."""
        return 0 if not self._trajectories else self._build().memory_bytes

    def state(self):
        # Trajectories are stored by the service itself; the segment
        # structure is deterministic, so only the knob needs recording.
        return {"type": self.name, "bucket_size": self.bucket_size}, {}

    @classmethod
    def restore(cls, meta, arrays) -> "SegmentBackendIndex":
        return cls(bucket_size=meta["bucket_size"])


@register_index("pq")
class PQBackendIndex(Index):
    """Product-quantized kNN (optionally IVF-PQ residual + exact refine).

    Vectors buffer as floats only until the first search: the codebooks
    train once on up to ``train_sample`` buffered vectors, everything is
    encoded to uint8 code rows, and the float buffer is dropped. Later
    :meth:`add` calls encode against the existing codebooks — incremental,
    no re-train. ``refine_dtype`` (``"float16"``/``"float32"``) retains a
    low-precision tail and re-ranks ``refine_factor * k`` ADC candidates
    exactly, trading memory back for recall.
    """

    name = "pq"
    consumes = "vectors"
    exact = False

    def __init__(
        self,
        n_subspaces: int = 16,
        n_centroids: int = 256,
        metric: str = "l1",
        coarse_lists: int = 0,
        n_probe: int = 8,
        refine_factor: int = 4,
        refine_dtype: Optional[str] = None,
        train_sample: int = 20000,
        seed: int = 0,
    ):
        if train_sample < 1:
            raise ValueError("train_sample must be positive")
        self.n_subspaces = n_subspaces
        self.n_centroids = n_centroids
        self.metric = metric
        self.coarse_lists = coarse_lists
        self.n_probe = n_probe
        self.refine_factor = refine_factor
        self.refine_dtype = refine_dtype
        self.train_sample = train_sample
        self.seed = seed
        self.train_count = 0
        self._buffer = np.empty((0, 0))
        self._inner: Optional[PQIndex] = None

    def _make_inner(self, dim: int) -> PQIndex:
        return PQIndex(
            dim,
            n_subspaces=self.n_subspaces,
            n_centroids=self.n_centroids,
            metric=self.metric,
            coarse_lists=self.coarse_lists,
            n_probe=self.n_probe,
            refine_factor=self.refine_factor,
            refine_dtype=self.refine_dtype,
        )

    def add(self, items) -> None:
        vectors = _as_vectors(items)
        if self._inner is not None:
            self._inner.add(vectors)  # encode against existing codebooks
            return
        if self._buffer.size == 0:
            self._buffer = vectors.copy()
        else:
            self._buffer = np.concatenate([self._buffer, vectors], axis=0)

    def _build(self) -> PQIndex:
        if self._inner is None:
            inner = self._make_inner(self._buffer.shape[1])
            sample = self._buffer[:self.train_sample]
            if inner.coarse_lists:
                # Coarse cells stay meaningful with a few vectors per cell
                # (same clamp policy as the IVF adapter).
                inner.coarse_lists = max(1, min(inner.coarse_lists,
                                                len(sample) // 4))
            inner.train(sample, rng=np.random.default_rng(self.seed))
            inner.add(self._buffer)
            self._inner = inner
            self.train_count += 1
            self._buffer = np.empty((0, 0))  # compressed residency
        return self._inner

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise RuntimeError("index is empty")
        return self._build().search(np.atleast_2d(queries), k)

    def __len__(self) -> int:
        return len(self._inner) if self._inner is not None else len(self._buffer)

    @property
    def memory_bytes(self) -> int:
        """Resident size: codes + codebooks (+ centres + refine tail)."""
        if self._inner is not None:
            return self._inner.memory_bytes
        return self._buffer.nbytes

    def stats(self) -> Dict:
        info = super().stats()
        info.update({
            "trained": self._inner is not None,
            "train_count": self.train_count,
            "n_subspaces": self.n_subspaces,
            "n_centroids": self.n_centroids,
            "coarse_lists": self.coarse_lists,
            "refine_dtype": self.refine_dtype,
        })
        if self._inner is not None:
            info["codebook_shape"] = list(self._inner.pq.codebooks.shape)
        return info

    def state(self):
        meta = {
            "type": self.name, "metric": self.metric,
            "n_subspaces": self.n_subspaces, "n_centroids": self.n_centroids,
            "coarse_lists": self.coarse_lists, "n_probe": self.n_probe,
            "refine_factor": self.refine_factor,
            "refine_dtype": self.refine_dtype,
            "train_sample": self.train_sample, "seed": self.seed,
            "trained": self._inner is not None,
        }
        if self._inner is None:
            return meta, {"buffer": self._buffer}
        inner = self._inner
        meta["dim"] = inner.dim
        arrays = {"codebooks": inner.pq.codebooks, "codes": inner._codes.rows}
        if inner._assign is not None:
            arrays["assign"] = inner._assign.rows
            arrays["centers"] = inner.centers
        if inner._tail is not None:
            arrays["tail"] = inner._tail.rows
        return meta, arrays

    @classmethod
    def restore(cls, meta, arrays) -> "PQBackendIndex":
        index = cls(
            n_subspaces=meta["n_subspaces"], n_centroids=meta["n_centroids"],
            metric=meta["metric"], coarse_lists=meta["coarse_lists"],
            n_probe=meta["n_probe"], refine_factor=meta["refine_factor"],
            refine_dtype=meta["refine_dtype"],
            train_sample=meta["train_sample"], seed=meta["seed"],
        )
        if not meta.get("trained"):
            if "buffer" in arrays and arrays["buffer"].size:
                index.add(arrays["buffer"])
            return index
        inner = index._make_inner(int(meta["dim"]))
        inner._reset_storage()
        inner.pq.codebooks = np.asarray(arrays["codebooks"], dtype=np.float32)
        inner._codes = RowStore(np.asarray(arrays["codes"], dtype=np.uint8))
        if "assign" in arrays:
            inner._assign = RowStore(
                np.asarray(arrays["assign"], dtype=np.int32))
            inner.centers = np.asarray(arrays["centers"], dtype=np.float32)
            inner.coarse_lists = len(inner.centers)  # clamped at build time
        if "tail" in arrays:
            inner._tail = RowStore(np.asarray(arrays["tail"]))
        inner._trained = True
        inner.train_count = 1
        index._inner = inner
        index.train_count = 1
        return index


@register_index("int8")
class Int8BackendIndex(Index):
    """Int8 scalar quantization: 8× smaller residency, near-exact recall.

    Same lazy lifecycle as ``"pq"``: floats buffer until the first search,
    the per-dimension affine grid trains on the buffer, codes replace the
    float originals. Vectors added after training are clipped onto the
    existing grid.
    """

    name = "int8"
    consumes = "vectors"
    exact = False

    def __init__(self, metric: str = "l1", train_sample: int = 65536):
        if train_sample < 1:
            raise ValueError("train_sample must be positive")
        self.metric = metric
        self.train_sample = train_sample
        self.train_count = 0
        self._buffer = np.empty((0, 0))
        self._inner: Optional[Int8FlatIndex] = None

    def add(self, items) -> None:
        vectors = _as_vectors(items)
        if self._inner is not None:
            self._inner.add(vectors)  # clip onto the existing grid
            return
        if self._buffer.size == 0:
            self._buffer = vectors.copy()
        else:
            self._buffer = np.concatenate([self._buffer, vectors], axis=0)

    def _build(self) -> Int8FlatIndex:
        if self._inner is None:
            inner = Int8FlatIndex(self._buffer.shape[1], metric=self.metric)
            inner.train(self._buffer[:self.train_sample])
            inner.add(self._buffer)
            self._inner = inner
            self.train_count += 1
            self._buffer = np.empty((0, 0))  # compressed residency
        return self._inner

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise RuntimeError("index is empty")
        return self._build().search(np.atleast_2d(queries), k)

    def __len__(self) -> int:
        return len(self._inner) if self._inner is not None else len(self._buffer)

    @property
    def memory_bytes(self) -> int:
        """Resident size: uint8 codes + the per-dimension affine grid."""
        if self._inner is not None:
            return self._inner.memory_bytes
        return self._buffer.nbytes

    def stats(self) -> Dict:
        info = super().stats()
        info.update({"trained": self._inner is not None,
                     "train_count": self.train_count})
        return info

    def state(self):
        meta = {"type": self.name, "metric": self.metric,
                "train_sample": self.train_sample,
                "trained": self._inner is not None}
        if self._inner is None:
            return meta, {"buffer": self._buffer}
        meta["dim"] = self._inner.dim
        quantizer = self._inner.quantizer
        return meta, {
            "codes": self._inner._codes.rows,
            "scale": quantizer.scale,
            "offset": quantizer.offset,
        }

    @classmethod
    def restore(cls, meta, arrays) -> "Int8BackendIndex":
        index = cls(metric=meta["metric"],
                    train_sample=meta.get("train_sample", 65536))
        if not meta.get("trained"):
            if "buffer" in arrays and arrays["buffer"].size:
                index.add(arrays["buffer"])
            return index
        inner = Int8FlatIndex(int(meta["dim"]), metric=meta["metric"])
        inner.quantizer.scale = np.asarray(arrays["scale"], dtype=np.float32)
        inner.quantizer.offset = np.asarray(arrays["offset"], dtype=np.float32)
        inner._codes = RowStore(np.asarray(arrays["codes"], dtype=np.uint8))
        inner.train_count = 1
        index._inner = inner
        index.train_count = 1
        return index


@register_index("hnsw")
class HNSWBackendIndex(Index):
    """HNSW graph kNN: sub-linear distance evaluations, float32 residency.

    Purely incremental — no train step, every :meth:`add` inserts into the
    graph immediately. Snapshots persist the exact graph (levels + link
    lists as flat int arrays), so a restored index answers bit-identical
    queries without re-inserting.
    """

    name = "hnsw"
    consumes = "vectors"
    exact = False

    def __init__(
        self,
        m: int = 16,
        ef_construction: int = 64,
        ef_search: int = 32,
        metric: str = "l1",
        seed: int = 0,
    ):
        self.m = m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.metric = metric
        self.seed = seed
        self._inner: Optional[HNSWIndex] = None

    def _make_inner(self, dim: int) -> HNSWIndex:
        return HNSWIndex(
            dim, m=self.m, ef_construction=self.ef_construction,
            ef_search=self.ef_search, metric=self.metric, seed=self.seed,
        )

    def add(self, items) -> None:
        vectors = _as_vectors(items)
        if self._inner is None:
            self._inner = self._make_inner(vectors.shape[1])
        self._inner.add(vectors)

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._inner is None:
            raise RuntimeError("index is empty")
        return self._inner.search(np.atleast_2d(queries), k)

    def __len__(self) -> int:
        return 0 if self._inner is None else len(self._inner)

    @property
    def memory_bytes(self) -> int:
        """Resident size: float32 vectors + graph links."""
        return 0 if self._inner is None else self._inner.memory_bytes

    @property
    def distance_evaluations(self) -> int:
        """Cumulative vector-distance computations (build + queries)."""
        return 0 if self._inner is None else self._inner.distance_evaluations

    def stats(self) -> Dict:
        info = {
            "name": self.name, "size": len(self), "exact": self.exact,
            "memory_bytes": int(self.memory_bytes),
            "m": self.m, "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "distance_evaluations": int(self.distance_evaluations),
        }
        if self._inner is not None:
            info["max_level"] = self._inner._max_level
        return info

    def state(self):
        meta = {"type": self.name, "metric": self.metric, "m": self.m,
                "ef_construction": self.ef_construction,
                "ef_search": self.ef_search, "seed": self.seed,
                "built": self._inner is not None}
        if self._inner is None:
            return meta, {}
        graph_meta, arrays = self._inner.export_graph()
        meta["dim"] = self._inner.dim
        meta["graph"] = graph_meta
        return meta, arrays

    @classmethod
    def restore(cls, meta, arrays) -> "HNSWBackendIndex":
        index = cls(m=meta["m"], ef_construction=meta["ef_construction"],
                    ef_search=meta["ef_search"], metric=meta["metric"],
                    seed=meta["seed"])
        if meta.get("built"):
            inner = index._make_inner(int(meta["dim"]))
            inner.import_graph(meta["graph"], arrays)
            index._inner = inner
        return index
