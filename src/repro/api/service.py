"""The :class:`SimilarityService` facade — backend + index + cache in one.

The service is the canonical entry point for trajectory-similarity
workloads: pick a backend by name, add a database, ask for neighbours::

    from repro.api import SimilarityService

    service = SimilarityService(backend="trajcl",
                                backend_kwargs={"checkpoint": "model.npz"})
    service.add(trajectories)
    distances, indices = service.knn(trajectories[7], k=3, exclude=7)
    service.save("service.npz")               # config + weights + index state

Embeddings are computed in chunks with a content-addressed cache
(:class:`CachedEncoder`), so repeated queries over the same trajectories
never re-run the encoder. The kNN path over-fetches and filters, so
self-matches (an explicit ``exclude`` id, or near-zero distances under
``dedupe_eps``) never silently shrink the result below ``k``.

``add`` / ``knn`` / ``pairwise`` also take
:class:`~repro.api.protocols.Embedded` input — vectors another tier
already computed — and then skip only the encode. A service built over a
:class:`~repro.api.protocols.BackendDescription` is *vector-fed* (every
shard of a sharded embedding service is): no model, nothing but
``Embedded`` input, the vectors kept beside the trajectories.

The database is one :class:`~repro.trajectory.trajectory.Ragged`: each
``add`` appends its batch as it came — the caller's checked list by
reference in process, the decoded block behind a wire hop — and a
vector-fed service keeps the vectors it was handed as they came too, so
its index holds the only float copy it makes.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import OrderedDict, namedtuple
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..trajectory.trajectory import (
    Ragged, TrajectoryLike, as_points_batch, pack_trajectories,
    unpack_trajectories,
)
from .backends import backend_state, restore_backend
from .indexes import get_index
from .protocols import (
    DISTANCE, EMBEDDING, BackendDescription, Embedded, EmbeddedInputError,
    Index, NoEncoderError, SimilarityBackend, as_backend, as_float_array,
)
from .registry import get_backend

__all__ = ["CacheInfo", "CachedEncoder", "SimilarityService"]

_FORMAT_VERSION = 2
_META_KEY = "__service__"
_BACKEND_PREFIX = "backend/"
_INDEX_PREFIX = "index/"
_DATA_PREFIX = "data/"
_CACHE_VECTORS_KEY = "cache/vectors"

#: ``functools.lru_cache``-style counters for the embedding cache.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "size", "maxsize"])


def _default_index_for(backend: SimilarityBackend) -> Optional[str]:
    if backend.kind == EMBEDDING:
        return "bruteforce"
    if backend.name == "hausdorff":
        return "segment"
    return None  # generic distance backends fall back to a pairwise scan


@functools.lru_cache(maxsize=16)
def _dtype_tag(dtype: np.dtype) -> bytes:
    """``str(dtype)`` as cache-key bytes, formatted once per dtype rather
    than once per trajectory (numpy builds the string in Python)."""
    return str(dtype).encode()


def _lru_put(cache: "OrderedDict[str, np.ndarray]", key: str,
             vector: np.ndarray, maxsize: int) -> None:
    if maxsize <= 0:
        return
    cache[key] = vector
    cache.move_to_end(key)
    while len(cache) > maxsize:
        cache.popitem(last=False)


class CachedEncoder:
    """``backend.encode`` in ``batch_size`` chunks behind a content-addressed
    LRU cache — the one place trajectories become vectors.

    A :class:`SimilarityService` holds one; so does every sharded owner
    (whose shards hold none): the same trajectories go through the same
    code in the same chunks, so a sharded answer is bit-identical to a
    single service's *including the encoder*. Its own lock guards the
    cache and the backend call; no owner holds its RPC lock around it.
    """

    def __init__(self, backend: SimilarityBackend, batch_size: int = 256,
                 cache_size: int = 4096):
        self.backend = backend
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def encode(self, trajectories: Sequence[TrajectoryLike]) -> np.ndarray:
        """Chunked, cached embeddings ``(N, d)`` (embedding backends only)."""
        batch = as_points_batch(trajectories)
        keys = [self.key(points) for points in batch]  # hashed unlocked
        with self._lock:
            out: List[Optional[np.ndarray]] = [None] * len(batch)
            missing: List[int] = []
            # A key repeated inside one call (N queued clients asking the same
            # thing) is encoded once: later occurrences are hits, served from
            # the row its first occurrence is about to compute.
            first: Dict[str, int] = {}
            repeats: List[Tuple[int, int]] = []
            for position, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is not None:
                    self.cache.move_to_end(key)
                    out[position] = hit
                    self.hits += 1
                elif key in first:
                    repeats.append((position, first[key]))
                    self.hits += 1
                else:
                    first[key] = position
                    missing.append(position)
                    self.misses += 1
            for start in range(0, len(missing), self.batch_size):
                chunk = missing[start:start + self.batch_size]
                # Entries keep the backend's own dtype (float32 for
                # trajcl): nothing between encode and search casts.
                encoded = as_float_array(
                    self.backend.encode(batch.take(chunk)))
                for row, position in enumerate(chunk):
                    vector = encoded[row]
                    out[position] = vector
                    _lru_put(self.cache, keys[position], vector,
                             self.cache_size)
            for position, source in repeats:
                out[position] = out[source]
            return np.stack(out) if out else np.empty((0, self.dim),
                                                      self.backend.dtype)

    @property
    def dim(self) -> int:
        """Best-known embedding dimensionality (0 when undeterminable)."""
        dim = self.backend.output_dim
        if isinstance(dim, int) and dim > 0:
            return dim
        if self.cache:
            return len(next(iter(self.cache.values())))
        return 0

    @staticmethod
    def key(points: np.ndarray) -> str:
        # Loaded by the first key, not the module: owners hash, and the
        # vector-fed shards that import this module never do.
        import hashlib

        digest = hashlib.sha1(np.ascontiguousarray(points).tobytes())
        # Shape and dtype both feed the hash: byte-identical buffers of a
        # different shape *or* dtype must never collide.
        digest.update(str(points.shape).encode())
        digest.update(_dtype_tag(points.dtype))
        return digest.hexdigest()

    def info(self) -> CacheInfo:
        """Embedding-cache counters: ``(hits, misses, size, maxsize)``."""
        return CacheInfo(self.hits, self.misses, len(self.cache),
                         self.cache_size)

    def put(self, key: str, vector: np.ndarray) -> None:
        """Insert one entry (a snapshot's warm cache, oldest first)."""
        with self._lock:
            _lru_put(self.cache, key, vector, self.cache_size)


class SimilarityService:
    """Similarity queries over one backend and one (optional) kNN index.

    Safe to call from any thread: one lock serializes the calls (see
    :class:`~repro.api.protocols.KnnService`).
    """

    def __init__(
        self,
        backend: Union[str, SimilarityBackend, object] = "trajcl",
        index: Union[str, Index, None] = None,
        *,
        backend_kwargs: Optional[Dict] = None,
        index_kwargs: Optional[Dict] = None,
        batch_size: int = 256,
        cache_size: int = 4096,
    ):
        if isinstance(backend, str):
            backend = get_backend(backend, **(backend_kwargs or {}))
        else:
            backend = as_backend(backend)
        self.backend = backend

        if index is None:
            index = _default_index_for(backend)
        if isinstance(index, str):
            index = get_index(index, **(index_kwargs or {}))
        if index is not None:
            if index.consumes == "vectors" and backend.kind != EMBEDDING:
                raise ValueError(
                    f"index {index.name!r} needs embeddings but backend "
                    f"{backend.name!r} is a distance backend"
                )
            if index.consumes == "trajectories":
                if backend.kind != DISTANCE:
                    raise ValueError(
                        f"index {index.name!r} answers heuristic kNN "
                        f"directly; compose it with a distance backend, not "
                        f"{backend.name!r}"
                    )
                measure = getattr(index, "measure_name", backend.name)
                if measure != backend.name:
                    raise ValueError(
                        f"index {index.name!r} answers {measure!r} kNN; "
                        f"composing it with backend {backend.name!r} would "
                        "return neighbours under the wrong measure"
                    )
        self.index = index

        self.encoder = CachedEncoder(backend, batch_size, cache_size)
        self.trajectories = Ragged()
        #: the vectors behind ``trajectories``, one array per add as it
        #: was handed in, kept only by a vector-fed service (anyone else
        #: re-derives them through the encoder)
        self._vectors: List[np.ndarray] = []
        # Held by add / knn / pairwise / stats / save, so the service is
        # safe from any thread; reentrant because knn's scan calls pairwise.
        self._lock = threading.RLock()

    @property
    def vector_fed(self) -> bool:
        """True when the backend is a description: no model here, every
        input arrives :class:`~repro.api.protocols.Embedded`."""
        return isinstance(self.backend, BackendDescription)

    # ------------------------------------------------------------------
    # Database
    # ------------------------------------------------------------------
    def add(self, trajectories: Sequence[TrajectoryLike]) -> "SimilarityService":
        """Append trajectories to the database (and the index, if any)."""
        with self._lock:
            given = self._given(trajectories)
            if given is not None:
                if given.trajectories is None:
                    raise EmbeddedInputError(
                        "add() stores what it indexes: pass "
                        "Embedded(vectors, trajectories)")
                trajectories = given.trajectories
            points = as_points_batch(trajectories)
            if not points:
                return self
            if self.index is not None:
                if self.index.consumes == "vectors":
                    vectors = self._vectors_of(points if given is None
                                               else given)
                    self.index.add(vectors)
                    if self.vector_fed:
                        self._vectors.append(vectors)
                else:
                    self.index.add(points)
            self.trajectories.append(points)
            return self

    def __len__(self) -> int:
        return len(self.trajectories)

    def stored_vectors(self) -> np.ndarray:
        """The ``(N, d)`` vectors a vector-fed service was handed, in id
        order (``(0, d)`` before any add)."""
        if len(self._vectors) == 1:
            return self._vectors[0]
        if self._vectors:
            return np.concatenate(self._vectors)
        return np.empty((0, self.encoder.dim), self.backend.dtype)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_batch(self, trajectories: Sequence[TrajectoryLike]) -> np.ndarray:
        """Chunked, cached embeddings ``(N, d)`` (embedding backends only)."""
        return self.encoder.encode(trajectories)

    def _given(self, items) -> Optional[Embedded]:
        """``items`` when it is already-embedded input, checked against
        this service before anything is stored or searched; else None."""
        if not isinstance(items, Embedded):
            return None
        if self.backend.kind != EMBEDDING:
            raise EmbeddedInputError(
                f"backend {self.backend.name!r} is a distance backend; it "
                "compares trajectories, not embeddings")
        dim = (self._vectors[0].shape[1] if self._vectors
               else self.encoder.dim)
        if dim and items.vectors.shape[1] != dim:
            raise EmbeddedInputError(
                f"embedded input has {items.vectors.shape[1]} dimensions, "
                f"this service compares {dim}")
        return items

    def _vectors_of(self, items) -> np.ndarray:
        """Embeddings of ``items``: read off :class:`Embedded` input,
        computed (chunked, cached) for trajectories."""
        if isinstance(items, Embedded):
            return items.vectors
        return self.encoder.encode(items)

    def cache_info(self) -> CacheInfo:
        """Embedding-cache counters: ``(hits, misses, size, maxsize)``."""
        return self.encoder.info()

    def stats(self) -> Dict:
        """Serving metadata: backend, index, size, cache counters.

        One JSON-able dict shared by ``repr``-style introspection and the
        remote serving layer's ``stats`` command
        (:class:`~repro.api.remote.SimilarityServer`). A vector-fed
        service has no cache to report: the counters are its owner's.
        """
        with self._lock:
            info = {
                "type": type(self).__name__,
                "backend": self.backend.name,
                "kind": self.backend.kind,
                "index": (self.index.name if self.index is not None
                          else "scan"),
                "size": len(self),
            }
            if not self.vector_fed:
                info["cache"] = self.cache_info()._asdict()
            if self.index is not None:
                # Unified index introspection (exactness, memory_bytes, and
                # the quantized indexes' codebook/knob detail) — JSON-able
                # all the way up to the gateway's /stats endpoint.
                info["index_stats"] = self.index.stats()
            return info

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Optional[Sequence[TrajectoryLike]] = None,
    ) -> np.ndarray:
        """Dense ``(|Q|, |D|)`` distances; D defaults to the added database."""
        with self._lock:
            if self._given(queries) is None:
                queries = as_points_batch(queries)
            if database is None:
                database = self.trajectories
            if len(queries) == 0 or len(database) == 0:
                # Well-shaped empties: distance backends iterate pairs and
                # would otherwise hand shapeless results to downstream
                # reshapes.
                return np.zeros((len(queries), len(database)))
            if (self.backend.kind == EMBEDDING
                    and database is self.trajectories):
                # Route through the embedding cache for the stored database
                # (a vector-fed service reads the vectors it was handed
                # instead). ``scale`` keeps parity with backends whose
                # distances live on a target measure's scale (the
                # supervised approximators).
                from ..index import distance

                scale = getattr(self.backend, "scale", 1.0)
                vectors = self._vectors_of(queries)
                # the kernel is split-invariant: one call per stored block
                # gives the bits of one call over their concatenation
                stored = (self._vectors if self.vector_fed
                          else [self.encode_batch(database)])
                return scale * np.concatenate(
                    [distance.pairwise(vectors, block)
                     for block in stored], axis=1)
            if isinstance(queries, Embedded):
                raise EmbeddedInputError(
                    "already-embedded queries compare against the stored "
                    "database of an embedding backend only")
            return self.backend.pairwise(queries, database)

    # ``evaluate_mean_rank`` and friends dispatch on this name.
    distance_matrix = pairwise

    def knn(
        self,
        queries: Sequence[TrajectoryLike],
        k: int,
        exclude: Optional[int] = None,
        dedupe_eps: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest database ids per query: ``(distances, indices)``.

        ``exclude`` drops one database id from every result (the query's own
        id when querying with a database member); ``dedupe_eps`` drops any
        neighbour at distance ``<= dedupe_eps`` (self-matches of a query
        that is a *copy* of a database trajectory). Either way the result
        still has ``k`` columns — the service over-fetches and filters
        instead of silently returning fewer neighbours. Rows are padded
        with ``inf``/``-1`` only when the database itself is too small.
        """
        with self._lock:
            if not self.trajectories:
                raise RuntimeError(
                    "service database is empty; call add() first")
            if k < 1:
                raise ValueError("k must be >= 1")
            if self._given(queries) is None:
                queries = as_points_batch(queries)
            if not len(queries):
                return (np.empty((0, k)), np.empty((0, k), dtype=np.int64))
            n = len(self.trajectories)
            dropped = (1 if exclude is not None else 0)
            fetch = min(n, k + dropped
                        + (1 if dedupe_eps is not None else 0))
            if self.index is None:
                fetch = n  # the scan ranks everything in one pass anyway
            while True:
                distances, indices = self._raw_knn(queries, fetch)
                kept_d, kept_i, short = [], [], False
                for row_d, row_i in zip(distances, indices):
                    keep = row_i >= 0
                    if exclude is not None:
                        keep &= row_i != exclude
                    if dedupe_eps is not None:
                        keep &= row_d > dedupe_eps
                    row_d, row_i = row_d[keep], row_i[keep]
                    if len(row_d) < k and fetch < n:
                        short = True
                    kept_d.append(row_d[:k])
                    kept_i.append(row_i[:k])
                if short:
                    fetch = min(n, max(fetch * 2, k + 1))
                    continue
                out_d = np.full((len(queries), k), np.inf)
                out_i = np.full((len(queries), k), -1, dtype=np.int64)
                for row, (row_d, row_i) in enumerate(zip(kept_d, kept_i)):
                    out_d[row, :len(row_d)] = row_d
                    out_i[row, :len(row_i)] = row_i
                return out_d, out_i

    def _raw_knn(self, queries, fetch: int):
        if self.index is not None:
            if self.index.consumes == "vectors":
                distances, indices = self.index.search(
                    self._vectors_of(queries), fetch
                )
                return distances * getattr(self.backend, "scale", 1.0), indices
            return self.index.search(queries, fetch)
        # Scan path: the full matrix is computed anyway, so return the
        # complete ranking — the over-fetch loop then never re-scans.
        # Stable sort breaks equal-distance ties by database id, matching
        # the vector-index paths.
        matrix = self.pairwise(queries)
        indices = np.argsort(matrix, axis=1, kind="stable")
        rows = np.arange(len(queries))[:, None]
        return matrix[rows, indices], indices.astype(np.int64)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str, include_cache: bool = False) -> None:
        """One ``.npz`` snapshot: backend config+weights, index state, data.

        ``include_cache=True`` additionally persists the embedding cache
        (keys + vectors, in LRU order) so a restored service answers its
        first queries warm instead of re-running the encoder. A vector-fed
        service has no model to snapshot: :class:`NoEncoderError`, before
        anything is written — its owner's snapshot
        (``ClusterCoordinator.save``) holds the shards.
        """
        if self.vector_fed:
            raise NoEncoderError(
                f"a vector-fed service of backend {self.backend.name!r} holds "
                "no model to snapshot; save its owner instead "
                "(ClusterCoordinator.save writes every shard's trajectories "
                "and vectors)")
        with self._lock:
            backend_meta, backend_arrays = backend_state(self.backend)
            index_meta: Optional[Dict] = None
            payload: Dict[str, np.ndarray] = {}
            if self.index is not None:
                index_meta, index_arrays = self.index.state()
                for key, value in index_arrays.items():
                    payload[_INDEX_PREFIX + key] = value
            meta = {
                "format_version": _FORMAT_VERSION,
                "backend": backend_meta,
                "index": index_meta,
                "batch_size": self.encoder.batch_size,
                "cache_size": self.encoder.cache_size,
            }
            cache = self.encoder.cache
            if include_cache and cache:
                # Keys in LRU order (oldest first) so the restored OrderedDict
                # evicts in the same order the live one would have.
                meta["cache_keys"] = list(cache)
                payload[_CACHE_VECTORS_KEY] = np.stack(list(cache.values()))
            payload[_META_KEY] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
            for key, value in backend_arrays.items():
                payload[_BACKEND_PREFIX + key] = value
            payload.update(pack_trajectories(self.trajectories, _DATA_PREFIX))
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "SimilarityService":
        """Rebuild a service (backend, index and database) from :meth:`save`."""
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        if _META_KEY not in state:
            raise ValueError(f"{path!r} is not a SimilarityService snapshot")
        meta = json.loads(bytes(state[_META_KEY]).decode("utf-8"))
        version = meta.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported SimilarityService snapshot version {version!r}"
            )
        trajectories = unpack_trajectories(state, _DATA_PREFIX)
        backend = restore_backend(meta["backend"], {
            key[len(_BACKEND_PREFIX):]: value
            for key, value in state.items() if key.startswith(_BACKEND_PREFIX)
        })
        index = None
        if meta["index"] is not None:
            index_arrays = {
                key[len(_INDEX_PREFIX):]: value
                for key, value in state.items() if key.startswith(_INDEX_PREFIX)
            }
            index = get_index(meta["index"]["type"]).restore(
                meta["index"], index_arrays
            )
        service = cls(
            backend=backend, index=index,
            batch_size=meta["batch_size"], cache_size=meta["cache_size"],
        )
        service.trajectories.append(trajectories)
        if index is not None and index.consumes == "trajectories" and not len(index):
            index.add(service.trajectories)
        if meta.get("cache_keys") and _CACHE_VECTORS_KEY in state:
            for key, vector in zip(meta["cache_keys"],
                                   state[_CACHE_VECTORS_KEY]):
                service.encoder.put(key, vector)
        return service

    def __repr__(self) -> str:
        index_name = self.index.name if self.index is not None else None
        return (
            f"SimilarityService(backend={self.backend.name!r}, "
            f"index={index_name!r}, size={len(self)})"
        )
