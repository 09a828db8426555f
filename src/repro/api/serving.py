"""The concurrent serving layer: sharded kNN workers and a query batcher.

Two compositions turn the single-process :class:`SimilarityService` into
the scalable serving path the ROADMAP calls for:

* :class:`ShardedSimilarityService` — partitions the database across N
  worker *processes* (each a :class:`Shard`: a ``SimilarityService``
  with its own index over a slice of the database), fans
  ``add``/``knn``/``pairwise`` out over :mod:`~repro.api.transport`
  channels, and merges per-shard top-k with distance-then-id
  tie-breaking. For exact indexes the merged result is identical to a
  single service over the same database;
* :class:`QueryQueue` — coalesces many concurrent ``knn`` (and
  ``pairwise``) calls into batched service calls (up to ``max_batch``
  queries per flush, waiting at most ``max_wait`` seconds for
  stragglers), so heavy traffic amortizes encoder cost instead of paying
  per-call overhead. Callers get :class:`concurrent.futures.Future`
  results, or block via :meth:`knn` / :meth:`pairwise`.

Both compose: put a ``QueryQueue`` in front of a
``ShardedSimilarityService`` for batched, sharded serving::

    from repro.api import ShardedSimilarityService, QueryQueue

    with ShardedSimilarityService(backend=backend, num_workers=4) as shards:
        shards.add(database)
        with QueryQueue(shards, max_batch=64, max_wait=0.005) as queue:
            futures = [queue.submit(q, k=10) for q in queries]
            results = [f.result() for f in futures]

Encode once: for an embedding backend the tier that owns a request (the
sharded service here, the cluster coordinator) holds the only model and
the only embedding cache, a :class:`~repro.api.service.CachedEncoder`.
It embeds each added trajectory and each query once, and its shards
store and search *vectors*: a worker is sent a four-field
:class:`~repro.api.protocols.BackendDescription`, never weights, ``add``
deals ``(points, vectors)`` and ``knn``/``pairwise`` fan out one
``(N, d)`` array. A distance backend is only a name: it travels whole
and its shards are asked with trajectories. ``backend.kind`` decides.
All shard traffic flows through the
:class:`~repro.api.transport.Transport` abstraction — the workers never
know whether a pipe or a socket sits underneath, which is what lets
:mod:`repro.api.remote` serve the same stack over TCP.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from collections import deque, namedtuple
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..trajectory import as_points
from ..trajectory.trajectory import TrajectoryLike
from .backends import restore_backend, shard_backend_state
from .protocols import (
    EMBEDDING, Embedded, KnnService, SimilarityBackend, as_backend,
)
from .indexes import index_is_exact
from .registry import get_backend
from .service import CachedEncoder, SimilarityService, _default_index_for
from . import wire
from .transport import (
    PipeTransport,
    RemoteCallError,
    ServiceNode,
    TransportError,
    broadcast,
    broadcast_encoded,
    merge_transport_stats,
    read_reply,
)

#: one batch-normalization rule shared with the single-process service —
#: the two must never disagree on what counts as one trajectory
_as_batch = SimilarityService._as_batch

__all__ = ["ShardedSimilarityService", "QueryQueue", "QueueStats",
           "QueueFullError", "DeadlineExceededError", "ShardLostError",
           "Shard", "ShardMergeMixin", "merge_cache_counters"]


class QueueFullError(RuntimeError):
    """Raised by :meth:`QueryQueue.submit` when ``max_pending`` is reached.

    Bounded admission: under overload the queue sheds new work at the
    door (callers can retry, degrade, or surface ``429``) instead of
    growing the pending list — and the latency of everything behind it —
    without bound.
    """


class DeadlineExceededError(RuntimeError):
    """A queued query's deadline passed before the service ran it.

    The flush thread drops expired entries instead of computing results
    for callers that have already given up; the waiting future receives
    this exception (the HTTP gateway maps it to ``504``).
    """


class ShardLostError(RuntimeError):
    """Every replica of a logical shard is down: its data is unreachable.

    Raised by a *replicated* cluster (``replication >= 2``) instead of
    silently answering from the surviving shards — a replicated caller
    asked for durability, so a shrunken answer would be a lie. An
    unreplicated cluster keeps the legacy capacity-loss semantics
    (degraded shards are skipped and reported via ``stats()``). The
    HTTP gateway maps this to ``503``; the shard becomes reachable
    again through :meth:`~repro.api.cluster.ClusterCoordinator.rejoin`
    or background re-replication.
    """


def merge_cache_counters(counters: Sequence[Dict]) -> Dict:
    """Sum per-shard embedding-cache counters into one fleet-wide view."""
    total = {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
    for info in counters:
        for key in total:
            total[key] += int(info.get(key, 0))
    return total


def owner_cache_counters(encoder: Optional[CachedEncoder],
                         entries: Sequence[Dict]) -> Dict:
    """The ``"cache"`` of a sharded owner's ``stats()``: its own encoder's
    when it embeds (vector-fed shards report none), else the sum over the
    per-shard or per-worker ``entries`` that report one."""
    if encoder is not None:
        return encoder.info()._asdict()
    return merge_cache_counters(
        [entry["cache"] for entry in entries if "cache" in entry])


def freeze_shard_ids(ids: Sequence[int]) -> np.ndarray:
    """Immutable int64 snapshot of one shard's global-id list.

    Rebuilt once per ``add`` so the per-query merge hands
    :meth:`ShardMergeMixin._fetch_candidates` a ready array instead of
    copying and re-converting an O(shard-size) Python list on every
    query — at 25k ids per shard that conversion alone costs more than
    the shard's own scan.
    """
    array = np.asarray(ids, dtype=np.int64)
    array.flags.writeable = False
    return array


# ----------------------------------------------------------------------
# Shard side
# ----------------------------------------------------------------------
def shard_recipe(backend: SimilarityBackend, index: Optional[str],
                 index_kwargs: Optional[Dict], batch_size: int,
                 cache_size: int) -> Dict:
    """What an owner sends a worker to build its :class:`Shard` from:
    wire- and process-portable, weight-free for embedding backends."""
    return {
        "backend": shard_backend_state(backend),
        "index": index,
        "index_kwargs": index_kwargs,
        "service_kwargs": {"batch_size": batch_size,
                           "cache_size": cache_size},
    }


def shard_share(points: List[np.ndarray], vectors, rows=slice(None)):
    """One shard's share of an owner's ``add``, as :meth:`Shard.add` takes
    it: ``points`` are rows ``rows`` of the batch that ``vectors`` embeds
    (``None`` for a distance backend, whose shards take the points)."""
    if vectors is None:
        return points
    return points, vectors[rows]


class Shard:
    """One shard as both hosts run it (a pipe-fed process here, a
    :class:`~repro.api.cluster.ShardWorker` over TCP): a
    :class:`SimilarityService` over a slice of the database, plus the
    translation between what crosses the wire and what the service takes.

    Under a distance backend the wire carries trajectories. Built from
    a description the service is vector-fed: ``add`` takes and
    :meth:`export` returns ``(points, vectors)`` and queries arrive as
    one bare ``(N, d)`` array — plain tuples and arrays, so the codec's
    tag vocabulary does not grow.
    """

    def __init__(self, backend, index=None, index_kwargs=None,
                 service_kwargs=None):
        meta, arrays = backend
        self.service = SimilarityService(
            backend=restore_backend(meta, dict(arrays)), index=index,
            index_kwargs=index_kwargs, **(service_kwargs or {}))

    def __len__(self) -> int:
        return len(self.service)

    def _queries(self, queries):
        return Embedded(queries) if self.service.vector_fed else queries

    def add(self, payload) -> int:
        if self.service.vector_fed:
            points, vectors = payload
            payload = Embedded(vectors, points)
        self.service.add(payload)
        return len(self.service)

    def knn(self, payload):
        queries, fetch = payload
        if len(self.service) == 0:
            # This shard got no data (database smaller than the shard
            # count); contribute an all-padding pool.
            return (np.full((len(queries), fetch), np.inf),
                    np.full((len(queries), fetch), -1, dtype=np.int64))
        # No exclude/dedupe here: the owner filters after the merge,
        # where global ids are known.
        return self.service.knn(self._queries(queries), k=fetch)

    def pairwise(self, queries):
        return self.service.pairwise(self._queries(queries))

    def export(self):
        """Everything this shard holds, in the form :meth:`add` takes back
        — so refilling a replica from it costs no encode."""
        points = list(self.service.trajectories)
        if not self.service.vector_fed:
            return points
        held = self.service.vectors
        return points, (held.rows if held is not None else np.empty((0, 0)))


def _shard_worker(transport, recipe: Dict) -> None:
    """One pipe-fed shard process.

    A :class:`~repro.api.transport.ServiceNode` answers the parent's
    ``(command, payload)`` requests until the parent sends ``stop`` or
    hangs up.
    """
    import traceback

    try:
        shard = Shard(**recipe)
        transport.send(("ok", None))
    except Exception:
        transport.send(("error", traceback.format_exc()))
        return

    node = ServiceNode(transport, {
        "add": shard.add,
        "knn": shard.knn,
        "pairwise": shard.pairwise,
        "len": lambda _payload: len(shard),
        "stats": lambda _payload: shard.service.stats(),
    })
    try:
        node.serve_forever()
    finally:
        # unlinks any shared-memory segments the last reply parked in
        # /dev/shm — the parent has decoded them by the time it stops us
        transport.close()


# ----------------------------------------------------------------------
# Shared fan-out/merge logic
# ----------------------------------------------------------------------
class ShardMergeMixin:
    """Query-side fan-out and merge shared by every sharded service.

    :class:`ShardedSimilarityService` (worker *processes* over pipes) and
    :class:`~repro.api.cluster.ClusterCoordinator` (worker *machines* over
    sockets) differ only in how a command reaches the shards. The merge —
    per-shard over-fetch, distance-then-id ordering, and the frontier
    certificate that makes exact shard indexes bit-identical to one
    unsharded service — lives here once, so the two can never drift.

    Subclass contract:

    * ``self._size`` — total database size (global ids ``0.._size-1``);
    * ``self._exact_shards`` — False when shard indexes answer
      approximately (IVF), which disables the frontier certificate;
    * ``self.backend`` — for ad-hoc ``pairwise`` against an explicit
      database;
    * ``self._encoder`` — the owner's
      :class:`~repro.api.service.CachedEncoder` (the shards are asked
      with vectors, embedded here once per call, outside any RPC lock),
      or ``None`` for a distance backend;
    * ``_shard_query(command, payload)`` — deliver one command to every
      reachable shard and return ``[(global_ids, reply), ...]`` for the
      shards that answered, raising only when none can. A subclass with
      failover (the cluster coordinator) may return fewer entries than it
      has shards; the merge then covers whatever survived. A subclass
      with *replicated* shards must return at most one entry per logical
      shard — whichever replica answered — since a duplicated id pool
      would break the bit-exactness certificate.
    """

    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Optional[Sequence[TrajectoryLike]] = None,
    ) -> np.ndarray:
        """Dense ``(|Q|, |D|)`` distances; D defaults to the sharded database."""
        queries = _as_batch(queries)
        if database is not None:
            return self.backend.pairwise(queries, database)
        out = np.zeros((len(queries), self._size))
        if not queries or self._size == 0:
            return out
        filled = np.zeros(self._size, dtype=bool)
        for ids, block in self._shard_query("pairwise",
                                            self._for_shards(queries)):
            if len(ids):
                out[:, ids] = block
                filled[ids] = True
        if not filled.all():
            # Columns no shard answered for (a degraded cluster shard):
            # inf, never a misleading zero distance.
            out[:, ~filled] = np.inf
        return out

    distance_matrix = pairwise

    def knn(
        self,
        queries: Sequence[TrajectoryLike],
        k: int,
        exclude: Optional[int] = None,
        dedupe_eps: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merged ``k`` nearest global ids per query: ``(distances, indices)``.

        Same contract as :meth:`SimilarityService.knn` — ``exclude`` and
        ``dedupe_eps`` filter without shrinking the result below ``k``; rows
        pad with ``inf``/``-1`` only when the database is too small.
        """
        if self._size == 0:
            raise RuntimeError("service database is empty; call add() first")
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = [as_points(t) for t in _as_batch(queries)]
        if not queries:
            return (np.empty((0, k)), np.empty((0, k), dtype=np.int64))
        asked = self._for_shards(queries)  # embedded once, not per round
        dropped = (1 if exclude is not None else 0)
        fetch = k + dropped + (1 if dedupe_eps is not None else 0)
        while True:
            pool_d, pool_i, frontiers = self._fetch_candidates(asked, fetch)
            # Shard sizes come from the shards that actually answered, so
            # a worker lost mid-query shrinks the merge instead of
            # stalling it (a shard's over-fetch never exceeds its size).
            largest_shard = max(size for size, _, _ in frontiers)
            if largest_shard == 0:
                return (np.full((len(queries), k), np.inf),
                        np.full((len(queries), k), -1, dtype=np.int64))
            fetch = min(fetch, largest_shard)
            out_d = np.full((len(queries), k), np.inf)
            out_i = np.full((len(queries), k), -1, dtype=np.int64)
            short = False
            for row in range(len(queries)):
                row_d, row_i = pool_d[row], pool_i[row]
                keep = row_i >= 0
                if exclude is not None:
                    keep &= row_i != exclude
                if dedupe_eps is not None:
                    keep &= row_d > dedupe_eps
                row_d, row_i = row_d[keep], row_i[keep]
                # Global merge order: distance first, database id on ties —
                # exactly the single-service ranking.
                order = np.lexsort((row_i, row_d))[:k]
                if fetch < largest_shard and (
                    len(order) < k
                    or (self._exact_shards and not self._frontiers_cover(
                        frontiers, row, fetch,
                        row_d[order[-1]], row_i[order[-1]],
                    ))
                ):
                    short = True
                    break
                out_d[row, :len(order)] = row_d[order]
                out_i[row, :len(order)] = row_i[order]
            if short:
                fetch = min(largest_shard, max(fetch * 2, k + 1))
                continue
            return out_d, out_i

    def _for_shards(self, trajectories):
        """What the shards are asked with: the trajectories themselves, or
        — the owner of an embedding backend encodes — their vectors."""
        if self._encoder is None:
            return list(trajectories)
        return self._encoder.encode(trajectories)

    @staticmethod
    def _frontiers_cover(frontiers, row, fetch, kth_d, kth_i) -> bool:
        """True when no shard can still hold a better-than-kth candidate.

        A shard's unreturned candidates all rank (by distance, then id)
        after the last candidate it did return — its *frontier*. The merged
        top-k is final once every non-exhausted shard's frontier ranks at
        or after the k-th selected result; otherwise a deeper fetch into
        that shard could still improve the answer (e.g. when ``dedupe_eps``
        filtered away a shard's entire contribution).
        """
        for size, frontier_d, frontier_i in frontiers:
            if size <= fetch:
                continue  # shard fully fetched; nothing deeper exists
            w_d, w_i = frontier_d[row], frontier_i[row]
            if w_d < kth_d or (w_d == kth_d and w_i < kth_i):
                return False
        return True

    def _fetch_candidates(self, queries, fetch):
        """Per-shard top-``fetch`` pools with ids mapped to global space.

        Returns the concatenated ``(distances, global_ids)`` pools plus each
        answering shard's ``(size, frontier_d, frontier_i)`` — the frontier
        being the last (worst) candidate it returned per row — which
        :meth:`_frontiers_cover` uses to certify the merge.
        """
        replies = self._shard_query("knn", (queries, fetch))
        pool_d, pool_i, frontiers = [], [], []
        for ids, (distances, locals_) in replies:
            ids_arr = np.asarray(ids, dtype=np.int64)
            if len(ids_arr):
                globals_ = np.where(locals_ >= 0,
                                    ids_arr[np.clip(locals_, 0, None)], -1)
            else:
                globals_ = np.full_like(locals_, -1)
            pool_d.append(distances)
            pool_i.append(globals_)
            valid_counts = (globals_ >= 0).sum(axis=1)
            last = np.clip(valid_counts - 1, 0, None)
            rows = np.arange(len(globals_))
            frontier_d = np.where(valid_counts > 0, distances[rows, last],
                                  np.inf)
            frontier_i = np.where(valid_counts > 0, globals_[rows, last], -1)
            frontiers.append((len(ids_arr), frontier_d, frontier_i))
        return (np.concatenate(pool_d, axis=1),
                np.concatenate(pool_i, axis=1), frontiers)

    def __len__(self) -> int:
        return self._size


class ShardedSimilarityService(ShardMergeMixin):
    """kNN serving over a database partitioned across worker processes.

    Trajectories are assigned round-robin to ``num_workers`` shards, each a
    :class:`Shard` in its own process. ``knn`` fans the query batch out,
    over-fetches per shard, and merges the candidate pools with
    distance-then-id tie-breaking — so with exact per-shard indexes
    (``bruteforce``/``segment``/scan) the merged result is *identical* to a
    single service over the unsharded database, and with IVF shards the
    union of probed cells can only grow recall.

    An embedding backend never leaves the parent: ``batch_size`` and
    ``cache_size`` size the one encoder here and the workers are fed
    vectors. The parent also answers ``pairwise`` against ad-hoc
    databases; worker lifecycle is explicit: :meth:`close`, or use the
    service as a context manager.
    """

    def __init__(
        self,
        backend: Union[str, SimilarityBackend, object] = "trajcl",
        index: Optional[str] = None,
        *,
        num_workers: int = 2,
        backend_kwargs: Optional[Dict] = None,
        index_kwargs: Optional[Dict] = None,
        batch_size: int = 256,
        cache_size: int = 4096,
        start_method: Optional[str] = None,
        shm_threshold: Optional[int] = wire.DEFAULT_SHM_THRESHOLD,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if index is not None and not isinstance(index, str):
            raise TypeError(
                "sharded services build one index per worker; pass the "
                "index by name (or None for the backend's default)"
            )
        if isinstance(backend, str):
            backend = get_backend(backend, **(backend_kwargs or {}))
        else:
            backend = as_backend(backend)
        self.backend = backend
        self._encoder = (CachedEncoder(backend, batch_size, cache_size)
                         if backend.kind == EMBEDDING else None)
        if index is None:
            # Resolve the backend's default here so the name is reportable
            # and the workers build exactly what a single service would.
            index = _default_index_for(backend)
        self.index_name = index
        # Approximate shards (ivf/pq/int8/hnsw) answer from probed cells,
        # codes or a beam; the merge certificate below is only meaningful
        # over exact shard indexes — the registry knows which is which.
        self._exact_shards = index_is_exact(index)
        self.num_workers = int(num_workers)
        self._shard_ids: List[List[int]] = [[] for _ in range(self.num_workers)]
        # Per-shard id arrays the query path reads; refreshed on add.
        self._shard_id_arrays: List[np.ndarray] = [
            freeze_shard_ids(()) for _ in range(self.num_workers)]
        self._size = 0
        self._closed = False
        # Serializes every exchange on the worker pipes: a stats() probe
        # (e.g. a server handler thread, while a QueryQueue flush thread
        # owns the query path) must never interleave frames with an RPC
        # another thread has in flight.
        self._rpc_lock = threading.Lock()
        # Guards the id bookkeeping (_shard_ids/_size) against torn reads:
        # a stats() probe from a server handler thread must never observe
        # an add() half-committed (shard_sizes summing to something other
        # than size). Never held across an RPC.
        self._state_lock = threading.Lock()
        self._shm_threshold = shm_threshold
        # Fan-out requests are encoded once through this pool (large
        # query matrices go out-of-band via /dev/shm); per-transport
        # pools on the worker side do the same for replies.
        self._shm_pool = (wire.ShmPool(shm_threshold)
                          if shm_threshold is not None else None)

        recipe = shard_recipe(backend, index, index_kwargs, batch_size,
                              cache_size)
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        context = mp.get_context(start_method)
        self._transports = []
        self._processes = []
        for _ in range(self.num_workers):
            parent_transport, child_transport = PipeTransport.pair(
                context, shm_threshold=shm_threshold)
            process = context.Process(
                target=_shard_worker, args=(child_transport, recipe),
                daemon=True,
            )
            process.start()
            child_transport.close()
            self._transports.append(parent_transport)
            self._processes.append(process)
        for transport in self._transports:
            self._receive(transport)  # surface construction errors eagerly

    # ------------------------------------------------------------------
    # Worker RPC
    # ------------------------------------------------------------------
    @staticmethod
    def _receive(transport):
        try:
            return read_reply(transport, who="shard worker")
        except TransportError as error:
            raise RuntimeError(f"shard worker failed: {error}") from error

    def _broadcast(self, command, payloads):
        """Fan one command out over the shards through the transport layer
        (which drains every reply before raising, keeping the RPC in sync)."""
        if self._closed:
            raise RuntimeError("service is closed")
        try:
            with self._rpc_lock:
                # repro: allow[C204] the shard fan-out must own the pipes end-to-end: _rpc_lock exists precisely to keep concurrent RPCs from interleaving frames
                return broadcast(self._transports, command, payloads,
                                 who="shard worker")
        except TransportError as error:
            raise RuntimeError(f"shard worker failed: {error}") from error

    def _broadcast_shared(self, command, payload):
        """Fan *one* payload out to every shard, serializing it once.

        The encoded bytes are written to each pipe verbatim; with the
        shared-memory pool attached, large arrays in the payload go
        out-of-band and every worker attaches the same segment.  The
        pool is released only after the reply drain — by then each
        worker has provably decoded the request.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        try:
            with self._rpc_lock:
                try:
                    encoded = wire.encode((command, payload),
                                          self._shm_pool)
                    # repro: allow[C204] the shard fan-out must own the pipes end-to-end: _rpc_lock exists precisely to keep concurrent RPCs from interleaving frames
                    return broadcast_encoded(self._transports, encoded,
                                             who="shard worker")
                finally:
                    if self._shm_pool is not None:
                        self._shm_pool.release()
        except TransportError as error:
            raise RuntimeError(f"shard worker failed: {error}") from error

    def _shard_query(self, command, payload):
        """The :class:`ShardMergeMixin` hook: same payload to every shard."""
        replies = self._broadcast_shared(command, payload)
        with self._state_lock:  # ids snapshot consistent with the replies
            # The arrays are immutable (add() replaces, never extends
            # them), so handing out references is a consistent snapshot.
            shard_ids = list(self._shard_id_arrays)
        return list(zip(shard_ids, replies))

    # ------------------------------------------------------------------
    # Database
    # ------------------------------------------------------------------
    def add(self, trajectories: Sequence[TrajectoryLike]) -> "ShardedSimilarityService":
        """Round-robin the trajectories across the shards (embedded here,
        once, when the backend embeds)."""
        batch = [as_points(t) for t in _as_batch(trajectories)]
        if not batch:
            return self
        vectors = (self._encoder.encode(batch)
                   if self._encoder is not None else None)
        chunks: List[List[np.ndarray]] = [[] for _ in range(self.num_workers)]
        pending: List[List[int]] = [[] for _ in range(self.num_workers)]
        for offset, points in enumerate(batch):
            global_id = self._size + offset
            shard = global_id % self.num_workers
            chunks[shard].append(points)
            pending[shard].append(global_id)
        try:
            self._broadcast("add", [
                shard_share(points, vectors, [g - self._size for g in ids])
                for points, ids in zip(chunks, pending)])
        except Exception:
            # Some shards may have stored their chunk, others not; the
            # local-to-global mapping can no longer be trusted, so refuse
            # further use rather than misattribute neighbour ids.
            self.close()
            raise
        # Commit the id bookkeeping only once every shard stored its
        # chunk — atomically, so a concurrent stats()/shard_sizes reader
        # never observes the extend without the size bump.
        with self._state_lock:
            for shard, ids in enumerate(pending):
                if ids:
                    self._shard_ids[shard].extend(ids)
                    self._shard_id_arrays[shard] = freeze_shard_ids(
                        self._shard_ids[shard])
            self._size += len(batch)
        return self

    @property
    def shard_sizes(self) -> List[int]:
        """Number of database trajectories held by each worker."""
        with self._state_lock:
            return [len(ids) for ids in self._shard_ids]

    def stats(self) -> Dict:
        """Serving metadata on the shared key set: backend/index/size plus
        cache counters (:func:`owner_cache_counters`) and a per-shard
        breakdown."""
        shard_stats: List[Optional[Dict]] = [None] * self.num_workers
        if not self._closed:
            try:
                shard_stats = self._broadcast_shared("stats", None)
            except (RuntimeError, RemoteCallError):
                pass  # stats must stay answerable beside a dying worker
        with self._state_lock:  # one atomic snapshot of the bookkeeping
            shard_sizes = [len(ids) for ids in self._shard_ids]
            size = self._size
        shards = []
        for shard, worker in enumerate(shard_stats):
            entry: Dict = {"shard": shard, "size": shard_sizes[shard]}
            if worker is not None and "cache" in worker:
                entry["cache"] = worker["cache"]
            shards.append(entry)
        transport_stats = merge_transport_stats(
            [t.stats() for t in self._transports])
        if self._shm_pool is not None:
            # broadcast-side segments come from the service pool, not a
            # per-transport one; fold them into the same counter
            transport_stats["shm_hits"] += self._shm_pool.hits
        return {
            "type": type(self).__name__,
            "backend": self.backend.name,
            "kind": self.backend.kind,
            "index": self.index_name or "scan",
            "size": size,
            "workers": self.num_workers,
            "shard_sizes": shard_sizes,
            "shards": shards,
            "transport": transport_stats,
            "cache": owner_cache_counters(self._encoder, shards),
        }

    # ------------------------------------------------------------------
    # Lifecycle (queries live in ShardMergeMixin)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent, and robust to dead/hung workers).

        Best-effort handshake first (``stop`` with a short reply window),
        then bounded joins: a worker that is already gone — or wedged in a
        long request — can delay :meth:`close` by at most a few seconds,
        never block it indefinitely. After the join timeout the worker is
        terminated, and killed if termination itself does not stick.
        """
        if self._closed:
            return
        self._closed = True
        for transport in self._transports:
            try:
                transport.send(("stop", None))
            except TransportError:
                pass  # worker already gone; reap it below
        for transport in self._transports:
            try:
                if transport.poll(1.0):
                    transport.recv()
            except TransportError:
                pass
            transport.close()
        if self._shm_pool is not None:
            # sweep whatever a failed fan-out left behind: no segment
            # this service created may outlive it in /dev/shm
            self._shm_pool.release()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                # terminate() can be ignored mid-syscall; kill cannot.
                kill = getattr(process, "kill", process.terminate)
                kill()
                process.join(timeout=1.0)

    def __enter__(self) -> "ShardedSimilarityService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardedSimilarityService(backend={self.backend.name!r}, "
            f"index={self.index_name!r}, workers={self.num_workers}, "
            f"size={self._size})"
        )


# ----------------------------------------------------------------------
# Query batching
# ----------------------------------------------------------------------
QueueStats = namedtuple("QueueStats", ["queries", "batches", "largest_batch",
                                       "rejected", "expired"])

#: pending-entry kinds
_KNN = "knn"
_PAIRWISE = "pairwise"


class QueryQueue:
    """Coalesces concurrent single-query ``knn`` calls into batched ones.

    Callers :meth:`submit` one query each (from any thread) and get a
    :class:`~concurrent.futures.Future` resolving to ``(distances, ids)``
     1-D arrays of length ``k``. A single flush thread drains the queue:
    it collects up to ``max_batch`` pending queries, waiting at most
    ``max_wait`` seconds for more to arrive, groups them by identical
    ``(k, exclude, dedupe_eps)`` and issues one service ``knn`` per group —
    so a burst of users pays one chunked encoder pass instead of N.

    ``pairwise`` requests ride the same queue: concurrent
    :meth:`submit_pairwise` calls against the service database coalesce
    into one stacked ``service.pairwise`` call whose result rows are
    scattered back to the callers, instead of forcing matrix traffic
    around the queue (and onto the thread-oblivious service) entirely.

    Two traffic controls make the queue safe under overload:

    * ``max_pending`` bounds admission — once that many requests wait,
      :meth:`submit` raises :class:`QueueFullError` instead of queueing
      unboundedly (``None``: unbounded, the historical behaviour);
    * a per-request ``deadline`` (``time.monotonic()`` seconds) marks
      work the caller will no longer wait for — the flush thread drops
      expired entries with :class:`DeadlineExceededError` rather than
      spending encoder time on them.

    One call at a time reaches the underlying (thread-oblivious)
    service: queries only through the flush thread, :meth:`add` under the
    lock a flush holds around each of its service calls — so an add never
    overlaps a query batch, and never waits out ``max_wait`` either.
    """

    def __init__(self, service: KnnService, max_batch: int = 64,
                 max_wait: float = 0.01, max_pending: Optional[int] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None: unbounded)")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._pending: deque = deque()
        self._condition = threading.Condition()
        # Held around every call into the wrapped service (see add()).
        self._service_lock = threading.Lock()
        self._closed = False
        self._queries = 0
        self._batches = 0
        self._largest_batch = 0
        self._rejected = 0
        self._expired = 0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-query-queue")
        self._thread.start()

    def submit(self, query: TrajectoryLike, k: int,
               exclude: Optional[int] = None,
               dedupe_eps: Optional[float] = None,
               deadline: Optional[float] = None):
        """Enqueue one query; returns a Future of ``(distances, ids)``.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp; an
        entry still queued past it resolves to
        :class:`DeadlineExceededError` instead of being computed.
        """
        points = as_points(query)
        return self._enqueue((_KNN, points, k, exclude, dedupe_eps), deadline)

    def submit_pairwise(self, queries: Sequence[TrajectoryLike],
                        database: Optional[Sequence[TrajectoryLike]] = None,
                        deadline: Optional[float] = None):
        """Enqueue a pairwise block; returns a Future of the ``(|Q|, |D|)``
        matrix. Calls with ``database=None`` (the service database)
        coalesce into one stacked service call per flush."""
        batch = [as_points(t) for t in _as_batch(queries)]
        return self._enqueue((_PAIRWISE, batch, database), deadline)

    def _enqueue(self, entry, deadline):
        from concurrent.futures import Future

        future = Future()
        with self._condition:
            if self._closed:
                raise RuntimeError("queue is closed")
            if (self.max_pending is not None
                    and len(self._pending) >= self.max_pending):
                self._rejected += 1
                raise QueueFullError(
                    f"queue is full ({self.max_pending} requests pending)"
                )
            self._pending.append((future,) + entry + (deadline,))
            self._condition.notify_all()
        return future

    def add(self, trajectories: Sequence[TrajectoryLike]) -> int:
        """Append to the wrapped service's database, between two flushes;
        returns the new database size (as the remote client's ``add``)."""
        with self._service_lock:
            size = self.service.add(trajectories)
            return size if isinstance(size, int) else len(self.service)

    def __len__(self) -> int:
        return len(self.service)

    def knn(self, query: TrajectoryLike, k: int,
            exclude: Optional[int] = None,
            dedupe_eps: Optional[float] = None,
            timeout: Optional[float] = None):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(query, k, exclude, dedupe_eps).result(timeout)

    def pairwise(self, queries: Sequence[TrajectoryLike],
                 database: Optional[Sequence[TrajectoryLike]] = None,
                 timeout: Optional[float] = None):
        """Blocking convenience wrapper around :meth:`submit_pairwise`."""
        return self.submit_pairwise(queries, database).result(timeout)

    @property
    def pending(self) -> int:
        """Requests currently waiting for the flush thread (queue depth)."""
        with self._condition:
            return len(self._pending)

    @property
    def queue_stats(self) -> QueueStats:
        """``(queries, batches, largest_batch, rejected, expired)`` so far."""
        with self._condition:
            return QueueStats(self._queries, self._batches,
                              self._largest_batch, self._rejected,
                              self._expired)

    def stats(self) -> Dict:
        """Unified serving stats: the wrapped service's common keys
        (backend/index/size/cache) plus this queue's own counters under
        ``"queue"`` and the full inner report under ``"service"``."""
        inner_stats = getattr(self.service, "stats", None)
        inner = inner_stats() if callable(inner_stats) else {}
        info: Dict = {key: inner.get(key) for key in
                      ("backend", "kind", "index", "size", "cache")}
        info["type"] = type(self).__name__
        info["queue"] = dict(self.queue_stats._asdict(), pending=self.pending)
        if inner:
            info["service"] = inner
        return info

    # ------------------------------------------------------------------
    # Flush thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._pending and not self._closed:
                    self._condition.wait()
                if not self._pending and self._closed:
                    return
                if not self._closed:
                    # Batching window: give concurrent callers max_wait
                    # seconds to pile on before flushing.
                    deadline = time.monotonic() + self.max_wait
                    while len(self._pending) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or self._closed:
                            break
                        self._condition.wait(remaining)
                batch = [self._pending.popleft()
                         for _ in range(min(len(self._pending),
                                            self.max_batch))]
            self._flush(batch)

    def _flush(self, batch) -> None:
        knn_groups: "Dict[Tuple, List]" = {}
        shared_pairwise: List = []   # database=None → coalescable
        adhoc_pairwise: List = []    # explicit database → one call each
        now = time.monotonic()
        expired_now = 0
        for item in batch:
            future, kind, deadline = item[0], item[1], item[-1]
            if not future.set_running_or_notify_cancel():
                continue  # the caller cancelled while the query was pending
            if deadline is not None and now > deadline:
                # The caller's budget ran out while the entry queued:
                # don't spend service time on a vanished caller.
                expired_now += 1
                self._fail(future, DeadlineExceededError(
                    f"deadline exceeded {now - deadline:.3f}s before the "
                    "query was served"))
                continue
            if kind == _KNN:
                _, _, points, k, exclude, dedupe_eps, _ = item
                knn_groups.setdefault((k, exclude, dedupe_eps), []).append(
                    (future, points)
                )
            else:
                _, _, queries, database, _ = item
                if database is None:
                    shared_pairwise.append((future, queries))
                else:
                    adhoc_pairwise.append((future, queries, database))
        if expired_now:
            with self._condition:
                self._expired += expired_now
        for (k, exclude, dedupe_eps), members in knn_groups.items():
            futures = [future for future, _ in members]
            queries = [points for _, points in members]
            rows = self._serve(
                futures,
                lambda: self.service.knn(queries, k=k, exclude=exclude,
                                         dedupe_eps=dedupe_eps),
            )
            if rows is not None:
                distances, indices = rows
                self._resolve(futures, [(distances[i], indices[i])
                                        for i in range(len(futures))],
                              queries=len(futures))
        if shared_pairwise:
            futures = [future for future, _ in shared_pairwise]
            counts = [len(queries) for _, queries in shared_pairwise]
            stacked = [points for _, queries in shared_pairwise
                       for points in queries]
            matrix = self._serve(futures,
                                 lambda: self.service.pairwise(stacked))
            if matrix is not None:
                results, offset = [], 0
                for count in counts:
                    results.append(matrix[offset:offset + count])
                    offset += count
                self._resolve(futures, results, queries=len(stacked))
        for future, queries, database in adhoc_pairwise:
            matrix = self._serve(
                [future], lambda: self.service.pairwise(queries, database))
            if matrix is not None:
                self._resolve([future], [matrix], queries=len(queries))

    @staticmethod
    def _fail(future, error) -> None:
        from concurrent.futures import InvalidStateError

        try:
            future.set_exception(error)
        except InvalidStateError:
            pass  # must never kill the flush thread

    def _serve(self, futures, call):
        """Run one service call; on failure fail every waiting future."""
        try:
            with self._service_lock:
                return call()
        except Exception as error:  # propagate to every caller
            for future in futures:
                self._fail(future, error)
            return None

    def _resolve(self, futures, results, queries: int) -> None:
        from concurrent.futures import InvalidStateError

        with self._condition:
            self._queries += queries
            self._batches += 1
            self._largest_batch = max(self._largest_batch, queries)
        for future, result in zip(futures, results):
            try:
                future.set_result(result)
            except InvalidStateError:
                pass  # must never kill the flush thread

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new queries, drain the pending ones, stop the thread."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._condition.notify_all()
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "QueryQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.queue_stats
        return (
            f"QueryQueue(max_batch={self.max_batch}, "
            f"max_wait={self.max_wait}, served={stats.queries} in "
            f"{stats.batches} batches)"
        )
