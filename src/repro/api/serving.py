"""The concurrent serving layer: the sharding engine and a query batcher.

Two compositions turn the single-process :class:`SimilarityService` into
the scalable serving path the ROADMAP calls for:

* :class:`ShardMergeMixin` — the one sharding engine. It deals the
  database across logical shards (each a
  :class:`~repro.api.shard.Shard`: a ``SimilarityService`` with its own
  index over a slice of the database, hosted by a worker's
  :class:`~repro.api.shard._ShardHost`), routes
  ``add``/``knn``/``pairwise`` to them over
  :class:`~repro.api.transport.Transport` links, fails over, and merges
  one round of per-shard top-k (each shard applies ``dedupe_eps``) with
  one distance-then-id sort — for exact indexes the merged result is
  identical to a single service over the same database. Its docstring
  is where the failure policy and the teardown are written down. It
  has two link kinds:
  :class:`ShardedSimilarityService` here (worker *processes* on
  ``AF_UNIX`` socket pairs) and
  :class:`~repro.api.coordinator.ClusterCoordinator` (worker *machines*
  on TCP, with heartbeat, replication and recovery);
* :class:`QueryQueue` — a service in front of a service: it coalesces
  many concurrent ``knn`` (and ``pairwise``) calls into batched service
  calls (what arrived while the previous flush ran, up to ``max_batch``
  queries; an idle queue flushes at once — there is no timer), so heavy
  traffic amortizes encoder cost instead of paying per-call overhead.
  Its ``knn`` / ``pairwise`` answer like any service's; ``submit``
  returns a :class:`concurrent.futures.Future` per query.

Both compose: put a ``QueryQueue`` in front of a
``ShardedSimilarityService`` for batched, sharded serving::

    from repro.api import ShardedSimilarityService, QueryQueue

    with ShardedSimilarityService(backend=backend, num_workers=4) as shards:
        shards.add(database)
        with QueryQueue(shards, max_batch=64) as queue:
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
Both link kinds are one :class:`~repro.api.transport.SocketTransport`
framing; neither the engine nor a worker knows which socket family sits
under a link.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque, namedtuple
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..index.rows import RowStore
from ..trajectory.trajectory import (
    Ragged, TrajectoryLike, as_points, as_points_batch,
)
from .backends import shard_backend_state
from .protocols import (EMBEDDING, KnnService, SimilarityBackend,
                        as_backend, flat_pq_options)
from .registry import get_backend
from .service import CachedEncoder, _default_index_for
from .shard import _shard_worker, merge_cache_counters
from .transport import (
    OK,
    RemoteCallError,
    SocketTransport,
    TransportError,
    close_quietly,
    merge_transport_stats,
    request,
)

__all__ = ["ShardedSimilarityService", "QueryQueue", "QueueStats",
           "LatencyHistogram",
           "QueueFullError", "DeadlineExceededError", "ShardLostError",
           "ShardMergeMixin"]


class QueueFullError(RuntimeError):
    """Raised by a :class:`QueryQueue` asked to take a request past
    ``max_pending``.

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
    unreplicated service (a cluster at R=1, every process-sharded one)
    loses capacity instead: degraded shards are skipped and reported via
    ``stats()``. The
    HTTP gateway maps this to ``503``; the shard becomes reachable
    again through :meth:`~repro.api.coordinator.ClusterCoordinator.rejoin`
    or background re-replication.
    """


def owner_cache_counters(encoder: Optional[CachedEncoder],
                         entries: Sequence[Dict]) -> Dict:
    """The ``"cache"`` of a sharded owner's ``stats()``: its own encoder's
    when it embeds (vector-fed shards report none), else the sum over the
    per-worker ``entries`` that report one."""
    if encoder is not None:
        return encoder.info()._asdict()
    return merge_cache_counters(
        [entry["cache"] for entry in entries if "cache" in entry])


# ----------------------------------------------------------------------
# What an owner sends its shards (the worker side is repro.api.shard)
# ----------------------------------------------------------------------
def shard_recipe(backend: SimilarityBackend, index: Optional[str],
                 index_kwargs: Optional[Dict], batch_size: int,
                 cache_size: int) -> Dict:
    """What an owner sends a worker to build its
    :class:`~repro.api.shard.Shard` from: wire- and process-portable,
    weight-free for embedding backends."""
    return {
        "backend": shard_backend_state(backend),
        "index": index,
        "index_kwargs": index_kwargs,
        "service_kwargs": {"batch_size": batch_size,
                           "cache_size": cache_size},
    }


def deal(sizes: Dict[int, int], count: int) -> np.ndarray:
    """The shard each of ``count`` new trajectories goes to, in order.

    The rule is per item — each to the currently-smallest of ``sizes``'
    shards, ties to the lower shard id — and so is a merge of every
    shard's free slots ``(size, shard)``, ``(size + 1, shard)``, ...:
    the batch takes the ``count`` smallest, in one sort.
    """
    shards = np.array(sorted(sizes), dtype=np.int64)
    start = np.array([sizes[shard] for shard in shards.tolist()],
                     dtype=np.int64)
    levels = (start[:, None] + np.arange(count)).ravel()
    owners = np.repeat(shards, count)
    return owners[np.lexsort((owners, levels))[:count]]


def shard_share(batch: Ragged, vectors, rows: np.ndarray):
    """One shard's share of an owner's ``add``, as
    :meth:`~repro.api.shard.Shard.add` takes it: rows ``rows`` of
    ``batch`` (:meth:`Ragged.take <repro.trajectory.Ragged.take>`) with
    their rows of the ``vectors`` that embed ``batch`` (``None`` for a
    distance backend, whose shards take the points)."""
    points = batch.take(rows)
    if vectors is None:
        return points
    return points, vectors[rows]


# ----------------------------------------------------------------------
# Owner side: the one fan-out engine
# ----------------------------------------------------------------------
class _WorkerLink:
    """Owner-side state for one shard worker: a TCP worker's ``address``
    and ``heartbeat`` channel, or a local worker's ``process``."""

    __slots__ = ("worker", "worker_id", "address", "transport", "heartbeat",
                 "process", "alive", "reason", "shards")

    def __init__(self, worker: int, address: Optional[Tuple[str, int]],
                 shards: Sequence[int]):
        self.worker = worker
        self.worker_id = f"worker-{worker}"
        self.address = address
        self.transport = None
        self.heartbeat = None
        self.process = None
        self.alive = False
        self.reason: Optional[str] = None
        #: logical shards this worker hosts (mirrors the owner's placement)
        self.shards: List[int] = list(shards)

    @property
    def label(self) -> str:
        """How ``stats()`` and errors name the worker."""
        if self.address is None:
            return self.worker_id
        return f"{self.address[0]}:{self.address[1]}"


class ShardMergeMixin:
    """The sharding engine under every sharded service: route, fail over,
    merge.

    :class:`ShardedSimilarityService` (worker *processes* on ``AF_UNIX``
    socket pairs) and :class:`~repro.api.coordinator.ClusterCoordinator`
    (worker *machines* on TCP) differ only in how a command reaches the
    shards: each puts one connected
    :class:`~repro.api.transport.Transport` per worker in
    ``link.transport`` (a TCP link also has a ``heartbeat`` channel, a
    local one its worker ``process``) and calls :meth:`_join`.
    Everything after that is here, once — ``len(workers)`` logical
    shards placed on ``replication`` workers each, the id bookkeeping,
    :meth:`_shard_query` (one healthy replica per shard, re-routed
    mid-request), the write-all :meth:`add`, :meth:`stats`, the bounded
    :meth:`close`, and the merge: one round in which every shard answers
    its own top ``k`` (one more under ``exclude``) past ``dedupe_eps``,
    and one distance-then-id sort of the pooled replies — for exact
    shard indexes bit-identical to one unsharded service.

    Every exchange on the request transports, and every commit of the id
    bookkeeping, happens under ``_rpc_lock``: a ``stats()`` probe from a
    server's handler thread can never interleave frames with a query
    another thread has in flight, nor see ``shard_sizes`` sum to anything
    but ``size``. The owner's encoder runs outside the lock.

    One failure policy for both link kinds. A worker whose channel fails
    is degraded in place (both channels closed, the reason kept for
    ``stats()``) and not spoken to again. With ``replication >= 2`` its
    shards are re-asked on the surviving replicas and a shard with none
    left raises :class:`ShardLostError`; with ``replication == 1`` the
    shard is listed in ``stats()["degraded"]``, queries answer from the
    survivors, ``add`` requeues onto them, and only every worker dead
    raises. A worker that *answers* with an error is a different matter:
    the error propagates, and nobody is degraded unless another replica
    serves what it could not.

    One teardown for both link kinds, :meth:`close`. Each alive worker
    is told ``leave`` (it drops this owner's shards, so a later owner
    can ``join`` fresh) and ``stop`` — or, with ``shutdown_workers``, to
    exit — and both channels of every link are closed; a worker whose
    farewell fails is degraded. Then every worker that may still run
    gets the bounded stop of its kind: a local process is joined, then
    terminated, then killed; under ``shutdown_workers`` a degraded TCP
    worker is told ``shutdown`` on a fresh connection. A worker that is
    gone, or wedged in a long request, costs a short wait, never a hang.
    """

    def __init__(
        self,
        workers: Sequence[Optional[Tuple[str, int]]],
        backend: Union[str, SimilarityBackend, object],
        index: Optional[str],
        *,
        replication: int = 1,
        backend_kwargs: Optional[Dict] = None,
        index_kwargs: Optional[Dict] = None,
        batch_size: int = 256,
        cache_size: int = 4096,
    ):
        """``workers`` holds one entry per link: a TCP worker's ``(host,
        port)``, ``None`` for a local worker. No link is connected yet."""
        replication = int(replication)
        if not 1 <= replication <= len(workers):
            raise ValueError(
                f"replication must be between 1 and the worker count "
                f"({len(workers)}), got {replication}")
        if index is not None and not isinstance(index, str):
            raise TypeError(
                "shard workers build one index each; pass the index by "
                "name (or None for the backend's default)"
            )
        if isinstance(backend, str):
            backend = get_backend(backend, **(backend_kwargs or {}))
        else:
            backend = as_backend(backend)
        self.backend = backend
        # The only model and embedding cache: the shards are asked with
        # vectors, embedded here once per call, outside the RPC lock.
        self._encoder = (CachedEncoder(backend, batch_size, cache_size)
                         if backend.kind == EMBEDDING else None)
        if index is None:
            # Resolve the backend's default here so the name is reportable
            # and the workers build exactly what a single service would.
            index = _default_index_for(backend)
        if index == "pq" and index_kwargs:  # before any worker builds one
            index_kwargs = flat_pq_options(index_kwargs)
        self.index_name = index
        self._index_kwargs = index_kwargs
        self._batch_size = int(batch_size)
        self._cache_size = int(cache_size)
        self.replication = replication
        self._route_counter = 0
        self._num_shards = len(workers)
        # shard s lives on workers placement[s] (R distinct, ring layout);
        # re-replication and rejoin keep this and link.shards in step.
        self._placement: List[List[int]] = [
            [(s + j) % len(workers) for j in range(replication)]
            for s in range(self._num_shards)]
        # Each shard's global ids, in its local-id order. The query path
        # reads a store's ``rows`` view: appends land past it or in a new
        # buffer, so a view taken under the lock never changes.
        self._shard_ids = [RowStore(np.empty(0, dtype=np.int64))
                           for _ in range(self._num_shards)]
        self._size = 0
        self._closed = False
        self._rpc_lock = threading.Lock()
        self._links = [
            _WorkerLink(worker, address,
                        [s for s in range(self._num_shards)
                         if worker in self._placement[s]])
            for worker, address in enumerate(workers)]

    # ------------------------------------------------------------------
    # Links / placement
    # ------------------------------------------------------------------
    def _join_payload(self, link: _WorkerLink) -> Dict:
        return dict(
            shard_recipe(self.backend, self.index_name, self._index_kwargs,
                         self._batch_size, self._cache_size),
            shards=list(link.shards), worker_id=link.worker_id)

    def _join(self, link: _WorkerLink) -> None:
        """Make the worker at the far end of ``link.transport`` a serving
        one: ship it the recipe and its shard assignment."""
        request(link.transport, "join", self._join_payload(link),
                who=f"shard worker {link.label}")
        link.alive = True

    @property
    def num_workers(self) -> int:
        return len(self._links)

    @property
    def shard_sizes(self) -> List[int]:
        """Number of database trajectories in each logical shard."""
        with self._rpc_lock:  # atomic with the add() commit
            return [len(ids) for ids in self._shard_ids]

    def _replicas(self, shard: int) -> List[_WorkerLink]:
        """Alive links hosting ``shard``, in placement order."""
        return [self._links[w] for w in self._placement[shard]
                if self._links[w].alive]

    def _pick_replica(self, shard: int,
                      exclude: Sequence[int] = ()) -> Optional[_WorkerLink]:
        candidates = [link for link in self._replicas(shard)
                      if link.worker not in exclude]
        if not candidates:
            return None
        # Rotate reads across replicas so load spreads; deterministic in
        # the call sequence, and irrelevant to results (replicas hold
        # byte-identical shard state).
        return candidates[self._route_counter % len(candidates)]

    def _degrade(self, link: _WorkerLink, reason: str) -> None:
        """Mark a worker dead and sever its channels (idempotent).

        Closing the request transport also unblocks any caller currently
        waiting on that worker — its ``recv`` raises instead of hanging,
        and the query re-routes to the surviving replicas.
        """
        if not link.alive:
            return
        link.alive = False
        link.reason = str(reason)
        close_quietly(link.transport)
        close_quietly(link.heartbeat)

    # ------------------------------------------------------------------
    # Query routing
    # ------------------------------------------------------------------
    def _shard_query(self, command, payload):
        """Deliver one command to every reachable shard, with failover.

        Routes each logical shard to one healthy replica, groups shards
        by worker, and re-routes mid-request: a worker whose channel
        fails between frames is degraded in place and its shards are
        asked again on the surviving replicas instead of aborting the
        query. A worker that *answers* but reports an error is degraded
        only when another replica can serve its shards (differential
        diagnosis: if the alternative also fails, the request itself was
        bad and the error propagates without degrading anyone). Returns
        one ``(global_ids, reply)`` entry per answering shard — never two
        for one shard, or the merge would pool its ids twice — and raises
        only when none answered.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        with self._rpc_lock:
            answered = self._routed_query(command, payload)
            if not answered:
                raise RuntimeError(
                    "all shard workers failed; no shards left to answer")
            return [(self._shard_ids[shard].rows, answered[shard])
                    for shard in sorted(answered)]

    def _routed_query(self, command, payload) -> Dict[int, object]:
        """Route/fail-over loop; caller holds ``_rpc_lock``."""
        self._route_counter += 1
        remaining = set(range(self._num_shards))
        tried: Dict[int, Set[int]] = {s: set() for s in remaining}
        answered: Dict[int, object] = {}
        while remaining:
            plan: Dict[int, List[int]] = {}
            for shard in sorted(remaining):
                link = self._pick_replica(shard, tried[shard])
                if link is None:
                    if self.replication > 1:
                        raise ShardLostError(
                            f"shard {shard} has no healthy replica "
                            f"(replication={self.replication}); rejoin a "
                            "worker or wait for re-replication")
                    # Unreplicated: a lost shard costs capacity, the
                    # survivors still answer.
                    remaining.discard(shard)
                    continue
                plan.setdefault(link.worker, []).append(shard)
                tried[shard].add(link.worker)
            if not plan:
                break
            replies, refused = self._exchange(
                {worker: (command, (shards, payload))
                 for worker, shards in plan.items()})
            if refused is not None:
                raise refused
            errored = []
            for link, status, result in replies:
                shards = plan[link.worker]
                if status != OK:
                    errored.append((link, shards, str(result)))
                    continue
                for shard in shards:
                    answered[shard] = result[shard]
                    remaining.discard(shard)
            for link, shards, message in errored:
                if any(self._pick_replica(shard, tried[shard]) is not None
                       for shard in shards):
                    # Another replica can answer: the worker demonstrably
                    # fails commands its peers serve (ping-alive but
                    # broken) — degrade it and let the loop re-route.
                    self._degrade(
                        link, f"{command} failed on worker: {message}")
                else:
                    raise RemoteCallError(
                        f"shard worker {link.label} failed:\n{message}")
        return answered

    def _exchange(self, messages: Dict[int, object]):
        """Send each worker its message, in worker order, then read every
        reply owed; returns ``(link, status, result)`` replies and the
        error, if any, that refused a send (a codec failure, say) and
        ended the round. A channel failure degrades its link. Reading
        every owed reply keeps a stale one from answering the next call.
        Caller holds ``_rpc_lock``."""
        sent, refused = [], None
        for worker in sorted(messages):
            link = self._links[worker]
            try:
                link.transport.send(messages[worker])
            except TransportError as error:
                self._degrade(link, f"send failed: {error}")
                continue
            except Exception as error:
                refused = error
                break
            sent.append(link)
        replies = []
        for link in sent:
            try:
                status, result = link.transport.recv()
            except TransportError as error:
                self._degrade(link, f"recv failed: {error}")
                continue
            replies.append((link, status, result))
        return replies, refused

    # ------------------------------------------------------------------
    # Database
    # ------------------------------------------------------------------
    def add(self, trajectories: Sequence[TrajectoryLike]):
        """Deal the trajectories across shards; write-all to the replicas.

        Each trajectory goes to the currently-smallest eligible shard
        (ties broken by shard id — identical to round-robin while shards
        are balanced, and self-healing when they are not). Every alive
        replica of a shard receives the write; the chunk commits on the
        first ack, and a chunk *no* replica acked is requeued onto the
        surviving shards — global ids are independent of shard
        placement, so the reassignment is invisible to queries. A dead
        worker can never answer again without a state-rebuilding rejoin,
        so a write it applied without acking can never surface twice.

        An embedding backend embeds the batch here, once, outside the RPC
        lock: replication R costs one encode, not R.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        batch = as_points_batch(trajectories)
        if not batch:
            return self
        vectors = (self._encoder.encode(batch)
                   if self._encoder is not None else None)
        try:
            with self._rpc_lock:
                self._add_locked(batch, vectors)
        except RemoteCallError:
            # A worker executed its add and failed, or holds a write a
            # refused send left uncommitted: the shards disagree about the
            # database. Refuse further use, not misattribute neighbour ids.
            self.close()
            raise
        return self

    def _eligible_shards(self) -> List[int]:
        shards = [s for s in range(self._num_shards) if self._replicas(s)]
        if not shards:
            degraded = sum(1 for link in self._links if not link.alive)
            raise RuntimeError(
                f"no alive shard workers ({degraded} degraded)")
        return shards

    def _deal_into(self, chunks: Dict[int, np.ndarray],
                   rows: np.ndarray) -> None:
        """Deal batch ``rows`` onto the eligible shards by :func:`deal`,
        counting what ``chunks`` already holds; a shard's rows keep their
        order."""
        sizes = {shard: len(self._shard_ids[shard])
                 + len(chunks.get(shard, ()))
                 for shard in self._eligible_shards()}
        owners = deal(sizes, len(rows))
        for shard in sorted(set(owners.tolist())):
            chunks[shard] = np.concatenate(
                (chunks.get(shard, np.empty(0, np.int64)),
                 rows[owners == shard]))

    def _add_locked(self, batch: Ragged, vectors
                    ) -> List[Tuple[int, np.ndarray, object]]:
        """Deal, write and commit ``batch``; returns the committed
        ``(shard, global_ids, share)`` chunks. Caller holds ``_rpc_lock``."""
        committed = []
        base = self._size  # global id of the batch's (and vectors') row 0
        chunks: Dict[int, np.ndarray] = {}  # shard -> its rows of batch
        self._deal_into(chunks, np.arange(len(batch)))
        while chunks:
            # (Re)plan against the currently-alive replicas.
            orphans = [shard for shard in sorted(chunks)
                       if not self._replicas(shard)]
            if orphans:
                # Every replica of these shards died before any ack:
                # requeue the chunks onto shards that can still commit.
                self._deal_into(chunks, np.concatenate(
                    [chunks.pop(shard) for shard in orphans]))
                continue
            shares = {shard: shard_share(batch, vectors, rows)
                      for shard, rows in chunks.items()}
            plan: Dict[int, Dict[int, object]] = {}
            for shard in sorted(chunks):
                for link in self._replicas(shard):
                    plan.setdefault(link.worker, {})[shard] = shares[shard]
            replies, refused = self._exchange(
                {worker: ("add", owed) for worker, owed in plan.items()})
            if refused is not None and not (replies or committed):
                raise refused  # no live worker holds any of the batch
            if refused is not None:
                raise RemoteCallError(
                    f"shard add refused mid-fan-out: {refused!r}") from refused
            acks: Dict[int, int] = {shard: 0 for shard in chunks}
            errored = []
            for link, status, result in replies:
                if status != OK:
                    errored.append((link, str(result)))
                    continue
                for shard in plan[link.worker]:
                    acks[shard] += 1
            for link, message in errored:
                if self.replication == 1:
                    raise RemoteCallError(
                        f"shard worker {link.label} add failed:\n{message}")
                # The replica *executed* add and failed: its copy may be
                # torn. Degrade it — rejoin rebuilds worker state from
                # scratch, so the tear cannot survive — and let the acked
                # replicas carry the shard.
                self._degrade(link, f"add failed on worker: {message}")
            for shard in sorted(chunks):
                if acks.get(shard, 0) < 1:
                    continue  # no replica acked; the loop requeues it
                ids = chunks.pop(shard) + base
                # Commit the ids AND the size together, still under
                # _rpc_lock: a concurrent stats() snapshot must always
                # see sum(shard_sizes) == size, even between requeue
                # rounds of a partially failed add. add() wraps this whole
                # method in _rpc_lock; the commit is not reachable any other
                # way.
                self._shard_ids[shard].append(ids)
                self._size += len(ids)
                committed.append((shard, ids, shares[shard]))
        return committed

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Serving health on the shared key set, with per-shard replicas.

        ``"degraded"`` lists shards with *zero* healthy replicas (their
        data is unreachable), ``"underreplicated"`` those still served
        but below the replication factor; each ``"shards"`` entry carries
        its replica set (worker, address, alive, failure reason). Worker-
        level detail (hosted shards) lives under ``"worker_links"``;
        transport counters aggregate over the alive workers, and so does
        ``"cache"`` — unless the owner embeds, in which case it is its own
        encoder's.
        """
        per_worker: Dict[int, Dict] = {}
        if not self._closed:
            with self._rpc_lock:
                for link in list(self._links):
                    if not link.alive:
                        continue
                    try:
                        # per-worker stats RPC must hold _rpc_lock to keep
                        # frames paired; bounded by the worker answering or
                        # _degrade
                        per_worker[link.worker] = request(
                            link.transport, "stats",
                            who=f"shard worker {link.label}")
                    except TransportError as error:
                        self._degrade(link, f"stats failed: {error}")
                    except RemoteCallError:
                        pass
        with self._rpc_lock:  # one atomic snapshot of the bookkeeping
            shard_sizes = [len(ids) for ids in self._shard_ids]
            size = self._size
            placement = [list(hosts) for hosts in self._placement]
            transport_stats = merge_transport_stats(
                [link.transport.stats() for link in self._links
                 if link.alive and link.transport is not None])
        shards = []
        for shard in range(self._num_shards):
            replicas = []
            for worker in placement[shard]:
                link = self._links[worker]
                replica: Dict = {"worker": worker,
                                 "worker_id": link.worker_id,
                                 "address": link.label,
                                 "alive": link.alive}
                if not link.alive and link.reason:
                    replica["reason"] = link.reason
                replicas.append(replica)
            healthy = sum(1 for replica in replicas if replica["alive"])
            entry: Dict = {
                "shard": shard,
                "size": shard_sizes[shard],
                "alive": healthy > 0,
                "healthy_replicas": healthy,
                "replicas": replicas,
            }
            if replicas:
                entry["address"] = replicas[0]["address"]
            if healthy == 0:
                reasons = [replica.get("reason") for replica in replicas
                           if replica.get("reason")]
                if reasons:
                    entry["reason"] = "; ".join(reasons)
            shards.append(entry)
        worker_links = []
        for link in self._links:
            entry = {
                "worker": link.worker,
                "worker_id": link.worker_id,
                "address": link.label,
                "alive": link.alive,
                "shards": sorted(link.shards),
            }
            if not link.alive:
                entry["reason"] = link.reason
            info = per_worker.get(link.worker)
            if info is not None and "cache" in info:
                entry["cache"] = info["cache"]
            worker_links.append(entry)
        return {
            "type": type(self).__name__,
            "backend": self.backend.name,
            "kind": self.backend.kind,
            "index": self.index_name or "scan",
            "size": size,
            "workers": len(self._links),
            "alive_workers": sum(1 for link in self._links if link.alive),
            "replication": self.replication,
            "degraded": [entry["shard"] for entry in shards
                         if entry["healthy_replicas"] == 0],
            "underreplicated": [
                entry["shard"] for entry in shards
                if 0 < entry["healthy_replicas"] < self.replication],
            "shard_sizes": shard_sizes,
            "shards": shards,
            "worker_links": worker_links,
            "transport": transport_stats,
            "cache": owner_cache_counters(self._encoder, worker_links),
        }

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Optional[Sequence[TrajectoryLike]] = None,
    ) -> np.ndarray:
        """Dense ``(|Q|, |D|)`` distances; D defaults to the sharded database."""
        queries = as_points_batch(queries)
        if database is not None:
            return self.backend.pairwise(queries, database)
        if not queries or self._size == 0:
            return np.zeros((len(queries), self._size))
        blocks = [(ids, block) for ids, block in self._shard_query(
            "pairwise", self._for_shards(queries)) if len(ids)]
        # In the dtype the shards computed in, like the single service; a
        # column no shard answered for (a degraded shard) stays inf,
        # never a misleading zero distance.
        out = np.full((len(queries), self._size), np.inf,
                      dtype=blocks[0][1].dtype if blocks else None)
        for ids, block in blocks:
            out[:, ids] = block
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
        queries = as_points_batch(queries)
        if not queries:
            return (np.empty((0, k)), np.empty((0, k), dtype=np.int64))
        # One round. Each shard drops ``d <= dedupe_eps`` itself and sends
        # its top ``fetch`` by (distance, local id); local ids ascend with
        # global ids, so a shard's order is the global one. A row of the
        # answer ranks within its shard's top k + 1 past eps (only the
        # excluded id can rank above it without being in the answer).
        fetch = k + (1 if exclude is not None else 0)
        pool_d, pool_i = [], []
        for ids, (distances, locals_) in self._shard_query(
                "knn", (self._for_shards(queries), fetch, dedupe_eps)):
            pool_d.append(distances)
            # an empty shard answers all padding, which maps to itself
            pool_i.append(np.where(locals_ >= 0,
                                   ids[np.maximum(locals_, 0)], -1)
                          if len(ids) else locals_)
        pool_d = np.concatenate(pool_d, axis=1)
        pool_i = np.concatenate(pool_i, axis=1)
        out_d = np.full((len(queries), k), np.inf)
        out_i = np.full((len(queries), k), -1, dtype=np.int64)
        for row in range(len(queries)):
            row_d, row_i = pool_d[row], pool_i[row]
            keep = row_i >= 0
            if exclude is not None:
                keep &= row_i != exclude
            row_d, row_i = row_d[keep], row_i[keep]
            # distance first, database id on ties: the single service's
            order = np.lexsort((row_i, row_d))[:k]
            out_d[row, :len(order)] = row_d[order]
            out_i[row, :len(order)] = row_i[order]
        return out_d, out_i

    def _for_shards(self, trajectories):
        """What the shards are asked with: the trajectories themselves, or
        — the owner of an embedding backend encodes — their vectors."""
        return (trajectories if self._encoder is None
                else self._encoder.encode(trajectories))

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, shutdown_workers: bool = False) -> None:
        """Say goodbye to the workers, drop the links and stop what may
        still run (idempotent; the teardown described above)."""
        if self._closed:
            return
        self._closed = True
        farewell = ("shutdown",) if shutdown_workers else ("leave", "stop")
        # Bounded wait for any in-flight RPC; a wedged exchange must delay
        # close, never block it.
        acquired = self._rpc_lock.acquire(timeout=5.0)
        try:
            for link in self._links:
                if link.alive and not self._farewell(link.transport,
                                                     farewell):
                    self._degrade(link, "farewell failed")
                close_quietly(link.transport)
                close_quietly(link.heartbeat)
        finally:
            if acquired:
                self._rpc_lock.release()
        for link in self._links:
            if link.process is not None:
                link.process.join(timeout=2.0)
                if link.process.is_alive():
                    link.process.terminate()
                    link.process.join(timeout=2.0)
                if link.process.is_alive():
                    # terminate() can be ignored mid-syscall; kill cannot
                    link.process.kill()
                    link.process.join(timeout=1.0)
            elif shutdown_workers and link.address and not link.alive:
                # Degraded (its farewell failed included) but maybe still
                # running: only its link died.
                self.shutdown_worker(link.address)

    @classmethod
    def shutdown_worker(cls, address: Tuple[str, int]) -> bool:
        """Tell the TCP worker at ``address`` to exit, on a fresh,
        short-lived connection: whether the request went through. A
        worker that is gone costs one refused connection, never a raise."""
        try:
            transport = SocketTransport.connect(*address, timeout=1.0)
        except (TransportError, OSError):
            return False
        try:
            return cls._farewell(transport, ("shutdown",))
        finally:
            transport.close()

    @staticmethod
    def _farewell(transport, commands: Sequence[str]) -> bool:
        """Best-effort goodbye on one channel: whether it went through.
        A failure is reported, never raised (a worker that dies
        mid-farewell must not break the cascade for the links behind
        it)."""
        for command in commands:
            try:
                transport.send((command, None))
                if transport.poll(1.0):
                    transport.recv()
            except Exception:
                return False
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        alive = sum(1 for link in self._links if link.alive)
        return (
            f"{type(self).__name__}(backend={self.backend.name!r}, "
            f"index={self.index_name!r}, replication={self.replication}, "
            f"workers={alive}/{len(self._links)} alive, size={self._size})"
        )


class ShardedSimilarityService(ShardMergeMixin):
    """kNN serving over a database partitioned across worker processes.

    The :class:`ShardMergeMixin` engine over ``num_workers`` local
    processes, one logical shard each, each linked by an ``AF_UNIX``
    :meth:`SocketTransport.pair` carrying the same frames as a TCP link;
    there is no replication and no heartbeat — a dead worker is noticed
    by the next call that speaks to it, and a worker whose owner dies
    reads EOF and exits. Failures and :meth:`close` follow the engine's
    one policy (:class:`ShardMergeMixin`). With exact per-shard indexes
    (``bruteforce``/``segment``/scan) the merged result is *identical* to
    a single service over the unsharded database, and with IVF shards the
    union of probed cells can only grow recall.

    An embedding backend never leaves the parent: ``batch_size`` and
    ``cache_size`` size the one encoder here and the workers are fed
    vectors. The parent also answers ``pairwise`` against ad-hoc
    databases.
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
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        super().__init__(
            [None] * int(num_workers), backend, index,
            backend_kwargs=backend_kwargs, index_kwargs=index_kwargs,
            batch_size=batch_size, cache_size=cache_size)
        # Loaded by the one class that starts processes: a worker process,
        # and a TCP worker or coordinator, never pays for it.
        import multiprocessing as mp

        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        context = mp.get_context(start_method)
        try:
            # every process is started before the first join is awaited,
            # so the workers boot side by side
            for link in self._links:
                link.transport, child_transport = SocketTransport.pair()
                # a forked worker holds copies of every owner end open so
                # far; a spawned one inherits only what it is handed
                inherited = ([other.transport for other in self._links
                              if other.transport is not None]
                             if start_method == "fork" else [])
                process = context.Process(
                    target=_shard_worker,
                    args=(child_transport, inherited), daemon=True,
                )
                process.start()
                link.process = process
                child_transport.close_fd()  # the worker's now, not ours
            for link in self._links:
                self._join(link)  # surfaces construction errors eagerly
        except Exception:
            self.close()
            raise


# ----------------------------------------------------------------------
# Query batching
# ----------------------------------------------------------------------
#: ``wait_ms_sum`` over ``wait_count`` entries: the milliseconds each entry
#: the flush thread took waited, from admission to that flush's start
QueueStats = namedtuple("QueueStats", ["queries", "batches", "largest_batch",
                                       "rejected", "expired", "wait_ms_sum",
                                       "wait_count"])

#: histogram bucket upper bounds, milliseconds (+Inf bucket is implicit).
LATENCY_BUCKETS_MS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                      500.0, 1000.0, 2500.0, 5000.0)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    Prometheus-shaped (cumulative ``le`` buckets plus sum/count) and
    bounded-memory: percentiles come from linear interpolation inside the
    winning bucket, not from storing samples.
    """

    def __init__(self, bounds=LATENCY_BUCKETS_MS):
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # trailing +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value_ms: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value_ms <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.count += 1
        self.sum += value_ms

    def percentile(self, q: float) -> Optional[float]:
        """Interpolated ``q``-th percentile (``q`` in [0, 1]); None if empty."""
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    fraction = (target - (cumulative - bucket_count)) / bucket_count
                    return lower + (bound - lower) * fraction
            lower = bound
        # Everything beyond the last finite bound: the best bounded answer.
        return self.bounds[-1]


#: pending-entry kinds
_KNN = "knn"
_PAIRWISE = "pairwise"
_ADD = "add"


class QueryQueue:
    """A :class:`~repro.api.protocols.KnnService` that coalesces concurrent
    callers into batched calls on the service it wraps.

    :meth:`knn` and :meth:`pairwise` take a batch and answer ``(N, k)`` /
    ``(|Q|, |D|)`` like every service; :meth:`submit` enqueues one query
    (from any thread) as a :class:`~concurrent.futures.Future` of
    ``(distances, ids)`` 1-D rows of length ``k``, and :meth:`knn` admits
    its whole batch as such entries at once. A single flush thread drains
    the queue with no timer in it: an entry that finds the thread idle is
    flushed at once, and the entries that arrive *while a flush runs*
    leave together on the next one, at most ``max_batch`` at a time.
    Batching comes from load, not from a clock — a lone caller pays no
    wait, and a burst of users still pays one chunked encoder pass
    instead of N. A flush groups its entries by identical ``(k, exclude,
    dedupe_eps)`` and issues one service ``knn`` per group.

    ``max_wait`` used to be a batching window slept out after every
    first arrival; it is still accepted and validated (callers pass it)
    but starts no timer.

    ``pairwise`` requests ride the same queue: concurrent
    :meth:`submit_pairwise` calls against the service database coalesce
    into one stacked ``service.pairwise`` call whose result rows are
    scattered back to the callers.

    :meth:`add` waits in the same line and leaves on a flush of its own:
    the queries queued before it do not see it, those after it do.

    Two traffic controls make the queue safe under overload:

    * ``max_pending`` bounds admission — a call that would leave more
      requests waiting raises :class:`QueueFullError` (a :meth:`knn`
      batch is admitted whole or not at all);
    * a per-request ``deadline`` (``time.monotonic()`` seconds) marks
      work the caller will no longer wait for — the flush thread drops
      expired entries with :class:`DeadlineExceededError` rather than
      spending encoder time on them, and a blocking call stops waiting
      when it passes (an add the flush thread has started is waited out).

    Only the flush thread calls the wrapped service's ``add``, ``knn``
    and ``pairwise``, so a thread-oblivious service is safe behind a
    queue and an add never overlaps a query batch.

    The queue reports its own wait: each entry is stamped when admitted,
    and the flush that takes it observes ``flush start - admission`` into
    :meth:`wait_histogram` (sum and count in :attr:`queue_stats`).
    """

    def __init__(self, service: KnnService, max_batch: int = 64,
                 max_wait: float = 0.01, max_pending: int = 1024):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self._pending: deque = deque()
        self._condition = threading.Condition()
        self._closed = False
        self._queries = 0
        self._batches = 0
        self._largest_batch = 0
        self._rejected = 0
        self._expired = 0
        self._waits = LatencyHistogram()
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
        return self._enqueue(
            [(_KNN, as_points(query), k, exclude, dedupe_eps)], deadline)[0]

    def submit_pairwise(self, queries: Sequence[TrajectoryLike],
                        database: Optional[Sequence[TrajectoryLike]] = None,
                        deadline: Optional[float] = None):
        """Enqueue a pairwise block; returns a Future of the ``(|Q|, |D|)``
        matrix. Calls with ``database=None`` (the service database)
        coalesce into one stacked service call per flush."""
        batch = as_points_batch(queries)
        return self._enqueue([(_PAIRWISE, batch, database)], deadline)[0]

    def _enqueue(self, entries, deadline):
        """Admit all of ``entries`` or none; returns one Future each."""
        from concurrent.futures import Future

        if len(entries) > self.max_pending:
            raise ValueError(f"{len(entries)} > max_pending={self.max_pending}")
        futures = [Future() for _ in entries]
        with self._condition:
            if self._closed:
                raise RuntimeError("queue is closed")
            if len(self._pending) + len(entries) > self.max_pending:
                self._rejected += 1
                raise QueueFullError(
                    f"queue is full ({self.max_pending} requests pending)"
                )
            admitted = time.monotonic()
            self._pending.extend((future,) + entry + (deadline, admitted)
                                 for future, entry in zip(futures, entries))
            self._condition.notify_all()
        return futures

    def add(self, trajectories: Sequence[TrajectoryLike], *,
            deadline: Optional[float] = None) -> int:
        """Append to the wrapped service's database on a flush of its own,
        in arrival order; returns the new database size (as the remote
        client's ``add``). :class:`DeadlineExceededError` means it never
        ran: one the flush thread has started is waited out."""
        future = self._enqueue([(_ADD, trajectories)], deadline)[0]
        try:
            return self._wait(future, deadline)
        except DeadlineExceededError:
            if future.cancel():  # still queued: the flush thread skips it
                with self._condition:
                    self._expired += 1
                raise
            return future.result()

    def __len__(self) -> int:
        return len(self.service)

    def knn(self, queries: Sequence[TrajectoryLike], k: int,
            exclude: Optional[int] = None,
            dedupe_eps: Optional[float] = None, *,
            deadline: Optional[float] = None
            ) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` of shape ``(N, k)``: the batch is admitted
        whole (or refused whole) as one entry per query, so other callers'
        queries share its flushes. Past ``deadline`` it raises
        :class:`DeadlineExceededError`."""
        futures = self._enqueue(
            [(_KNN, query, k, exclude, dedupe_eps)
             for query in as_points_batch(queries)], deadline)
        rows = [self._wait(future, deadline) for future in futures]
        if not rows:
            return np.empty((0, k)), np.empty((0, k), dtype=np.int64)
        return (np.stack([d for d, _ in rows]),
                np.stack([i for _, i in rows]))

    def pairwise(self, queries: Sequence[TrajectoryLike],
                 database: Optional[Sequence[TrajectoryLike]] = None, *,
                 deadline: Optional[float] = None) -> np.ndarray:
        """The ``(|Q|, |D|)`` block through :meth:`submit_pairwise`, waited
        for no longer than ``deadline``."""
        return self._wait(self.submit_pairwise(queries, database, deadline),
                          deadline)

    @staticmethod
    def _wait(future, deadline: Optional[float]):
        from concurrent.futures import TimeoutError as FutureTimeout

        if deadline is None:
            return future.result()
        try:
            return future.result(max(0.0, deadline - time.monotonic()))
        except FutureTimeout:
            raise DeadlineExceededError("request deadline passed") from None

    @property
    def pending(self) -> int:
        """Requests currently waiting for the flush thread (queue depth)."""
        with self._condition:
            return len(self._pending)

    @property
    def queue_stats(self) -> QueueStats:
        """``(queries, batches, largest_batch, rejected, expired,
        wait_ms_sum, wait_count)`` so far."""
        with self._condition:
            return QueueStats(self._queries, self._batches,
                              self._largest_batch, self._rejected,
                              self._expired, self._waits.sum,
                              self._waits.count)

    def wait_histogram(self) -> LatencyHistogram:
        """A copy of the queue-wait histogram: for every entry a flush
        took, the milliseconds from its admission to that flush's start."""
        with self._condition:
            return copy.deepcopy(self._waits)

    def stats(self) -> Dict:
        """The wrapped service's report as it is, plus this queue's
        counters under ``"queue"``: nothing is nested, so a health probe
        reads the same keys however many queues are stacked."""
        inner_stats = getattr(self.service, "stats", None)
        info = (dict(inner_stats()) if callable(inner_stats)
                else {"type": type(self.service).__name__})
        info["queue"] = dict(self.queue_stats._asdict(), pending=self.pending)
        return info

    # ------------------------------------------------------------------
    # Flush thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._pending and not self._closed:
                    self._condition.wait()
                if not self._pending:
                    return  # closed and drained
                # No timer: what is pending leaves now, and whatever
                # arrives while this flush runs is the next one. An add
                # leaves alone, between the queries around it.
                batch = [self._pending.popleft()]
                while (self._pending and len(batch) < self.max_batch
                       and _ADD not in (batch[0][1], self._pending[0][1])):
                    batch.append(self._pending.popleft())
            self._flush(batch)

    def _flush(self, batch) -> None:
        knn_groups: "Dict[Tuple, List]" = {}
        shared_pairwise: List = []   # database=None → coalescable
        adhoc_pairwise: List = []    # explicit database → one call each
        now = time.monotonic()
        with self._condition:
            for item in batch:  # waited from admission to this flush
                self._waits.observe((now - item[-1]) * 1e3)
        expired_now = 0
        for item in batch:
            future, kind, deadline = item[0], item[1], item[-2]
            if not future.set_running_or_notify_cancel():
                continue  # the caller cancelled while the query was pending
            if deadline is not None and now > deadline:
                # The caller's budget ran out while the entry queued:
                # don't spend service time on a vanished caller.
                expired_now += 1
                self._fail(future, DeadlineExceededError(
                    f"deadline exceeded {now - deadline:.3f}s before the "
                    "request was served"))
                continue
            if kind == _ADD:
                self._add(future, item[2])
            elif kind == _KNN:
                _, _, points, k, exclude, dedupe_eps, _, _ = item
                knn_groups.setdefault((k, exclude, dedupe_eps), []).append(
                    (future, points)
                )
            else:
                _, _, queries, database, _, _ = item
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
            stacked = Ragged(queries for _, queries in shared_pairwise)
            ends = np.cumsum([len(queries) for _, queries in shared_pairwise])
            matrix = self._serve(futures,
                                 lambda: self.service.pairwise(stacked))
            if matrix is not None:
                self._resolve(futures, np.split(matrix, ends[:-1]),
                              queries=len(stacked))
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
            return call()
        except Exception as error:  # propagate to every caller
            for future in futures:
                self._fail(future, error)
            return None

    def _add(self, future, trajectories) -> None:
        def call():
            size = self.service.add(trajectories)
            return size if isinstance(size, int) else len(self.service)

        size = self._serve([future], call)
        if size is not None:
            self._resolve([future], [size], queries=0)

    def _resolve(self, futures, results, queries: int) -> None:
        """Hand out results; ``queries`` served ones count as a batch."""
        from concurrent.futures import InvalidStateError

        if queries:
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
        """Refuse new requests, drain the pending ones, stop the thread."""
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
            f"served={stats.queries} in {stats.batches} batches)"
        )
