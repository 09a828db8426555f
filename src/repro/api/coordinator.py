"""The cluster coordinator: the sharding engine over TCP shard workers.

The sharding engine of :mod:`repro.api.serving`
(:class:`~repro.api.serving.ShardMergeMixin`: placement, routing with
failover, write-all ``add``, the merge) runs the same over worker
*processes* on one box and worker *machines*; this module is its owner
over the second link kind — TCP, to the
:class:`~repro.api.cluster.ShardWorker` servers of
:mod:`repro.api.cluster` — and what only a fleet of machines needs:
heartbeat, replication repair, the catch-up log, rejoin and snapshots.

:class:`ClusterCoordinator` connects to N workers (with retries), joins
each one, and from there deals the database, routes and merges exactly
as the process-sharded service does — bit-identical to a single service
for exact indexes, recall-≥ for IVF. It owns the request, so it holds
the only model and embedding cache and feeds its workers vectors
("Encode once" in :mod:`repro.api.serving`). It satisfies the
:class:`~repro.api.protocols.KnnService` protocol, so ``QueryQueue``,
``SimilarityServer`` and both remote clients compose with it unchanged
(``python -m repro cluster`` is exactly that composition). A worker
process never imports this module.

Fault tolerance (``replication=R``): each logical shard is placed on R
distinct workers. What a worker's death costs, and how ``close`` tears
down, is the engine's one policy, written in
:class:`~repro.api.serving.ShardMergeMixin`; replicas hold byte-identical
shard state, so failover changes no answer. What only a cluster adds: a
replica that missed a committed write gets it recorded in a bounded
per-shard *catch-up log*.

Recovery: :meth:`ClusterCoordinator.rejoin` brings a restarted worker
back — it is re-identified by worker id, restored from a healthy replica
(authoritative ``export``/re-``add``), or, when none exists, from the
latest snapshot plus the catch-up log, then promoted from degraded back
to up. ``export`` returns what a replica holds in the form ``add`` takes
back — vectors included — the catch-up log keeps each vector beside
its points, and a snapshot's shard files store their shard's vectors,
so no source re-encodes anything. The heartbeat loop additionally
*re-replicates* in the background: a shard below R healthy copies is
exported onto a spare worker, so replication heals without operator
action. ``add`` deals each trajectory to the currently-smallest eligible
shard (ties broken by shard id — identical to round-robin when
balanced), which doubles as skew-triggered rebalancing when shards drift
apart.

Sharded snapshots: :meth:`ClusterCoordinator.save` writes one ``.npz``
per shard (ids, trajectories and, under an embedding backend, vectors)
plus a JSON manifest (shard count, backend config, index kind, format
version) and ``backend.npz``; :meth:`ClusterCoordinator.load` rebuilds a
cluster from the manifest against a *different* worker count by
re-dealing the stored rows, global ids preserved and nothing encoded.
Quickstart::

    from repro.api.cluster import ShardWorker
    from repro.api.coordinator import ClusterCoordinator

    workers = [ShardWorker() for _ in range(3)]      # or three machines
    with ClusterCoordinator([w.address for w in workers],
                            backend="hausdorff", replication=2) as cluster:
        cluster.add(trajectories)
        workers[0].close()                           # kill one mid-traffic
        distances, ids = cluster.knn(trajectories[0], k=5, exclude=0)
        cluster.rejoin("worker-0", address=replacement.address)
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..trajectory.trajectory import (
    Ragged, pack_trajectories, unpack_trajectories,
)
from .backends import backend_state, restore_backend
from .node import parse_address
from .protocols import SimilarityBackend
from .serving import ShardLostError, ShardMergeMixin, _WorkerLink, shard_share
from .transport import (
    OK,
    RemoteCallError,
    SocketTransport,
    TransportClosed,
    TransportError,
    close_quietly,
    request,
)

__all__ = ["ClusterCoordinator", "SNAPSHOT_FORMAT_VERSION", "MANIFEST_NAME"]

#: version stamp of the sharded snapshot layout (manifest + shard files)
SNAPSHOT_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
_BACKEND_FILE = "backend.npz"
_SHARD_FILE = "shard_{:04d}.npz"
_SNAPSHOT_KIND = "repro-cluster-snapshot"
#: committed adds one dead replica of one shard may miss before its
#: catch-up log is dropped (rejoin then needs a replica or a snapshot
#: that covers the shard)
CATCHUP_LIMIT = 4096


class ClusterCoordinator(ShardMergeMixin):
    """kNN serving over a database partitioned across remote shard workers.

    The sharding engine (:class:`~repro.api.serving.ShardMergeMixin`)
    over TCP links — the multi-machine sibling of
    :class:`~repro.api.serving.ShardedSimilarityService`. Trajectories
    are dealt across ``len(workers)`` logical shards (each placed on
    ``replication`` distinct workers), the shard recipe ships once per
    worker in the ``join`` handshake (an embedding backend stays here,
    its encoder sized by ``batch_size``/``cache_size``), and queries
    merge per-shard top-k — bit-identical to a single
    :class:`~repro.api.service.SimilarityService` for exact shard
    indexes, recall-≥ for IVF. What this class adds to the engine is
    what TCP and a fleet need: connecting with retries, the heartbeat,
    re-replication, :meth:`rejoin`, :meth:`save` / :meth:`load`.

    ``heartbeat_interval > 0`` starts a background pinger; a worker whose
    process or link has died (pings answer lock-free on the worker, so a
    busy shard never trips this) is degraded within ``heartbeat_timeout``
    by the engine's failure policy (see
    :class:`~repro.api.serving.ShardMergeMixin`, which also owns the
    teardown). With ``replication >= 2`` the same loop also re-replicates
    under-copied shards onto spare workers. Worker RPC is serialized
    through an internal lock, so the coordinator is safe from any thread
    and ``stats()`` from a monitoring thread can never interleave frames
    with a query in flight. A :class:`~repro.api.serving.QueryQueue` in
    front adds batching of concurrent callers, not safety.
    """

    def __init__(
        self,
        workers: Sequence[Union[str, Tuple[str, int]]],
        backend: Union[str, SimilarityBackend, object] = "trajcl",
        index: Optional[str] = None,
        *,
        replication: int = 1,
        backend_kwargs: Optional[Dict] = None,
        index_kwargs: Optional[Dict] = None,
        batch_size: int = 256,
        cache_size: int = 4096,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: float = 10.0,
        connect_retries: int = 5,
        retry_wait: float = 0.1,
    ):
        addresses = [parse_address(worker) for worker in workers]
        if not addresses:
            raise ValueError("workers must name at least one host:port")
        super().__init__(
            addresses, backend, index, replication=replication,
            backend_kwargs=backend_kwargs, index_kwargs=index_kwargs,
            batch_size=batch_size, cache_size=cache_size)
        self.heartbeat_interval = float(heartbeat_interval or 0.0)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._connect_retries = int(connect_retries)
        self._connect_wait = float(retry_wait)
        self._rereplications = 0
        #: ``(worker, shard)`` -> the ``(global_ids, share)`` adds committed
        #: while that replica was down, each share as the live replicas
        #: were sent it, replayed on rejoin
        self._catchup: Dict[Tuple[int, int], deque] = {}
        #: ``(worker, shard)`` logs that overflowed :data:`CATCHUP_LIMIT`
        #: (replay no longer possible)
        self._catchup_overflow: Set[Tuple[int, int]] = set()
        self._last_snapshot: Optional[str] = None
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        try:
            for link in self._links:
                link.transport = self._new_transport(link.address)
                link.heartbeat = self._new_transport(link.address)
                self._join(link)
        except (TransportError, RemoteCallError):
            self.close()
            raise
        if self.heartbeat_interval > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, daemon=True,
                name="repro-cluster-heartbeat",
            )
            self._heartbeat_thread.start()

    # ------------------------------------------------------------------
    # Connections / placement
    # ------------------------------------------------------------------
    def _new_transport(self, address: Tuple[str, int]):
        return SocketTransport.connect(
            *address, retries=self._connect_retries,
            retry_wait=self._connect_wait)

    @property
    def degraded_shards(self) -> List[int]:
        """Shards with *zero* healthy replicas (their data is unreachable)."""
        return [s for s in range(self._num_shards) if not self._replicas(s)]

    def _resolve_link(self, worker) -> _WorkerLink:
        if isinstance(worker, int):
            return self._links[worker]
        for link in self._links:
            if link.worker_id == worker:
                return link
        try:
            address = parse_address(worker)
        except (TypeError, ValueError):
            address = None
        if address is not None:
            for link in self._links:
                if link.address == address:
                    return link
        raise KeyError(f"no cluster worker {worker!r}")

    # ------------------------------------------------------------------
    # Heartbeat + background repair
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            for link in list(self._links):
                if self._stop.is_set():
                    return
                if not link.alive:
                    continue
                try:
                    link.heartbeat.send(("ping", None))
                    if not link.heartbeat.poll(self.heartbeat_timeout):
                        raise TransportClosed(
                            f"no heartbeat reply within "
                            f"{self.heartbeat_timeout}s")
                    status, _result = link.heartbeat.recv()
                    if status != OK:
                        raise TransportClosed("heartbeat error reply")
                except TransportError as error:
                    if self._stop.is_set():
                        # close() severs the heartbeat channels to wake
                        # this thread; that hangup is not a worker death.
                        return
                    self._degrade(link, f"heartbeat failed: {error}")
            if not self._stop.is_set():
                try:
                    self._rereplicate_once()
                except Exception:
                    # Background repair must never kill the pinger; link
                    # failures were already recorded via _degrade.
                    pass

    def _exported_points(self, exported) -> List[np.ndarray]:
        """The trajectories of one shard's ``export`` reply (which an
        embedding shard gives as ``(points, vectors)``)."""
        return exported if self._encoder is None else exported[0]

    def _rereplicate_once(self) -> bool:
        """Copy one under-replicated shard onto a spare worker.

        One copy per heartbeat sweep keeps the pinger responsive; the
        next sweep picks up the next shard. Returns True when a copy
        landed (placement updated), False when there was nothing to do
        or the attempt failed (the failure degrades the guilty link and
        a later sweep retries).
        """
        if self.replication <= 1 or self._closed:
            return False
        with self._rpc_lock:
            if self._closed:
                return False
            for shard in range(self._num_shards):
                replicas = self._replicas(shard)
                if not replicas or len(replicas) >= self.replication:
                    continue
                hosts = set(self._placement[shard])
                spares = [link for link in self._links
                          if link.alive and link.worker not in hosts]
                if not spares:
                    continue
                target = min(spares, key=lambda l: (len(l.shards), l.worker))
                source = replicas[0]
                try:
                    # repair copies hold _rpc_lock so the exported shard is
                    # consistent with the committed ids; bounded by the worker
                    # answering or _degrade
                    exported = request(
                        source.transport, "export", ([shard], None),
                        who=f"cluster worker {source.label}")[shard]
                except TransportError as error:
                    self._degrade(
                        source, f"re-replication export failed: {error}")
                    return False
                except RemoteCallError:
                    return False
                held = len(self._exported_points(exported))
                if held != len(self._shard_ids[shard]):
                    return False  # torn view; retry next sweep
                try:
                    # same repair transaction: the host/add pair must not
                    # interleave with queries
                    request(target.transport, "host", [shard],
                            who=f"cluster worker {target.label}")
                    if held:
                        # second half of the host/add pair above, same repair
                        # transaction
                        request(target.transport, "add", {shard: exported},
                                who=f"cluster worker {target.label}")
                except TransportError as error:
                    self._degrade(
                        target, f"re-replication copy failed: {error}")
                    return False
                except RemoteCallError:
                    return False
                self._placement[shard].append(target.worker)
                target.shards.append(shard)
                self._rereplications += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Catch-up log
    # ------------------------------------------------------------------
    def _add_locked(self, batch: Ragged, vectors):
        """The engine's add, then each committed share logged for every
        dead replica of its shard. Caller holds ``_rpc_lock``."""
        committed = super()._add_locked(batch, vectors)
        for shard, ids, share in committed:
            for worker in self._placement[shard]:
                if not self._links[worker].alive:
                    self._log_catchup((worker, shard), ids, share)
        return committed

    def _log_catchup(self, key: Tuple[int, int], ids: np.ndarray,
                     share) -> None:
        """Record a committed share a dead replica missed (bounded at
        :data:`CATCHUP_LIMIT` trajectories per log)."""
        if key in self._catchup_overflow:
            return
        log = self._catchup.setdefault(key, deque())
        if sum(len(held) for held, _ in log) + len(ids) > CATCHUP_LIMIT:
            # Overflow: the tail would no longer be complete, so replay is
            # off the table — drop the log (rejoin falls back to a
            # replica export or a full-coverage snapshot).
            self._catchup.pop(key, None)
            self._catchup_overflow.add(key)
            return
        log.append((ids, share))

    def _drop_catchup(self, key: Tuple[int, int]) -> None:
        self._catchup.pop(key, None)
        self._catchup_overflow.discard(key)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def rejoin(self, worker, address=None, *,
               snapshot: Optional[str] = None) -> Dict[int, str]:
        """Bring a degraded worker back and promote it to up.

        ``worker`` is the worker id presented by the restarted process
        (``"worker-0"``), its index, or its ``host:port``; ``address``
        points at the replacement when it came back on a different port.
        Each of the worker's shards is restored from the first available
        source — a healthy replica (authoritative ``export``/re-``add``),
        else the latest snapshot (from :meth:`save`, or ``snapshot=``)
        plus the catch-up log, else the catch-up log alone when it covers
        the whole shard — and shards that were re-replicated elsewhere in
        the meantime are shed from the assignment. Returns
        ``{shard: source}`` with source one of ``"replica"``,
        ``"snapshot"``, ``"catchup"``; raises
        :class:`~repro.api.serving.ShardLostError` when a shard cannot be
        reconstructed from any source, and ``ValueError`` when the
        snapshot holds a shard file this build cannot read. No source
        re-encodes: each one keeps its vectors.
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        link = self._resolve_link(worker)
        with self._rpc_lock:
            if link.alive:
                raise ValueError(
                    f"worker {link.worker_id} ({link.label}) is already up")
            previous = link.address
            if address is not None:
                link.address = parse_address(address)
            # Shards re-replicated onto spares while this worker was down
            # are fully covered; shed them instead of hosting extras.
            for shard in list(link.shards):
                if len(self._replicas(shard)) >= self.replication:
                    link.shards.remove(shard)
                    self._placement[shard].remove(link.worker)
                    self._drop_catchup((link.worker, shard))
            transport = heartbeat = None
            try:
                transport = self._new_transport(link.address)
                heartbeat = self._new_transport(link.address)
                # the handshake and the restore are one transaction under
                # _rpc_lock: queries must not observe a half-restored replica
                request(transport, "join", self._join_payload(link),
                        who=f"cluster worker {link.label}")
                restored = {}
                for shard in list(link.shards):
                    restored[shard] = self._restore_shard(
                        link, shard, transport, snapshot)
                link.transport = transport
                link.heartbeat = heartbeat
                link.alive = True
                link.reason = None
                return restored
            except BaseException:
                link.address = previous
                close_quietly(transport)
                close_quietly(heartbeat)
                raise

    def _restore_shard(self, link: _WorkerLink, shard: int, transport,
                       snapshot: Optional[str]) -> str:
        """Refill one shard on a rejoining worker; caller holds _rpc_lock."""
        want = self._shard_ids[shard].rows.tolist()
        key = (link.worker, shard)
        while True:
            source = self._pick_replica(shard)  # link itself is not up yet
            if source is None:
                break
            try:
                exported = request(
                    source.transport, "export", ([shard], None),
                    who=f"cluster worker {source.label}")[shard]
            except TransportError as error:
                # A nominally-alive replica that died unnoticed (no query
                # or heartbeat touched it since): degrade it and try the
                # next one rather than failing the rejoin.
                self._degrade(source, f"rejoin export failed: {error}")
                continue
            held = len(self._exported_points(exported))
            if held != len(want):
                raise RuntimeError(
                    f"replica of shard {shard} exported {held} "
                    f"trajectories but the coordinator owns {len(want)} ids")
            if held:
                request(transport, "add", {shard: exported},
                        who=f"cluster worker {link.label}")
            self._drop_catchup(key)
            return "replica"
        # The shard file's block, then the log's shares, read as one
        # store. A global id never changes hands, so two sources hold the
        # same trajectory for an id they share.
        held = []  # (ids, points, vectors or None) per source
        directory = snapshot if snapshot is not None else self._last_snapshot
        path = (os.path.join(directory, _SHARD_FILE.format(shard))
                if directory is not None else None)
        if path is not None and os.path.exists(path):
            held.append(self._read_shard_file(path))
        from_snapshot = bool(held) and bool(np.isin(want, held[0][0]).any())
        if key not in self._catchup_overflow:
            for ids, share in self._catchup.get(key, ()):
                points, vectors = ((share, None) if self._encoder is None
                                   else share)
                held.append((ids, points, vectors))
        ids = np.concatenate([np.empty(0, np.int64)]
                             + [ids for ids, _, _ in held])
        row = {g: i for i, g in enumerate(ids.tolist())}  # row in the store
        missing = [g for g in want if g not in row]
        if missing:
            raise ShardLostError(
                f"shard {shard} has no healthy replica and the "
                f"snapshot/catch-up log cannot reconstruct it "
                f"({len(want) - len(missing)} of {len(want)} trajectories "
                "recoverable); restore from an older snapshot or "
                "accept the loss")
        if want:
            vectors = (None if self._encoder is None else
                       np.concatenate([vectors for _, _, vectors in held]))
            share = shard_share(Ragged(points for _, points, _ in held),
                                vectors, np.array([row[g] for g in want]))
            request(transport, "add", {shard: share},
                    who=f"cluster worker {link.label}")
        self._drop_catchup(key)
        return "snapshot" if from_snapshot else "catchup"

    def _read_shard_file(self, path: str):
        """One shard file of :meth:`save` as ``(ids, points, vectors)``,
        ``vectors`` None under a distance backend. A file this build
        cannot restore from is a ``ValueError`` naming it."""
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        version = (int(arrays["format_version"])
                   if "format_version" in arrays else None)
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"shard file {path!r} has snapshot format version "
                f"{version}; this build reads version "
                f"{SNAPSHOT_FORMAT_VERSION}")
        try:
            points = unpack_trajectories(arrays)
        except ValueError as error:
            raise ValueError(f"shard file {path!r}: {error}") from None
        ids = arrays.get("ids")
        if (ids is None or ids.ndim != 1 or ids.dtype.kind not in "iu"
                or len(ids) != len(points)):
            raise ValueError(
                f"shard file {path!r} does not hold one integer id per "
                f"trajectory ({len(points)} trajectories)")
        if self._encoder is None:
            return ids, points, None
        vectors = arrays.get("vectors")
        dim = self.backend.output_dim
        if (vectors is None or vectors.ndim != 2 or len(vectors) != len(ids)
                or (dim is not None and vectors.shape[1] != dim)):
            shape = None if vectors is None else vectors.shape
            raise ValueError(
                f"shard file {path!r} does not hold a ({len(ids)}, {dim}) "
                f"vector for each trajectory (got {shape})")
        return ids, points, vectors

    def stats(self) -> Dict:
        """The engine's report plus what only a cluster has: the
        ``"catchup"`` backlog of each dead ``"worker_links"`` entry and
        the count of background ``"rereplications"``."""
        result = super().stats()
        for entry in result["worker_links"]:
            if not entry["alive"]:
                entry["catchup"] = sum(
                    len(ids)
                    for (worker, _), log in list(self._catchup.items())
                    if worker == entry["worker"] for ids, _ in log)
        result["rereplications"] = self._rereplications
        return result

    # ------------------------------------------------------------------
    # Sharded snapshots
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Snapshot the cluster: one ``.npz`` per shard plus a manifest.

        Layout: ``shard_NNNN.npz`` (the trajectories as
        :func:`~repro.trajectory.pack_trajectories` lays them out, their
        global ids and, under an embedding backend, their vectors),
        ``backend.npz`` (backend weights) and ``manifest.json`` (format
        version, shard count, backend config, index kind). Each shard is
        exported from one healthy replica, so an *under-replicated*
        cluster still snapshots; a cluster with a *lost* shard (zero
        healthy replicas) refuses — the snapshot would silently drop its
        trajectories. The directory is remembered as the latest snapshot
        for :meth:`rejoin`'s snapshot-restore path.
        """
        degraded = self.degraded_shards
        if degraded:
            raise RuntimeError(
                f"cannot snapshot a degraded cluster (lost shards "
                f"{degraded}); the snapshot would drop their trajectories")
        exports = self._shard_query("export", None)
        if len(exports) != self._num_shards:
            raise RuntimeError(
                "a shard was lost while exporting; snapshot aborted")
        os.makedirs(directory, exist_ok=True)
        shard_files = []
        for shard, (ids, exported) in enumerate(exports):
            trajectories = self._exported_points(exported)
            if len(ids) != len(trajectories):
                raise RuntimeError(
                    f"shard {shard} exported {len(trajectories)} "
                    f"trajectories but owns {len(ids)} ids")
            name = _SHARD_FILE.format(shard)
            payload = {
                "format_version": np.array(SNAPSHOT_FORMAT_VERSION),
                "ids": np.asarray(ids, dtype=np.int64),
                **pack_trajectories(trajectories),
            }
            if self._encoder is not None:
                payload["vectors"] = exported[1]
            np.savez_compressed(os.path.join(directory, name), **payload)
            shard_files.append(name)
        backend_meta, backend_arrays = backend_state(self.backend)
        np.savez_compressed(os.path.join(directory, _BACKEND_FILE),
                            **backend_arrays)
        manifest = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "kind": _SNAPSHOT_KIND,
            "size": self._size,
            "shards": self._num_shards,
            "replication": self.replication,
            "shard_files": shard_files,
            "backend": backend_meta,
            "index": self.index_name,
            "index_kwargs": self._index_kwargs,
            "batch_size": self._batch_size,
            "cache_size": self._cache_size,
        }
        with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
            json.dump(manifest, handle, indent=2)
        self._last_snapshot = os.path.abspath(directory)

    @classmethod
    def load(cls, directory: str,
             workers: Sequence[Union[str, Tuple[str, int]]],
             **kwargs) -> "ClusterCoordinator":
        """Restore a cluster from :meth:`save` onto ``workers``.

        The worker count may differ from the snapshot's: trajectories (and
        their stored vectors, so nothing is encoded) are reassembled in
        global-id order and re-dealt, so ids — and therefore every kNN
        answer over an exact index — are preserved bit-for-bit regardless
        of the new shard layout. The snapshot's replication factor carries
        over (clamped to the new worker count) unless overridden. A shard
        file this build cannot read, or ids that are not a permutation of
        the snapshot's size, is a ``ValueError``.
        """
        workers = list(workers)
        with open(os.path.join(directory, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        if manifest.get("kind") != _SNAPSHOT_KIND:
            raise ValueError(f"{directory!r} is not a cluster snapshot")
        version = manifest.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported cluster snapshot version {version!r}")
        with np.load(os.path.join(directory, _BACKEND_FILE)) as archive:
            arrays = {key: archive[key] for key in archive.files}
        backend = restore_backend(manifest["backend"], arrays)
        kwargs.setdefault("index_kwargs", manifest.get("index_kwargs"))
        kwargs.setdefault("batch_size", manifest.get("batch_size", 256))
        kwargs.setdefault("cache_size", manifest.get("cache_size", 4096))
        kwargs.setdefault("replication",
                          min(int(manifest.get("replication", 1)),
                              len(workers)))
        coordinator = cls(workers, backend=backend,
                          index=manifest.get("index"), **kwargs)
        try:
            size = int(manifest["size"])
            files = [
                coordinator._read_shard_file(os.path.join(directory, name))
                for name in manifest["shard_files"]]
            ids = np.concatenate(
                [np.empty(0, dtype=np.int64)] + [held[0] for held in files])
            if not np.array_equal(np.sort(ids), np.arange(size)):
                raise ValueError(
                    f"cluster snapshot {directory!r} is corrupt: the ids "
                    f"of its shard files are not a permutation of "
                    f"range({size})")
            if size:
                # Global-id order, dealt as one add of stored vectors: the
                # ids come back as they were and nothing is encoded.
                order = np.argsort(ids)
                points = Ragged(held[1] for held in files)
                vectors = (None if coordinator._encoder is None else
                           np.concatenate([held[2] for held in files])[order])
                with coordinator._rpc_lock:
                    coordinator._add_locked(points.take(order), vectors)
        except Exception:
            coordinator.close()
            raise
        return coordinator

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, shutdown_workers: bool = False) -> None:
        """Stop the heartbeat, then the engine's one teardown
        (:meth:`ShardMergeMixin.close
        <repro.api.serving.ShardMergeMixin.close>`)."""
        if self._closed:
            return
        self._stop.set()
        # Sever the heartbeat channels first: the pinger may be blocked
        # in a poll() of up to heartbeat_timeout, and a closed socket
        # wakes it now (its error path sees _stop and returns instead of
        # degrading anyone).
        for link in self._links:
            close_quietly(link.heartbeat)
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)
        super().close(shutdown_workers)
