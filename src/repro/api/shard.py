"""The worker side of sharded serving: the shards a worker hosts.

Every shard worker — a local worker process of
:class:`~repro.api.serving.ShardedSimilarityService` on its socket pair,
a :class:`~repro.api.cluster.ShardWorker` on every TCP connection — runs
the one :class:`_ShardHost` table over :class:`Shard` objects, each a
:class:`~repro.api.service.SimilarityService` over its slice of the
database. This module holds only that side: a worker process imports it,
and neither the fan-out engine, the query queue nor the TCP client and
server, which it never runs (the owner side is
:mod:`repro.api.serving`, the coordinator :mod:`repro.api.coordinator`).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

import numpy as np

from ..trajectory.trajectory import Ragged
from .backends import restore_backend
from .protocols import Embedded
from .service import SimilarityService
from .transport import ServiceNode

__all__ = ["Shard", "merge_cache_counters"]


def merge_cache_counters(counters: Sequence[Dict]) -> Dict:
    """Sum per-shard embedding-cache counters into one fleet-wide view."""
    total = {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
    for info in counters:
        for key in total:
            total[key] += int(info.get(key, 0))
    return total


class Shard:
    """One logical shard as every worker runs it: a
    :class:`SimilarityService` over a slice of the database, plus the
    translation between what crosses the wire and what the service takes.

    Under a distance backend the wire carries trajectories. Built from
    a description the service is vector-fed: ``add`` takes and
    :meth:`export` returns ``(points, vectors)`` and queries arrive as
    one bare ``(N, d)`` array. Trajectories cross as one packed block
    (one header, offsets and buffer) and the service keeps each block as
    it arrived, the vectors beside it as views of the same frame.
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
        queries, fetch, dedupe_eps = payload
        if len(self.service) == 0:
            # This shard got no data (database smaller than the shard
            # count); contribute an all-padding pool.
            return (np.full((len(queries), fetch), np.inf),
                    np.full((len(queries), fetch), -1, dtype=np.int64))
        # No exclude here: it names a global id, which the owner drops
        # from the merged pool.
        return self.service.knn(self._queries(queries), k=fetch,
                                dedupe_eps=dedupe_eps)

    def pairwise(self, queries):
        return self.service.pairwise(self._queries(queries))

    def export(self):
        """Everything this shard holds, in the form :meth:`add` takes back
        — so refilling a replica from it costs no encode. The points are
        the store's blocks, not its items: the wire writes them as one
        packed block."""
        points = Ragged([self.service.trajectories])
        if not self.service.vector_fed:
            return points
        return points, self.service.stored_vectors()


class _ShardHost:
    """The logical shards one worker hosts and the commands it answers —
    the one table both kinds of worker serve: a local worker process
    (:func:`_shard_worker`) on its socket pair, a
    :class:`~repro.api.cluster.ShardWorker` on every TCP connection.

    A host boots empty; the owner's ``join`` carries the shard recipe
    (:func:`~repro.api.serving.shard_recipe`) and the shard assignment,
    and (re)builds one :class:`Shard` per assigned shard — a later
    ``join`` from a new owner replaces everything, ``leave`` drops it,
    ``host`` adds empty shards (the re-replication path). Shard commands
    address shards explicitly (``add`` maps ``{shard: share}``, ``knn``
    asks ``(shards, (queries, fetch, dedupe_eps))``, in the forms
    :class:`Shard` takes), so one worker can serve several replicas
    without ever pooling their ids.
    """

    def __init__(self):
        self._services: Dict[int, Shard] = {}
        self._recipe: Optional[Dict] = None
        self._worker_id: Optional[str] = None

    def _build_service(self) -> Shard:
        if self._recipe is None:
            raise RuntimeError(
                "worker holds no shard; the coordinator must send "
                "'join' first"
            )
        return Shard(**self._recipe)

    def shard_handlers(self) -> Dict:
        """``{command: handler(payload)}``, for a
        :class:`~repro.api.transport.ServiceNode`."""
        def service_for(shard) -> Shard:
            service = self._services.get(int(shard))
            if service is None:
                raise RuntimeError(
                    f"worker hosts no shard {shard}; the coordinator must "
                    "send 'join' (or 'host') first"
                )
            return service

        def handle_join(payload):
            self._recipe = {
                "backend": payload["backend"],
                "index": payload.get("index"),
                "index_kwargs": payload.get("index_kwargs"),
                "service_kwargs": payload.get("service_kwargs"),
            }
            self._worker_id = payload.get("worker_id")
            shards = payload.get("shards")
            if shards is None:
                shards = [0]
            # A re-join replaces the hosted shards wholesale (the dict is
            # swapped, never mutated, so the lock-free ping can iterate a
            # stable snapshot).
            self._services = {int(s): self._build_service() for s in shards}
            return {"pid": os.getpid(), "worker_id": self._worker_id,
                    "sizes": {s: len(svc)
                              for s, svc in self._services.items()}}

        def handle_host(shards):
            services = dict(self._services)
            for shard in shards:
                if int(shard) not in services:
                    services[int(shard)] = self._build_service()
            self._services = services
            return {s: len(svc) for s, svc in self._services.items()}

        def handle_leave(_payload):
            self._services = {}
            self._recipe = None
            return None

        def handle_ping(_payload):
            services = self._services  # swapped wholesale, safe to iterate
            return {"joined": bool(services),
                    "worker_id": self._worker_id,
                    "size": sum(len(s) for s in services.values())}

        def handle_add(payload):
            return {shard: service_for(shard).add(items)
                    for shard, items in payload.items()}

        def handle_knn(payload):
            shards, asked = payload
            return {shard: service_for(shard).knn(asked) for shard in shards}

        def handle_pairwise(payload):
            shards, queries = payload
            return {shard: service_for(shard).pairwise(queries)
                    for shard in shards}

        def handle_export(payload):
            shards, _ = payload
            if shards is None:
                shards = sorted(self._services)
            return {shard: service_for(shard).export() for shard in shards}

        def handle_len(_payload):
            return sum(len(s) for s in self._services.values())

        def handle_stats(_payload):
            services = self._services
            info: Dict = {
                "type": type(self).__name__,
                "joined": bool(services),
                "pid": os.getpid(),
                "worker_id": self._worker_id,
                "shards": {s: len(svc) for s, svc in services.items()},
                "size": sum(len(svc) for svc in services.values()),
            }
            if services:
                per_service = [svc.service.stats()
                               for svc in services.values()]
                first = per_service[0]
                for key in ("backend", "kind", "index"):
                    if key in first:
                        info[key] = first[key]
                if "cache" in first:  # vector-fed shards have none
                    info["cache"] = merge_cache_counters(
                        [s["cache"] for s in per_service])
            return info

        return {
            "join": handle_join,
            "host": handle_host,
            "leave": handle_leave,
            "add": handle_add,
            "knn": handle_knn,
            "pairwise": handle_pairwise,
            "export": handle_export,
            "len": handle_len,
            "stats": handle_stats,
            "ping": handle_ping,
        }


def _shard_worker(transport, inherited: Sequence = ()) -> None:
    """One local shard process: a :class:`_ShardHost` answering on its
    one link until the parent sends ``stop`` or hangs up.

    ``inherited`` are the owner-side ends a forked worker holds copies of
    (its own link's, and those of the siblings forked before it). They
    are closed first, descriptor only — a shutdown would sever the
    owner's links — so that the owner's death is this worker's EOF:
    while a copy of the owner end stays open here, the worker never sees
    its owner go and outlives it.
    """
    for end in inherited:
        end.close_fd()
    try:
        ServiceNode(transport, _ShardHost().shard_handlers()).serve_forever()
    finally:
        transport.close()
