"""``repro.api`` — the unified similarity service layer.

One registry, one protocol, one facade for every similarity method in the
repo: the TrajCL model, the eight learned baselines and the four heuristic
measures all resolve by name and answer the same contract::

    from repro.api import SimilarityService, available_backends, get_backend

    available_backends()
    # ['cstrm', 'e2dtc', 'edr', 'edwp', 'frechet', 'hausdorff', 'neutraj',
    #  't2vec', 't3s', 'traj2simvec', 'trajcl', 'trajgat', 'trjsr']

    service = SimilarityService(backend="trajcl",
                                backend_kwargs={"checkpoint": "model.npz"},
                                index="ivf")
    service.add(trajectories)
    distances, ids = service.knn(trajectories[0], k=3, exclude=0)

Backends come in two kinds: ``"embedding"`` (``encode(trajectories) ->
(N, d)``, L1 similarity) and ``"distance"`` (``distance(a, b) -> float``).
The :class:`SimilarityService` composes a backend with a pluggable kNN
index (``"bruteforce"``, ``"ivf"``, ``"pq"``, ``"int8"``, ``"hnsw"`` or
``"segment"``: :func:`available_indexes`), chunks and caches embeddings,
and snapshots config + weights + index state to one ``.npz``.

For serving at scale, the modules split along process roles, so each
process loads only what it runs:

* :mod:`repro.api.serving` — the owner side: the sharding engine, which
  shards the database across worker processes
  (:class:`ShardedSimilarityService`), and the batcher of concurrent
  queries (:class:`QueryQueue`);
* :mod:`repro.api.shard` — the worker side: the shards one worker hosts
  and the commands it answers, for both kinds of worker;
* :mod:`repro.api.node` — the TCP accept loop under every TCP server, and
  the launcher helpers (``host:port``, ready files, ``SIGTERM``);
* :mod:`repro.api.remote` — any service behind a TCP port
  (:class:`SimilarityServer`) with a blocking client
  (:class:`RemoteSimilarityClient`);
* :mod:`repro.api.cluster` — the TCP shard worker of a multi-machine
  cluster (:class:`ShardWorker`);
* :mod:`repro.api.coordinator` — the cluster's owner
  (:class:`ClusterCoordinator` over N :class:`ShardWorker` servers, with
  N-way replication, heartbeats, failover, automatic
  rejoin/re-replication and sharded snapshots);
* :mod:`repro.api.gateway` — the HTTP/JSON edge
  (:class:`SimilarityGateway` over any of the above, with rate limiting,
  deadlines, load shedding and a Prometheus ``/metrics`` endpoint).

All inter-process and network traffic below the gateway speaks the
framed-message protocol in :mod:`repro.api.transport`; see each module's
docstring for composition examples.
"""

from .._lazy import lazy_exports

#: submodule -> the names it defines that ``repro.api`` re-exports
_EXPORTS = {
    "protocols": ("DISTANCE", "EMBEDDING", "EmbeddingBackend", "Index",
                  "KnnService", "MeasureBackend", "RetiredOptionError",
                  "SimilarityBackend", "as_backend"),
    "registry": ("BackendSpec", "available_backends", "backend_spec",
                 "get_backend", "register_backend"),
    "backends": ("backend_state", "restore_backend"),
    "indexes": ("BruteForceBackendIndex", "HNSWBackendIndex",
                "Int8BackendIndex", "IVFBackendIndex", "PQBackendIndex",
                "SegmentBackendIndex", "available_indexes", "get_index",
                "register_index"),
    "service": ("CacheInfo", "SimilarityService"),
    "serving": ("DeadlineExceededError", "QueryQueue", "QueueFullError",
                "QueueStats", "ShardLostError", "ShardedSimilarityService"),
    "transport": ("RemoteCallError", "ServiceNode", "SocketTransport",
                  "TransientError", "Transport", "TransportClosed",
                  "TransportError"),
    "remote": ("RemoteSimilarityClient", "SimilarityServer"),
    "cluster": ("ShardWorker",),
    "coordinator": ("ClusterCoordinator",),
    "gateway": ("SimilarityGateway",),
}

#: submodules ``repro.api`` re-exports whole
_SUBMODULES = ("wire",)

__all__ = [*_SUBMODULES, *(name for names in _EXPORTS.values()
                           for name in names)]

# PEP 562 (see :mod:`repro._lazy`): a process imports what it serves. A
# shard worker that takes ``repro.api.cluster`` pays for no engine, query
# queue, remote client or coordinator and no HTTP gateway
# (``http.server``, ``ssl``); one fed vectors never loads the model code
# either. The stock backends register
# themselves when the registry is first asked
# (:func:`repro.api.registry.backend_spec`), not here.
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, _SUBMODULES)
