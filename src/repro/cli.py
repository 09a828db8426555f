"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing code:

* ``generate``  — write a synthetic city dataset to an ``.npz`` file;
* ``train``     — pre-train TrajCL on a city (or an ``.npz`` dataset) and
  save the full pipeline checkpoint;
* ``encode``    — embed trajectories with a trained checkpoint;
* ``backends``  — list every similarity backend in the ``repro.api``
  registry;
* ``evaluate``  — mean-rank evaluation of any registered backend under the
  paper's §V-B protocol;
* ``knn``       — k-nearest-neighbour queries through the
  :class:`repro.api.SimilarityService` (``--workers`` shards the database
  across processes, ``--batch-wait`` routes through the query batcher,
  ``--remote host:port`` queries a running ``serve`` instance instead of
  building a local service);
* ``serve``     — expose a similarity service on a TCP port
  (:class:`repro.api.SimilarityServer`); composes with ``--workers`` and
  ``--batch-wait`` exactly like ``knn``;
* ``serve-http`` — the HTTP/JSON edge
  (:class:`repro.api.SimilarityGateway`): ``/knn``, ``/pairwise``,
  ``/add``, ``/stats``, ``/healthz`` and a Prometheus ``/metrics``
  endpoint over any service stack (``--workers`` shards locally,
  ``--remote host:port`` fronts a running ``serve``/``cluster``
  instance), with per-client rate limiting (``--rate-limit``), bounded
  admission (``--max-inflight``) and ``X-Deadline-Ms`` deadlines;
* ``cluster-worker`` — boot one multi-machine shard worker
  (:class:`repro.api.ShardWorker`) waiting for a coordinator to join;
* ``cluster``   — front a set of running cluster workers with a
  :class:`repro.api.ClusterCoordinator` behind a TCP server: the
  multi-machine analogue of ``serve --workers N``;
* ``serve-bench`` — serving-throughput sweep (queries/sec in-process by
  worker count and batching, plus remote, asyncio and cluster serving)
  merged scenario-by-scenario into a JSON record.

Every similarity method is resolved by name through :mod:`repro.api`;
``evaluate`` and ``knn`` accept ``--backend`` with any name from
``python -m repro backends``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

#: version of the ``.npz`` trajectory container written by
#: :func:`save_trajectories`. Files written before versioning carry no
#: ``format_version`` field and are read as version 1 (same layout).
TRAJECTORY_FORMAT_VERSION = 1


def _load_trajectories(path: str) -> List[np.ndarray]:
    """Read trajectories from an ``.npz`` written by ``save_trajectories``."""
    with np.load(path) as archive:
        if "format_version" in archive.files:
            version = int(archive["format_version"])
            if version != TRAJECTORY_FORMAT_VERSION:
                raise ValueError(
                    f"{path!r} uses trajectory format version {version}, but "
                    f"this build reads version {TRAJECTORY_FORMAT_VERSION}; "
                    "re-export the dataset with save_trajectories"
                )
        if "count" not in archive.files:
            raise ValueError(
                f"{path!r} is not a trajectory dataset (no 'count' field)"
            )
        count = int(archive["count"])
        return [archive[f"traj_{i}"] for i in range(count)]


def load_trajectories(path: str) -> List[np.ndarray]:
    """Public alias of the versioned trajectory reader."""
    return _load_trajectories(path)


def save_trajectories(path: str, trajectories: Sequence[np.ndarray]) -> None:
    """Write trajectories to ``.npz`` (one array per trajectory, versioned)."""
    payload = {
        "format_version": np.array(TRAJECTORY_FORMAT_VERSION),
        "count": np.array(len(trajectories)),
    }
    for i, trajectory in enumerate(trajectories):
        payload[f"traj_{i}"] = np.asarray(trajectory, dtype=np.float64)
    np.savez_compressed(path, **payload)


def _resolve_backend(name: str, args, trajectories: List[np.ndarray]):
    """Build the named backend from the CLI's inputs.

    ``trajcl`` loads ``--checkpoint``; heuristics need nothing; the learned
    baselines are trained on the loaded dataset (``--train-epochs``).
    """
    from .api import backend_spec, get_backend

    try:
        spec = backend_spec(name)
    except KeyError as error:
        raise SystemExit(str(error).strip('"')) from None
    if name == "trajcl":
        if not getattr(args, "checkpoint", None):
            raise SystemExit("backend 'trajcl' needs --checkpoint")
        return get_backend(
            "trajcl", checkpoint=args.checkpoint,
            fast_encode=getattr(args, "fast_encode", True),
            encode_dtype=getattr(args, "encode_dtype", "float64"),
        )
    if spec.kind == "distance":
        return get_backend(name)
    return get_backend(
        name,
        trajectories=trajectories,
        epochs=getattr(args, "train_epochs", 1),
        seed=args.seed,
    )


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------
def cmd_generate(args) -> int:
    from .datasets import generate_city, get_preset

    trajectories = generate_city(get_preset(args.city), args.count, seed=args.seed)
    save_trajectories(args.output, trajectories)
    lengths = [len(t) for t in trajectories]
    print(f"wrote {len(trajectories)} {args.city} trajectories to {args.output} "
          f"(points/traj: mean {np.mean(lengths):.0f}, "
          f"min {min(lengths)}, max {max(lengths)})")
    return 0


def cmd_train(args) -> int:
    from .core import save_pipeline
    from .eval import build_city_pipeline

    start = time.perf_counter()
    pipeline = build_city_pipeline(
        args.city, n_trajectories=args.count, train_epochs=args.epochs,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - start
    save_pipeline(args.output, pipeline.model)
    losses = ", ".join(f"{loss:.3f}" for loss in pipeline.history.losses)
    print(f"trained on {args.count} {args.city} trajectories in {elapsed:.1f}s "
          f"(epoch losses: {losses})")
    print(f"checkpoint written to {args.output}")
    return 0


def cmd_encode(args) -> int:
    from .core import load_pipeline

    model = load_pipeline(args.checkpoint)
    model.encode_fast = getattr(args, "fast_encode", True)
    model.encode_dtype = getattr(args, "encode_dtype", "float64")
    trajectories = _load_trajectories(args.data)
    start = time.perf_counter()
    embeddings = model.encode(trajectories)
    elapsed = time.perf_counter() - start
    np.save(args.output, embeddings)
    print(f"encoded {len(trajectories)} trajectories -> {embeddings.shape} "
          f"in {elapsed:.2f}s; saved to {args.output}")
    return 0


def cmd_backends(args) -> int:
    from .api import available_backends, backend_spec
    from .eval import format_table

    rows = []
    for name in available_backends():
        spec = backend_spec(name)
        rows.append([name, spec.kind, spec.description])
    print(format_table(["backend", "kind", "description"], rows))
    return 0


def cmd_evaluate(args) -> int:
    from .api import available_backends, backend_spec
    from .eval import evaluate_mean_rank, format_table, make_instance

    trajectories = _load_trajectories(args.data)
    names = list(args.backend) if args.backend else ["trajcl"]
    if args.heuristics:
        names += [
            name for name in available_backends()
            if backend_spec(name).kind == "distance" and name not in names
        ]
    # Resolve every backend up front so a missing checkpoint or unknown
    # name fails before the (potentially slow) instance construction.
    resolved = [(name, _resolve_backend(name, args, trajectories))
                for name in names]
    instance = make_instance(
        trajectories, n_queries=args.queries, database_size=args.database,
        seed=args.seed,
    )
    rows = []
    for name, backend in resolved:
        label = "TrajCL" if name == "trajcl" else name
        rows.append([label, evaluate_mean_rank(backend, instance)])
    print(format_table(["method", "mean rank"], rows))
    return 0


#: --index choices shared by knn/serve/serve-http/cluster/serve-bench.
_INDEX_CHOICES = ["auto", "bruteforce", "ivf", "pq", "int8", "hnsw", "segment"]

#: per-index kwargs builders (a dict, not an if/elif chain, so adding an
#: index stays a registry-style one-liner). The adapters clamp their own
#: knobs (n_lists, coarse_lists, codebook size) to the database.
_INDEX_KWARG_BUILDERS = {
    "ivf": lambda args: {"n_lists": args.lists,
                         "n_probe": max(1, args.lists // 4),
                         "seed": args.seed},
    "pq": lambda args: {"n_subspaces": args.pq_subspaces,
                        "n_centroids": args.pq_centroids,
                        "coarse_lists": args.lists if args.pq_coarse else 0,
                        "n_probe": max(1, args.lists // 4),
                        "refine_factor": args.pq_refine or 4,
                        "refine_dtype": "float16" if args.pq_refine else None,
                        "seed": args.seed},
    "hnsw": lambda args: {"m": args.hnsw_m,
                          "ef_construction": args.ef_construction,
                          "ef_search": args.ef_search,
                          "seed": args.seed},
}


def _index_from_args(args):
    """``(index, index_kwargs)`` shared by the ``knn`` and ``serve`` paths."""
    name = getattr(args, "index", "auto")
    if name == "auto":
        # service default: bruteforce / segment / pairwise scan
        return None, {}
    build = _INDEX_KWARG_BUILDERS.get(name)
    return name, (build(args) if build else {})


def _add_index_args(p) -> None:
    """``--index`` + knob flags, shared by every index-building command."""
    p.add_argument("--index", default="auto", choices=_INDEX_CHOICES,
                   help="kNN index (auto: exact default for the backend; "
                        "pq/int8/hnsw are compressed/approximate)")
    p.add_argument("--lists", type=int, default=16,
                   help="coarse lists for ivf (and pq with --pq-coarse)")
    p.add_argument("--pq-subspaces", type=int, default=16,
                   help="pq: codebooks, i.e. bytes per stored vector")
    p.add_argument("--pq-centroids", type=int, default=256,
                   help="pq: centroids per codebook (<= 256)")
    p.add_argument("--pq-coarse", action="store_true",
                   help="pq: IVF-PQ residual variant over --lists cells")
    p.add_argument("--pq-refine", type=int, default=0, metavar="FACTOR",
                   help="pq: re-rank FACTOR*k ADC candidates against a "
                        "retained float16 tail (0: off)")
    p.add_argument("--hnsw-m", type=int, default=16,
                   help="hnsw: neighbours per node per layer")
    p.add_argument("--ef-construction", type=int, default=64,
                   help="hnsw: beam width while inserting")
    p.add_argument("--ef-search", type=int, default=32,
                   help="hnsw: beam width while querying")


def _print_neighbours(header: str, unit: str, distances, neighbors) -> None:
    print(header)
    shown = 0
    for distance, neighbor in zip(distances[0], neighbors[0]):
        if neighbor < 0:
            break  # database smaller than k
        shown += 1
        print(f"  #{shown}: trajectory {neighbor} ({unit} {distance:.3f})")


def cmd_knn(args) -> int:
    from .api import QueryQueue, ShardedSimilarityService, SimilarityService

    database = _load_trajectories(args.data)
    if getattr(args, "remote", None):
        return _knn_remote(args, database)
    backend = _resolve_backend(args.backend, args, database)
    index, index_kwargs = _index_from_args(args)

    if args.workers > 1:
        service = ShardedSimilarityService(
            backend=backend, index=index, num_workers=args.workers,
            index_kwargs=index_kwargs,
        )
        index_label = service.index_name or "scan"
    else:
        service = SimilarityService(backend=backend, index=index,
                                    index_kwargs=index_kwargs)
        # ``is not None``: an Index defines __len__, so an empty one is falsy.
        index_label = service.index.name if service.index is not None else "scan"
    try:
        service.add(database)

        # The query is a database member: exclude its own id so the result
        # is k true neighbours (not k-1, and never the query itself).
        if args.batch_wait > 0:
            with QueryQueue(service, max_wait=args.batch_wait) as queue:
                row_d, row_i = queue.knn(
                    database[args.query], k=args.k, exclude=args.query,
                )
            distances, neighbors = row_d[None, :], row_i[None, :]
        else:
            distances, neighbors = service.knn(
                database[args.query], k=args.k, exclude=args.query,
            )
    finally:
        if args.workers > 1:
            service.close()
    unit = "L1 distance" if backend.kind == "embedding" else f"{backend.name} distance"
    workers_label = f", workers {args.workers}" if args.workers > 1 else ""
    _print_neighbours(
        f"{args.k}NN of trajectory {args.query} "
        f"(backend {backend.name}, index {index_label}{workers_label}):",
        unit, distances, neighbors,
    )
    return 0


def _knn_remote(args, database) -> int:
    """``knn --remote host:port``: query a running ``serve`` instance."""
    from .api import RemoteSimilarityClient

    with RemoteSimilarityClient(args.remote) as client:
        distances, neighbors = client.knn(
            database[args.query], k=args.k, exclude=args.query,
        )
        stats = client.stats()
    # A server over a QueryQueue reports the queue's counters with the
    # wrapped service's metadata nested under "service".
    service_info = stats.get("service", stats)
    backend_name = service_info.get("backend", "?")
    index_label = service_info.get("index", "?")
    unit = ("L1 distance" if service_info.get("kind") == "embedding"
            else f"{backend_name} distance")
    _print_neighbours(
        f"{args.k}NN of trajectory {args.query} "
        f"(backend {backend_name}, index {index_label}, "
        f"remote {args.remote}):",
        unit, distances, neighbors,
    )
    return 0


def cmd_serve(args) -> int:
    """Expose a similarity service over TCP (``repro serve``)."""
    from .api import (
        QueryQueue, ShardedSimilarityService, SimilarityServer,
        SimilarityService,
    )
    from .api.remote import install_signal_shutdown

    database = _load_trajectories(args.data)
    backend = _resolve_backend(args.backend, args, database)
    index, index_kwargs = _index_from_args(args)
    if args.workers > 1:
        service = ShardedSimilarityService(
            backend=backend, index=index, num_workers=args.workers,
            index_kwargs=index_kwargs,
        )
    else:
        service = SimilarityService(backend=backend, index=index,
                                    index_kwargs=index_kwargs)
    queue = None
    server = None
    try:
        service.add(database)
        stack = service
        if args.batch_wait > 0:
            queue = QueryQueue(service, max_batch=args.max_batch,
                               max_wait=args.batch_wait)
            stack = queue
        server = SimilarityServer(stack, host=args.host, port=args.port,
                                  max_requests=args.max_requests)
        # SIGTERM runs the same graceful shutdown as Ctrl-C, so launcher
        # teardown (smoke scripts, process managers) is deterministic.
        install_signal_shutdown(server.shutdown)
        host, port = server.address
        print(f"serving backend {backend.name} "
              f"({len(database)} trajectories) on {host}:{port}",
              flush=True)
        if args.ready_file:
            # Written only after the port is bound: a launcher (tests,
            # `make serve-smoke`) polls this file instead of racing accept.
            with open(args.ready_file, "w") as handle:
                handle.write(f"{host}:{port}\n")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
    finally:
        if server is not None:
            server.close()
        if queue is not None:
            queue.close()
        if args.workers > 1:
            service.close()
    return 0


def cmd_serve_http(args) -> int:
    """Expose a similarity service over HTTP/JSON (``repro serve-http``)."""
    from .api import (
        QueryQueue, RemoteSimilarityClient, ShardedSimilarityService,
        SimilarityService,
    )
    from .api.gateway import SimilarityGateway
    from .api.remote import install_signal_shutdown

    service = None
    client = None
    queue = None
    gateway = None
    try:
        if getattr(args, "remote", None):
            # Front a running `serve` or `cluster` instance: the gateway
            # translates HTTP/JSON onto the binary frame wire protocol.
            base = client = RemoteSimilarityClient(args.remote)
            label = f"remote service {args.remote} ({len(client)} trajectories)"
        else:
            if not args.data:
                raise SystemExit(
                    "serve-http needs --data (or --remote HOST:PORT)")
            database = _load_trajectories(args.data)
            backend = _resolve_backend(args.backend, args, database)
            index, index_kwargs = _index_from_args(args)
            if args.workers > 1:
                service = ShardedSimilarityService(
                    backend=backend, index=index, num_workers=args.workers,
                    index_kwargs=index_kwargs,
                )
            else:
                service = SimilarityService(backend=backend, index=index,
                                            index_kwargs=index_kwargs)
            service.add(database)
            base = service
            workers_label = (f", {args.workers} workers"
                             if args.workers > 1 else "")
            label = (f"backend {backend.name} ({len(database)} "
                     f"trajectories{workers_label})")
        stack = base
        if args.batch_wait > 0:
            # The QueryQueue is what lets concurrent HTTP callers batch
            # and request deadlines drop expired work server-side.
            queue = QueryQueue(base, max_batch=args.max_batch,
                               max_wait=args.batch_wait,
                               max_pending=args.max_pending)
            stack = queue
        gateway = SimilarityGateway(
            stack, host=args.host, port=args.port,
            rate_limit=args.rate_limit, burst=args.burst,
            max_inflight=args.max_inflight, max_body=args.max_body,
            max_requests=args.max_requests,
        )
        install_signal_shutdown(gateway.shutdown)
        host, port = gateway.address
        print(f"http gateway: {label} on http://{host}:{port}", flush=True)
        if args.ready_file:
            # Written only after the port is bound: a launcher (tests,
            # `make http-smoke`) polls this file instead of racing accept.
            with open(args.ready_file, "w") as handle:
                handle.write(f"{host}:{port}\n")
        try:
            gateway.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
    finally:
        if gateway is not None:
            gateway.close()
        if queue is not None:
            queue.close()
        if service is not None and args.workers > 1:
            service.close()
        if client is not None:
            client.close()
    return 0


def cmd_cluster_worker(args) -> int:
    """Boot one cluster shard worker (``repro cluster-worker``)."""
    from .api.cluster import run_worker

    return run_worker(args.host, args.port, args.ready_file)


def cmd_cluster(args) -> int:
    """Front a worker cluster with a TCP server (``repro cluster``)."""
    from .api import QueryQueue, SimilarityServer
    from .api.cluster import ClusterCoordinator
    from .api.remote import install_signal_shutdown

    database = _load_trajectories(args.data)
    backend = _resolve_backend(args.backend, args, database)
    index, index_kwargs = _index_from_args(args)
    workers = [w.strip() for w in args.workers.split(",") if w.strip()]
    cluster = ClusterCoordinator(
        workers, backend=backend, index=index, index_kwargs=index_kwargs,
        replication=args.replication,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        connect_retries=args.connect_retries, retry_wait=args.retry_wait,
        shutdown_workers_on_close=args.shutdown_workers,
        chaos=args.chaos,
    )
    queue = None
    server = None
    try:
        cluster.add(database)
        stack = cluster
        if args.batch_wait > 0:
            queue = QueryQueue(cluster, max_batch=args.max_batch,
                               max_wait=args.batch_wait)
            stack = queue
        server = SimilarityServer(stack, host=args.host, port=args.port,
                                  max_requests=args.max_requests)
        install_signal_shutdown(server.shutdown)
        host, port = server.address
        chaos_note = f", chaos '{args.chaos}'" if args.chaos else ""
        print(f"cluster front-end: backend {backend.name}, "
              f"{len(database)} trajectories over {len(workers)} "
              f"worker(s) (replication={args.replication}{chaos_note}), "
              f"serving on {host}:{port}", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as handle:
                handle.write(f"{host}:{port}\n")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
    finally:
        if server is not None:
            server.close()
        if queue is not None:
            queue.close()
        cluster.close()
    return 0


def _latency_summary(samples_seconds) -> dict:
    """p50/p95/p99 (+mean) latency percentiles in milliseconds."""
    arr = np.asarray(samples_seconds, dtype=float) * 1000.0
    if arr.size == 0:
        return {"p50": None, "p95": None, "p99": None, "mean": None}
    return {
        "p50": round(float(np.percentile(arr, 50)), 3),
        "p95": round(float(np.percentile(arr, 95)), 3),
        "p99": round(float(np.percentile(arr, 99)), 3),
        "mean": round(float(arr.mean()), 3),
    }


def _bench_in_process(args, backend, database, queries) -> dict:
    """queries/sec by worker count, direct vs through the QueryQueue."""
    from .api import QueryQueue, ShardedSimilarityService, SimilarityService

    index, index_kwargs = _index_from_args(args)
    worker_counts = [int(w) for w in args.workers.split(",")]
    results = []
    for workers in worker_counts:
        if workers > 1:
            service = ShardedSimilarityService(backend=backend,
                                               index=index,
                                               index_kwargs=index_kwargs,
                                               num_workers=workers)
        else:
            service = SimilarityService(backend=backend, index=index,
                                        index_kwargs=index_kwargs)
        try:
            service.add(database)
            service.knn(queries, k=args.k)  # warm caches in every process

            latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                for query in queries:
                    t0 = time.perf_counter()
                    service.knn(query, k=args.k)
                    latencies.append(time.perf_counter() - t0)
            unbatched = args.repeats * len(queries) / (
                time.perf_counter() - start)

            # Batched latency is submit-to-resolution: a done callback
            # stamps each future the moment the flush thread resolves it,
            # so queueing time counts but the result() polling loop does
            # not.
            batched_latencies = []

            def submit_timed(queue, query):
                t0 = time.perf_counter()
                future = queue.submit(query, k=args.k)
                future.add_done_callback(
                    lambda _f, t0=t0: batched_latencies.append(
                        time.perf_counter() - t0))
                return future

            with QueryQueue(service, max_batch=args.max_batch,
                            max_wait=args.batch_wait) as queue:
                start = time.perf_counter()
                for _ in range(args.repeats):
                    futures = [submit_timed(queue, query)
                               for query in queries]
                    for future in futures:
                        future.result()
                batched = args.repeats * len(queries) / (
                    time.perf_counter() - start)
                stats = queue.queue_stats
            results.append({
                "workers": workers,
                "unbatched_qps": round(unbatched, 2),
                "batched_qps": round(batched, 2),
                "batches": stats.batches,
                "largest_batch": stats.largest_batch,
                "latency_ms": _latency_summary(latencies),
                "batched_latency_ms": _latency_summary(batched_latencies),
            })
        finally:
            if workers > 1:
                service.close()
    return {"results": results}


def _bench_remote(args, backend, database, queries) -> dict:
    """queries/sec over TCP: per-call round-trips and one batched call."""
    from .api import RemoteSimilarityClient, SimilarityServer, SimilarityService

    index, index_kwargs = _index_from_args(args)
    service = SimilarityService(backend=backend, index=index,
                                index_kwargs=index_kwargs).add(database)
    service.knn(queries, k=args.k)  # warm the cache like the other modes
    with SimilarityServer(service) as server:
        with RemoteSimilarityClient(*server.address) as client:
            client.knn(queries[0], k=args.k)  # connection warm-up
            latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                for query in queries:
                    t0 = time.perf_counter()
                    client.knn(query, k=args.k)
                    latencies.append(time.perf_counter() - t0)
            per_call = args.repeats * len(queries) / (
                time.perf_counter() - start)

            batch_latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                client.knn(queries, k=args.k)
                batch_latencies.append(time.perf_counter() - t0)
            batched = args.repeats * len(queries) / (
                time.perf_counter() - start)
    return {"results": {"qps": round(per_call, 2),
                        "batched_qps": round(batched, 2),
                        "latency_ms": _latency_summary(latencies),
                        "batch_latency_ms": _latency_summary(batch_latencies)}}


def _bench_async(args, backend, database, queries) -> dict:
    """queries/sec from concurrent asyncio clients against one server."""
    import asyncio

    from .api import AsyncSimilarityClient, SimilarityServer, SimilarityService

    index, index_kwargs = _index_from_args(args)
    service = SimilarityService(backend=backend, index=index,
                                index_kwargs=index_kwargs).add(database)
    service.knn(queries, k=args.k)
    connections = max(1, args.connections)

    latencies = []

    async def timed_knn(client, query):
        t0 = time.perf_counter()
        await client.knn(query, k=args.k)
        latencies.append(time.perf_counter() - t0)

    async def run(address):
        clients = [await AsyncSimilarityClient.connect(address)
                   for _ in range(connections)]
        await clients[0].knn(queries[0], k=args.k)  # warm-up round-trip
        start = time.perf_counter()
        for _ in range(args.repeats):
            await asyncio.gather(*(
                timed_knn(clients[i % connections], query)
                for i, query in enumerate(queries)
            ))
        elapsed = time.perf_counter() - start
        for client in clients:
            await client.close()
        return args.repeats * len(queries) / elapsed

    with SimilarityServer(service) as server:
        qps = asyncio.run(run(server.address))
    return {"results": {"qps": round(qps, 2), "connections": connections,
                        "latency_ms": _latency_summary(latencies)}}


def _bench_cluster(args, backend, database, queries) -> dict:
    """queries/sec through a coordinator over real localhost shard workers."""
    from .api.cluster import ClusterCoordinator, ShardWorker

    index, index_kwargs = _index_from_args(args)
    workers = [ShardWorker() for _ in range(max(1, args.cluster_workers))]
    try:
        with ClusterCoordinator([w.address for w in workers],
                                backend=backend,
                                index=index, index_kwargs=index_kwargs,
                                heartbeat_interval=0) as cluster:
            cluster.add(database)
            cluster.knn(queries, k=args.k)  # warm every shard

            latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                for query in queries:
                    t0 = time.perf_counter()
                    cluster.knn(query, k=args.k)
                    latencies.append(time.perf_counter() - t0)
            per_call = args.repeats * len(queries) / (
                time.perf_counter() - start)

            batch_latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                cluster.knn(queries, k=args.k)
                batch_latencies.append(time.perf_counter() - t0)
            batched = args.repeats * len(queries) / (
                time.perf_counter() - start)
    finally:
        for worker in workers:
            worker.close()
    return {"results": {"qps": round(per_call, 2),
                        "batched_qps": round(batched, 2),
                        "workers": len(workers),
                        "latency_ms": _latency_summary(latencies),
                        "batch_latency_ms": _latency_summary(batch_latencies)}}


def _bench_http(args, backend, database, queries) -> dict:
    """queries/sec through the HTTP/JSON gateway (sequential + concurrent)."""
    import json
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    from .api import QueryQueue, SimilarityService
    from .api.gateway import SimilarityGateway

    index, index_kwargs = _index_from_args(args)
    service = SimilarityService(backend=backend, index=index,
                                index_kwargs=index_kwargs).add(database)
    service.knn(queries, k=args.k)  # warm the cache like the other modes
    bodies = [json.dumps({"queries": [np.asarray(query).tolist()],
                          "k": args.k}).encode() for query in queries]
    connections = max(1, args.connections)

    with QueryQueue(service, max_batch=args.max_batch,
                    max_wait=args.batch_wait) as queue:
        with SimilarityGateway(queue) as gateway:
            url = gateway.url + "/knn"

            def post(body):
                request = urllib.request.Request(
                    url, data=body,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=60) as response:
                    response.read()

            post(bodies[0])  # connection + JSON-path warm-up
            latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                for body in bodies:
                    t0 = time.perf_counter()
                    post(body)
                    latencies.append(time.perf_counter() - t0)
            per_call = args.repeats * len(bodies) / (
                time.perf_counter() - start)

            with ThreadPoolExecutor(max_workers=connections) as pool:
                start = time.perf_counter()
                for _ in range(args.repeats):
                    list(pool.map(post, bodies))
                concurrent = args.repeats * len(bodies) / (
                    time.perf_counter() - start)
    return {"results": {"qps": round(per_call, 2),
                        "concurrent_qps": round(concurrent, 2),
                        "connections": connections,
                        "latency_ms": _latency_summary(latencies)}}


def _bench_large_db(args, backend, database, queries) -> dict:
    """Sharding at the DB size it exists for: --db-size trajectories.

    The small --count database keeps the other scenarios fast, but at
    that scale the per-query RPC overhead of sharding swamps the scan it
    parallelizes. This scenario builds a --db-size database (default
    50k), where the per-shard scan dominates, and sweeps 1 process vs 2
    sharded workers on unbatched kNN — the sharded row also records the
    merged transport counters so the bytes-on-the-wire effect of the
    wire format is visible next to the q/s it buys.

    The self-contained trajcl path trains its own model at
    --large-db-dim (default 64, near the paper's d=128) instead of the
    dim-16 toy the quick scenarios share: at serving-realistic widths
    the scan is memory-bound, so a --db-size embedding matrix blows the
    cache in one process while the half-size shards stay resident —
    the regime sharding exists for.
    """
    from .api import ShardedSimilarityService, SimilarityService, get_backend
    from .datasets import generate_city, get_preset

    if backend.name == "trajcl" and not getattr(args, "checkpoint", None):
        backend = get_backend("trajcl", trajectories=database,
                              dim=args.large_db_dim, max_len=32,
                              epochs=args.train_epochs, seed=args.seed)
    big = generate_city(get_preset(args.city), args.db_size,
                        seed=args.seed + 1)
    big_queries = big[:min(args.queries, len(big))]
    index, index_kwargs = _index_from_args(args)
    results = []
    for workers in (1, 2):
        if workers > 1:
            service = ShardedSimilarityService(backend=backend,
                                               index=index,
                                               index_kwargs=index_kwargs,
                                               num_workers=workers)
        else:
            service = SimilarityService(backend=backend, index=index,
                                        index_kwargs=index_kwargs)
        try:
            service.add(big)
            service.knn(big_queries, k=args.k)  # warm caches everywhere
            latencies = []
            start = time.perf_counter()
            for _ in range(args.repeats):
                for query in big_queries:
                    t0 = time.perf_counter()
                    service.knn(query, k=args.k)
                    latencies.append(time.perf_counter() - t0)
            qps = args.repeats * len(big_queries) / (
                time.perf_counter() - start)
            row = {"workers": workers, "unbatched_qps": round(qps, 2),
                   "latency_ms": _latency_summary(latencies)}
            if workers > 1:
                row["transport"] = service.stats().get("transport")
            results.append(row)
        finally:
            if workers > 1:
                service.close()
    # encode() returns the encoder output (structural_dim wide); the
    # contrastive projection head only exists at training time.
    config = getattr(getattr(backend, "model", None), "config", None)
    return {"results": results, "db_size": len(big),
            "embedding_dim": getattr(config, "structural_dim", None)}


def merge_bench_scenarios(existing: Optional[dict], scenarios: dict,
                          config: dict) -> dict:
    """Merge a serve-bench run into a prior record, keyed by scenario.

    Scenarios not re-run this time survive untouched, so the perf
    trajectory across PRs accumulates instead of resetting. A pre-scenario
    record (the original flat ``serve-bench`` payload) is migrated to an
    ``in_process`` scenario first rather than dropped.
    """
    merged = dict(existing or {})
    if "scenarios" not in merged:
        legacy = {key: value for key, value in merged.items()}
        merged = {"scenarios": {}}
        if legacy:
            merged["scenarios"]["in_process"] = {
                "results": legacy.pop("results", []),
                "config": legacy,
            }
    for name, payload in scenarios.items():
        merged["scenarios"][name] = {**payload, "config": config}
    return merged


def cmd_serve_bench(args) -> int:
    """Serving-throughput benchmark across serving modes (scenarios)."""
    import json
    import os

    from .api import get_backend
    from .eval import format_table

    if args.data:
        database = _load_trajectories(args.data)
    else:
        from .datasets import generate_city, get_preset

        database = generate_city(get_preset(args.city), args.count,
                                 seed=args.seed)
    if args.backend == "trajcl" and not getattr(args, "checkpoint", None):
        # Self-contained path: a small model trained on the database keeps
        # `make serve-bench` runnable without any prior artifacts.
        backend = get_backend("trajcl", trajectories=database, dim=16,
                              max_len=32, epochs=args.train_epochs,
                              seed=args.seed)
    else:
        backend = _resolve_backend(args.backend, args, database)
    queries = database[:min(args.queries, len(database))]

    runners = {"in_process": _bench_in_process, "remote": _bench_remote,
               "async": _bench_async, "cluster": _bench_cluster,
               "http": _bench_http, "large_db": _bench_large_db}
    names = [name.strip() for name in args.scenarios.split(",") if name.strip()]
    unknown = [name for name in names if name not in runners]
    if unknown:
        raise SystemExit(f"unknown scenario(s) {unknown}; "
                         f"choose from {sorted(runners)}")

    bench_index, bench_index_kwargs = _index_from_args(args)
    config = {
        "backend": backend.name,
        "database_size": len(database),
        "queries": len(queries),
        "k": args.k,
        "repeats": args.repeats,
        "max_batch": args.max_batch,
        "batch_wait": args.batch_wait,
        "index": bench_index or "auto",
    }
    if bench_index_kwargs:
        config["index_kwargs"] = bench_index_kwargs
    if "large_db" in names:
        config["db_size"] = args.db_size
        config["large_db_dim"] = args.large_db_dim
    # The effective config, printed up front: past records drifted from
    # the prose quoting them because the run's parameters were invisible.
    print("config: " + " ".join(f"{key}={value}"
                                for key, value in config.items())
          + f" workers={args.workers} scenarios={','.join(names)}")

    scenarios = {name: runners[name](args, backend, database, queries)
                 for name in names}
    if args.output:
        existing = None
        if os.path.exists(args.output):
            try:
                with open(args.output) as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                existing = None
        merged = merge_bench_scenarios(existing, scenarios, config)
        with open(args.output, "w") as handle:
            json.dump(merged, handle, indent=2)

    if "in_process" in scenarios:
        rows = scenarios["in_process"]["results"]
        print(format_table(
            ["workers", "unbatched q/s", "batched q/s", "batches", "largest"],
            [[r["workers"], r["unbatched_qps"], r["batched_qps"],
              r["batches"], r["largest_batch"]] for r in rows],
        ))
    if "remote" in scenarios:
        remote = scenarios["remote"]["results"]
        print(f"remote: {remote['qps']} q/s per-call, "
              f"{remote['batched_qps']} q/s batched")
    if "async" in scenarios:
        result = scenarios["async"]["results"]
        print(f"async: {result['qps']} q/s "
              f"over {result['connections']} connections")
    if "cluster" in scenarios:
        result = scenarios["cluster"]["results"]
        print(f"cluster: {result['qps']} q/s per-call, "
              f"{result['batched_qps']} q/s batched "
              f"over {result['workers']} workers")
    if "http" in scenarios:
        result = scenarios["http"]["results"]
        latency = result["latency_ms"]
        print(f"http: {result['qps']} q/s sequential, "
              f"{result['concurrent_qps']} q/s over "
              f"{result['connections']} connections "
              f"(p50 {latency['p50']} ms, p99 {latency['p99']} ms)")
    if "large_db" in scenarios:
        record = scenarios["large_db"]
        for row in record["results"]:
            label = ("single process" if row["workers"] == 1
                     else f"{row['workers']} sharded workers")
            print(f"large_db ({record['db_size']} trajectories, "
                  f"dim {record.get('embedding_dim')}): {label} "
                  f"{row['unbatched_qps']} q/s unbatched")
    if args.output:
        print(f"written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_encode_args(p: argparse.ArgumentParser) -> None:
    """Inference-engine knobs shared by encode/evaluate/knn/serve."""
    p.add_argument("--no-fast-encode", dest="fast_encode",
                   action="store_false", default=True,
                   help="disable the fused numpy inference engine and use "
                        "the reference Tensor-graph encoder")
    p.add_argument("--encode-dtype", choices=["float32", "float64"],
                   default="float64",
                   help="compute dtype of the fast encode path (float32: "
                        "~2x throughput, ~1e-5 relative parity)")


def cmd_lint(args) -> int:
    from .analysis.lint_cli import cmd_lint as run_lint
    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TrajCL reproduction CLI (ICDE 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic city dataset")
    p.add_argument("--city", default="porto",
                   choices=["porto", "chengdu", "xian", "germany"])
    p.add_argument("--count", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="output .npz path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="pre-train TrajCL and save a checkpoint")
    p.add_argument("--city", default="porto",
                   choices=["porto", "chengdu", "xian", "germany"])
    p.add_argument("--count", type=int, default=300)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="checkpoint .npz path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="embed trajectories with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="trajectories .npz")
    p.add_argument("--output", required=True, help="embeddings .npy path")
    _add_encode_args(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("backends",
                       help="list the registered similarity backends")
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser("evaluate", help="mean-rank evaluation (paper §V-B)")
    p.add_argument("--checkpoint", help="TrajCL checkpoint "
                   "(required for --backend trajcl)")
    p.add_argument("--data", required=True)
    p.add_argument("--backend", action="append",
                   help="backend name (repeatable; default: trajcl)")
    p.add_argument("--queries", type=int, default=15)
    p.add_argument("--database", type=int, default=100)
    p.add_argument("--heuristics", action="store_true",
                   help="also evaluate Hausdorff/Frechet/EDR/EDwP")
    p.add_argument("--train-epochs", type=int, default=1,
                   help="training epochs for learned non-trajcl backends")
    p.add_argument("--seed", type=int, default=0)
    _add_encode_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("knn",
                       help="kNN query via the similarity service")
    p.add_argument("--checkpoint", help="TrajCL checkpoint "
                   "(required for --backend trajcl)")
    p.add_argument("--data", required=True)
    p.add_argument("--backend", default="trajcl",
                   help="backend name (see 'backends'; default: trajcl)")
    _add_index_args(p)
    p.add_argument("--query", type=int, default=0,
                   help="index of the query trajectory within --data")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--train-epochs", type=int, default=1,
                   help="training epochs for learned non-trajcl backends")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the database across this many worker "
                        "processes (1: single-process service)")
    p.add_argument("--batch-wait", type=float, default=0.0,
                   help="route the query through a batching QueryQueue "
                        "with this coalescing window in seconds (0: direct)")
    p.add_argument("--remote", metavar="HOST:PORT",
                   help="query a running `repro serve` instance instead of "
                        "building a local service (--data still supplies "
                        "the query trajectory)")
    p.add_argument("--seed", type=int, default=0)
    _add_encode_args(p)
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("serve",
                       help="serve kNN/pairwise queries over TCP")
    p.add_argument("--checkpoint", help="TrajCL checkpoint "
                   "(required for --backend trajcl)")
    p.add_argument("--data", required=True,
                   help="trajectories .npz served as the database")
    p.add_argument("--backend", default="trajcl",
                   help="backend name (see 'backends'; default: trajcl)")
    _add_index_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0: pick an ephemeral port and print it)")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the database across this many worker "
                        "processes (1: single-process service)")
    p.add_argument("--batch-wait", type=float, default=0.0,
                   help="coalesce concurrent remote queries through a "
                        "QueryQueue with this window in seconds (0: direct)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="QueryQueue flush size when --batch-wait > 0")
    p.add_argument("--max-requests", type=int, default=None,
                   help="shut down after serving this many requests "
                        "(smoke tests; default: serve until interrupted)")
    p.add_argument("--ready-file",
                   help="write 'host:port' here once the server is "
                        "listening (for launchers that must not race)")
    p.add_argument("--train-epochs", type=int, default=1,
                   help="training epochs for learned non-trajcl backends")
    p.add_argument("--seed", type=int, default=0)
    _add_encode_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("serve-http",
                       help="serve kNN/pairwise queries over HTTP/JSON")
    p.add_argument("--checkpoint", help="TrajCL checkpoint "
                   "(required for --backend trajcl)")
    p.add_argument("--data",
                   help="trajectories .npz served as the database "
                        "(omit when fronting --remote)")
    p.add_argument("--backend", default="trajcl",
                   help="backend name (see 'backends'; default: trajcl)")
    _add_index_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="HTTP port (0: pick an ephemeral port and print it)")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the database across this many worker "
                        "processes (1: single-process service)")
    p.add_argument("--remote",
                   help="front an already-running serve/cluster instance at "
                        "HOST:PORT instead of building a local service")
    p.add_argument("--batch-wait", type=float, default=0.002,
                   help="coalesce concurrent HTTP queries through a "
                        "QueryQueue with this window in seconds (0: direct)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="QueryQueue flush size when --batch-wait > 0")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="QueryQueue admission bound; excess requests are "
                        "shed with HTTP 429")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="per-client token-bucket rate in requests/second "
                        "(default: unlimited)")
    p.add_argument("--burst", type=float, default=None,
                   help="token-bucket burst capacity (default: rate)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="concurrent requests admitted before shedding "
                        "with HTTP 429")
    p.add_argument("--max-body", type=int, default=8 << 20,
                   help="largest accepted request body in bytes")
    p.add_argument("--max-requests", type=int, default=None,
                   help="shut down after serving this many requests "
                        "(smoke tests; default: serve until interrupted)")
    p.add_argument("--ready-file",
                   help="write 'host:port' here once the gateway is "
                        "listening (for launchers that must not race)")
    p.add_argument("--train-epochs", type=int, default=1,
                   help="training epochs for learned non-trajcl backends")
    p.add_argument("--seed", type=int, default=0)
    _add_encode_args(p)
    p.set_defaults(func=cmd_serve_http)

    p = sub.add_parser("cluster-worker",
                       help="boot one multi-machine shard worker")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0: pick an ephemeral port and print it)")
    p.add_argument("--ready-file",
                   help="write 'host:port' here once the worker is "
                        "listening (for same-machine launchers; remote "
                        "coordinators rely on connect retries instead)")
    p.set_defaults(func=cmd_cluster_worker)

    p = sub.add_parser("cluster",
                       help="serve kNN over a cluster of shard workers")
    p.add_argument("--checkpoint", help="TrajCL checkpoint "
                   "(required for --backend trajcl)")
    p.add_argument("--data", required=True,
                   help="trajectories .npz served as the database")
    p.add_argument("--backend", default="trajcl",
                   help="backend name (see 'backends'; default: trajcl)")
    _add_index_args(p)
    p.add_argument("--workers", required=True, metavar="HOST:PORT,...",
                   help="comma-separated addresses of running "
                        "`cluster-worker` processes")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="front-end TCP port (0: ephemeral)")
    p.add_argument("--batch-wait", type=float, default=0.0,
                   help="coalesce concurrent remote queries through a "
                        "QueryQueue with this window in seconds (0: direct)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="QueryQueue flush size when --batch-wait > 0")
    p.add_argument("--max-requests", type=int, default=None,
                   help="shut down after serving this many requests "
                        "(smoke tests; default: serve until interrupted)")
    p.add_argument("--ready-file",
                   help="write the front-end's 'host:port' here once it "
                        "is listening")
    p.add_argument("--heartbeat-interval", type=float, default=2.0,
                   help="seconds between worker liveness pings "
                        "(0: disable heartbeats)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="seconds without a ping reply before a worker is "
                        "marked degraded and failed over")
    p.add_argument("--connect-retries", type=int, default=5,
                   help="bounded connect retries (with backoff) while the "
                        "workers boot")
    p.add_argument("--retry-wait", type=float, default=0.1,
                   help="initial backoff between connect retries")
    p.add_argument("--shutdown-workers", action="store_true",
                   help="tell the workers to exit when this front-end "
                        "shuts down")
    p.add_argument("--replication", type=int, default=1,
                   help="replicas per logical shard (N-way replication: a "
                        "worker death costs capacity, never data)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="deterministic fault injection on every worker "
                        "link, e.g. 'seed=7,drop=0.05,latency=0.1:20,"
                        "kill=100' (smoke/soak testing)")
    p.add_argument("--train-epochs", type=int, default=1,
                   help="training epochs for learned non-trajcl backends")
    p.add_argument("--seed", type=int, default=0)
    _add_encode_args(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("serve-bench",
                       help="serving throughput: q/s by workers and batching")
    p.add_argument("--data", help="trajectories .npz (default: generate "
                                  "a synthetic city)")
    p.add_argument("--city", default="porto",
                   choices=["porto", "chengdu", "xian", "germany"])
    p.add_argument("--count", type=int, default=200,
                   help="database size when generating")
    p.add_argument("--backend", default="trajcl",
                   help="backend name (trajcl trains a small model on the "
                        "database unless --checkpoint is given)")
    p.add_argument("--checkpoint", help="TrajCL checkpoint to serve")
    p.add_argument("--queries", type=int, default=32)
    p.add_argument("--k", type=int, default=10)
    # --index passes through to every service-building scenario, so e.g.
    # large_db can prove cluster+quantized composition on hnsw/pq.
    _add_index_args(p)
    p.add_argument("--workers", default="1,2,4",
                   help="comma-separated worker counts to sweep")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--batch-wait", type=float, default=0.005)
    p.add_argument("--scenarios", default="in_process,remote,async,cluster,http",
                   help="comma-separated subset of in_process/remote/async/"
                        "cluster/http/large_db; scenarios not re-run keep "
                        "their previous numbers in --output")
    p.add_argument("--large-db-dim", type=int, default=64,
                   help="embedding dim for the large_db scenario's "
                        "self-trained trajcl model (serving-realistic "
                        "widths make the scan memory-bound; the quick "
                        "scenarios share a fast dim-16 toy instead)")
    p.add_argument("--db-size", type=int, default=50000,
                   help="database size of the large_db scenario (the scale "
                        "where sharding must beat a single process)")
    p.add_argument("--connections", type=int, default=4,
                   help="concurrent connections in the async and http "
                        "scenarios")
    p.add_argument("--cluster-workers", type=int, default=2,
                   help="shard workers booted for the cluster scenario")
    p.add_argument("--train-epochs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="merge the result JSON here, keyed by "
                                    "scenario (e.g. benchmarks/results/"
                                    "BENCH_serving.json)")
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser("lint",
                       help="concurrency-aware static analysis over the "
                            "codebase (see repro.analysis)")
    from .analysis.lint_cli import add_lint_arguments
    add_lint_arguments(p)
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
