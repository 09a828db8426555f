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
  across processes, ``--remote host:port`` queries a running ``serve``
  instance instead of building a local service);
* ``serve``     — expose a similarity service on a TCP port
  (:class:`repro.api.SimilarityServer`); composes with ``--workers``
  exactly like ``knn``;
* ``serve-http`` — the HTTP/JSON edge
  (:class:`repro.api.SimilarityGateway`): ``/knn``, ``/pairwise``,
  ``/add``, ``/stats``, ``/healthz`` and a Prometheus ``/metrics``
  endpoint over any service stack (``--workers`` shards locally,
  ``--remote host:port`` fronts a running ``serve``/``cluster``
  instance) behind one :class:`repro.api.QueryQueue` (``--max-batch``;
  ``--max-pending`` bounds admission, ``/add`` included), with per-client
  rate limiting (``--rate-limit``) and ``X-Deadline-Ms`` deadlines;
* ``cluster-worker`` — boot one multi-machine shard worker
  (:class:`repro.api.ShardWorker`) waiting for a coordinator to join;
* ``cluster``   — front a set of running cluster workers with a
  :class:`repro.api.ClusterCoordinator` behind a TCP server: the
  multi-machine analogue of ``serve --workers N``.

Every similarity method is resolved by name through :mod:`repro.api`;
``evaluate`` and ``knn`` accept ``--backend`` with any name from
``python -m repro backends``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

#: version of the ``.npz`` trajectory container written by
#: :func:`save_trajectories`: ``format_version`` plus the two arrays of
#: :func:`repro.trajectory.pack_trajectories`.
TRAJECTORY_FORMAT_VERSION = 2


def load_trajectories(path: str) -> Sequence[np.ndarray]:
    """Read trajectories from an ``.npz`` written by ``save_trajectories``:
    one :class:`~repro.trajectory.Ragged` block over the file's arrays."""
    from .trajectory import unpack_trajectories

    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    if "format_version" not in arrays:
        raise ValueError(
            f"{path!r} is not a trajectory dataset (no 'format_version' field)"
        )
    version = int(arrays["format_version"])
    if version != TRAJECTORY_FORMAT_VERSION:
        raise ValueError(
            f"{path!r} uses trajectory format version {version}, but "
            f"this build reads version {TRAJECTORY_FORMAT_VERSION}; "
            "regenerate the dataset with this build"
        )
    return unpack_trajectories(arrays)


def save_trajectories(path: str, trajectories: Sequence[np.ndarray]) -> None:
    """Write trajectories to a versioned ``.npz`` of two arrays."""
    from .trajectory import pack_trajectories

    np.savez_compressed(
        path, format_version=np.array(TRAJECTORY_FORMAT_VERSION),
        **pack_trajectories(trajectories))


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
        if not args.checkpoint:
            raise SystemExit("backend 'trajcl' needs --checkpoint")
        return get_backend("trajcl", checkpoint=args.checkpoint)
    if spec.kind == "distance":
        return get_backend(name)
    return get_backend(name, trajectories=trajectories,
                       epochs=args.train_epochs, seed=args.seed)


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
    trajectories = load_trajectories(args.data)
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

    trajectories = load_trajectories(args.data)
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


#: per-index kwargs builders (a dict, not an if/elif chain, so adding an
#: index stays a registry-style one-liner). The adapters clamp their own
#: knobs (n_lists, codebook size) to the database.
_INDEX_KWARG_BUILDERS = {
    "ivf": lambda args: {"n_lists": args.lists,
                         "n_probe": max(1, args.lists // 4),
                         "seed": args.seed},
    "pq": lambda args: {"n_subspaces": args.pq_subspaces,
                        "n_centroids": args.pq_centroids,
                        "refine_factor": args.pq_refine or 4,
                        "refine_dtype": "float16" if args.pq_refine else None,
                        "seed": args.seed},
    "hnsw": lambda args: {"m": args.hnsw_m,
                          "ef_construction": args.ef_construction,
                          "ef_search": args.ef_search,
                          "seed": args.seed},
}


# ----------------------------------------------------------------------
# The service stack under knn / serve / serve-http / cluster
# ----------------------------------------------------------------------
def _service_options(args, database) -> dict:
    """``backend``/``index``/``index_kwargs``: the constructor arguments the
    in-process, sharded and cluster services all take."""
    # auto: the service's own default (bruteforce / segment / pairwise scan)
    index = None if args.index == "auto" else args.index
    build = _INDEX_KWARG_BUILDERS.get(index)
    return {"backend": _resolve_backend(args.backend, args, database),
            "index": index, "index_kwargs": build(args) if build else {}}


def _local_service(args, database, stack):
    """A service over ``database`` in this process, or sharded across
    ``--workers`` worker processes that ``stack`` stops on the way out."""
    from .api import ShardedSimilarityService, SimilarityService

    options = _service_options(args, database)
    if args.workers > 1:
        service = stack.enter_context(ShardedSimilarityService(
            num_workers=args.workers, **options))
    else:
        service = SimilarityService(**options)
    return service.add(database)


def _serve(args, stack, service, front_end, banner: str) -> int:
    """Serve ``service`` until signalled: the tail of serve/serve-http/cluster.

    Front end -> SIGTERM hook -> banner -> ready file -> ``serve_forever``.
    ``stack`` then closes in reverse order: the front end first, the
    caller's service or client last.
    """
    from .api.node import install_signal_shutdown, write_ready_file

    server = stack.enter_context(front_end(
        service, host=args.host, port=args.port,
        max_requests=args.max_requests))
    # SIGTERM runs the same graceful shutdown as Ctrl-C, so launcher
    # teardown (smoke scripts, process managers) is deterministic.
    install_signal_shutdown(server.shutdown)
    host, port = server.address
    print(f"{banner}{host}:{port}", flush=True)
    if args.ready_file:
        write_ready_file(args.ready_file, server.address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_knn(args) -> int:
    from .api import RemoteSimilarityClient

    database = load_trajectories(args.data)
    if not 0 <= args.query < len(database):
        # A negative index would wrap to a trajectory whose id `exclude`
        # never matches, returning the query as its own nearest neighbour.
        raise SystemExit(f"--query {args.query} is out of range for the "
                         f"{len(database)} trajectories in {args.data}")
    query = database[args.query]
    with ExitStack() as stack:
        if args.remote:
            # Query a running `serve`/`cluster` instance instead of
            # building a local service.
            service = stack.enter_context(RemoteSimilarityClient(args.remote))
            where = f", remote {args.remote}"
        else:
            service = _local_service(args, database, stack)
            where = f", workers {args.workers}" if args.workers > 1 else ""
        # The query is a database member: exclude its own id so the result
        # is k true neighbours (not k-1, and never the query itself).
        distances, neighbors = service.knn(query, k=args.k,
                                           exclude=args.query)
        stats = service.stats()
    backend = stats.get("backend", "?")
    unit = "L1" if stats.get("kind") == "embedding" else backend
    print(f"{args.k}NN of trajectory {args.query} (backend {backend}, "
          f"index {stats.get('index', '?')}{where}):")
    for rank, (distance, neighbor) in enumerate(
            zip(distances[0], neighbors[0]), start=1):
        if neighbor < 0:
            break  # database smaller than k
        print(f"  #{rank}: trajectory {neighbor} ({unit} distance "
              f"{distance:.3f})")
    return 0


def cmd_serve(args) -> int:
    """Expose a similarity service over TCP (``repro serve``)."""
    from .api import SimilarityServer

    database = load_trajectories(args.data)
    with ExitStack() as stack:
        service = _local_service(args, database, stack)
        return _serve(args, stack, service, SimilarityServer,
                      f"serving backend {service.backend.name} "
                      f"({len(database)} trajectories) on ")


def cmd_serve_http(args) -> int:
    """Expose a similarity service over HTTP/JSON (``repro serve-http``)."""
    from .api import QueryQueue, RemoteSimilarityClient
    from .api.gateway import SimilarityGateway

    with ExitStack() as stack:
        if args.remote:
            # Front a running `serve` or `cluster` instance: the gateway
            # translates HTTP/JSON onto the binary frame wire protocol.
            service = stack.enter_context(RemoteSimilarityClient(args.remote))
            label = (f"remote service {args.remote} "
                     f"({len(service)} trajectories)")
        elif args.data:
            database = load_trajectories(args.data)
            service = _local_service(args, database, stack)
            workers = f", {args.workers} workers" if args.workers > 1 else ""
            label = (f"backend {service.backend.name} "
                     f"({len(database)} trajectories{workers})")
        else:
            raise SystemExit("serve-http needs --data (or --remote HOST:PORT)")
        # Concurrent HTTP callers batch here, /add waits its turn here,
        # and the excess beyond --max-pending is shed with HTTP 429.
        service = stack.enter_context(QueryQueue(
            service, max_batch=args.max_batch, max_pending=args.max_pending))
        gateway = partial(
            SimilarityGateway, rate_limit=args.rate_limit, burst=args.burst,
            max_body=args.max_body)
        return _serve(args, stack, service, gateway,
                      f"http gateway: {label} on http://")


def cmd_cluster_worker(args) -> int:
    """Boot one cluster shard worker (``repro cluster-worker``)."""
    from .api.cluster import run_worker

    return run_worker(args.host, args.port, args.ready_file)


def cmd_cluster(args) -> int:
    """Front a worker cluster with a TCP server (``repro cluster``)."""
    from .api import SimilarityServer
    from .api.coordinator import ClusterCoordinator
    from .api.node import parse_address
    from .api.transport import RemoteCallError, TransportError

    database = load_trajectories(args.data)
    workers = [w.strip() for w in args.workers.split(",") if w.strip()]
    with ExitStack() as stack:
        try:
            cluster = ClusterCoordinator(
                workers, replication=args.replication,
                heartbeat_interval=args.heartbeat_interval,
                heartbeat_timeout=args.heartbeat_timeout,
                connect_retries=args.connect_retries,
                retry_wait=args.retry_wait,
                **_service_options(args, database))
        except (TransportError, RemoteCallError) as error:
            # The constructor's own teardown left every worker it reached
            # running; --shutdown-workers still owes each an exit.
            if args.shutdown_workers:
                for worker in workers:
                    ClusterCoordinator.shutdown_worker(parse_address(worker))
            raise SystemExit(f"repro cluster: could not start: {error}") \
                from None
        stack.callback(cluster.close, shutdown_workers=args.shutdown_workers)
        cluster.add(database)
        return _serve(
            args, stack, cluster, SimilarityServer,
            f"cluster front-end: backend {cluster.backend.name}, "
            f"{len(database)} trajectories over {len(workers)} worker(s) "
            f"(replication={args.replication}), serving on ")


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_service_args(p: argparse.ArgumentParser, *, data_required=True,
                      sharded=True) -> None:
    """What to serve — backend, database, index — declared once
    for knn/serve/serve-http/cluster.

    ``sharded`` adds ``--workers N`` (local worker processes); ``cluster``
    names its remote workers with a ``--workers`` of its own instead.
    """
    p.add_argument("--checkpoint", help="TrajCL checkpoint "
                   "(required for --backend trajcl)")
    p.add_argument("--data", required=data_required,
                   help="trajectories .npz: the database (for knn, also "
                        "where --query is looked up)")
    p.add_argument("--backend", default="trajcl",
                   help="backend name (see 'backends'; default: trajcl)")
    p.add_argument("--index", default="auto",
                   choices=["auto", "bruteforce", "ivf", "pq", "int8", "hnsw",
                            "segment"],
                   help="kNN index (auto: exact default for the backend; "
                        "pq/int8/hnsw are compressed/approximate)")
    p.add_argument("--lists", type=int, default=16,
                   help="ivf: coarse lists (a quarter of them probed)")
    p.add_argument("--pq-subspaces", type=int, default=16,
                   help="pq: codebooks, i.e. bytes per stored vector")
    p.add_argument("--pq-centroids", type=int, default=256,
                   help="pq: centroids per codebook (<= 256)")
    p.add_argument("--pq-refine", type=int, default=0, metavar="FACTOR",
                   help="pq: re-rank FACTOR*k ADC candidates against a "
                        "retained float16 tail (0: off)")
    p.add_argument("--hnsw-m", type=int, default=16,
                   help="hnsw: neighbours per node per layer")
    p.add_argument("--ef-construction", type=int, default=64,
                   help="hnsw: beam width while inserting")
    p.add_argument("--ef-search", type=int, default=32,
                   help="hnsw: beam width while querying")
    if sharded:
        p.add_argument("--workers", type=int, default=1,
                       help="shard the database across this many worker "
                            "processes (1: single-process service)")
    p.add_argument("--train-epochs", type=int, default=1,
                   help="training epochs for learned non-trajcl backends")
    p.add_argument("--seed", type=int, default=0)


def _add_listen_args(p: argparse.ArgumentParser, what: str, *,
                     max_requests=True) -> None:
    """Where to listen and how a launcher finds out, declared once for
    serve/serve-http/cluster (and, without --max-requests, cluster-worker)."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="port to listen on (0: pick an ephemeral port and "
                        "print it)")
    if max_requests:
        p.add_argument("--max-requests", type=int, default=None,
                       help="shut down after serving this many requests "
                            "(smoke tests; default: serve until interrupted)")
    p.add_argument("--ready-file",
                   help=f"write 'host:port' here once the {what} is "
                        "listening (for launchers that must not race)")


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
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("knn",
                       help="kNN query via the similarity service")
    _add_service_args(p)
    p.add_argument("--query", type=int, default=0,
                   help="index of the query trajectory within --data")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--remote", metavar="HOST:PORT",
                   help="query a running `repro serve` instance instead of "
                        "building a local service (--data still supplies "
                        "the query trajectory)")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("serve",
                       help="serve kNN/pairwise queries over TCP")
    _add_service_args(p)
    _add_listen_args(p, "server")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("serve-http",
                       help="serve kNN/pairwise queries over HTTP/JSON")
    _add_service_args(p, data_required=False)
    _add_listen_args(p, "gateway")
    p.add_argument("--remote",
                   help="front an already-running serve/cluster instance at "
                        "HOST:PORT instead of building a local service")
    p.add_argument("--max-batch", type=int, default=64,
                   help="queries one QueryQueue flush hands the service")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="queries and adds the QueryQueue holds "
                        "waiting; past it a request is shed with HTTP 429")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="per-client token-bucket rate in requests/second "
                        "(default: unlimited)")
    p.add_argument("--burst", type=float, default=None,
                   help="token-bucket burst capacity (default: rate)")
    p.add_argument("--max-body", type=int, default=8 << 20,
                   help="largest accepted request body in bytes")
    p.set_defaults(func=cmd_serve_http)

    p = sub.add_parser("cluster-worker",
                       help="boot one multi-machine shard worker")
    # Same-machine launchers read the ready file; remote coordinators
    # rely on connect retries instead.
    _add_listen_args(p, "worker", max_requests=False)
    p.set_defaults(func=cmd_cluster_worker)

    p = sub.add_parser("cluster",
                       help="serve kNN over a cluster of shard workers")
    _add_service_args(p, sharded=False)
    _add_listen_args(p, "front-end")
    p.add_argument("--workers", required=True, metavar="HOST:PORT,...",
                   help="comma-separated addresses of running "
                        "`cluster-worker` processes")
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
    p.set_defaults(func=cmd_cluster)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
