"""Benchmark-owned server processes: ``python targets.py <role> ...``.

* ``server`` — ``SimilarityServer`` over ``ShardedSimilarityService``
  (two forked pipe workers), the ``remote_sharded`` workload;
* ``worker`` — one TCP ``ShardWorker`` of the ``edge_http`` workload;
* ``edge`` — ``SimilarityGateway`` → ``QueryQueue`` →
  ``ClusterCoordinator`` over the given workers.

Every role binds port 0, prints one JSON ready line with the bound
address, serves until its stdin reaches EOF, then closes what it built
and (with ``--trace-dir``) writes its spans. Launching them from here,
not through the CLI, lets them install the same span shims as the load
generator.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def _median_rtt_us(call) -> float:
    samples = []
    for _ in range(50):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _ready(**fields) -> None:
    print(json.dumps(dict(fields, pid=os.getpid())), flush=True)


def _wait_for_eof() -> None:
    try:
        sys.stdin.read()
    except KeyboardInterrupt:
        pass


def run_server(args) -> None:
    from repro.api import ShardedSimilarityService, SimilarityServer
    from workloads import SHARDS, build_backend

    service = ShardedSimilarityService(
        backend=build_backend(), index=args.index,
        index_kwargs=json.loads(args.index_kwargs), num_workers=SHARDS)
    try:
        # the cheapest request a pipe worker answers, before any data
        pipe_rtt_us = _median_rtt_us(service.stats) if args.trace_dir else 0.0
        with SimilarityServer(service) as server:
            _ready(address=list(server.address), pipe_rtt_us=pipe_rtt_us)
            _wait_for_eof()
    finally:
        service.close()


def run_worker(args) -> None:
    from repro.api.cluster import ShardWorker

    with ShardWorker("127.0.0.1", 0) as worker:
        _ready(address=list(worker.address))
        _wait_for_eof()


def run_edge(args) -> None:
    from repro.api import QueryQueue
    from repro.api.cluster import ClusterCoordinator
    from repro.api.gateway import SimilarityGateway
    from repro.api.transport import SocketTransport, request
    from workloads import build_backend

    workers = args.workers.split(",")
    socket_rtt_us = 0.0
    if args.trace_dir:
        host, _, port = workers[0].rpartition(":")
        probe = SocketTransport.connect(host, int(port))
        try:
            socket_rtt_us = _median_rtt_us(lambda: request(probe, "ping"))
        finally:
            probe.close()
    coordinator = ClusterCoordinator(
        workers, backend=build_backend(), index=args.index,
        index_kwargs=json.loads(args.index_kwargs), replication=1)
    try:
        with QueryQueue(coordinator, max_batch=64, max_wait=0.005) as queue:
            with SimilarityGateway(queue, port=0) as gateway:
                _ready(address=list(gateway.address),
                       socket_rtt_us=socket_rtt_us)
                _wait_for_eof()
    finally:
        coordinator.close()


ROLES = {"server": run_server, "worker": run_worker, "edge": run_edge}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--index", default="bruteforce")
    parser.add_argument("--index-kwargs", default="{}")
    parser.add_argument("--workers", default="")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir:
        from spans import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)
    try:
        ROLES[args.role](args)
    finally:
        if tracer is not None:
            tracer.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
