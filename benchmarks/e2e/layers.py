"""Per-layer metrics of one traced run.

Three sources, each used where it measures the work where it happens:

* **spans** from every process (``spans.py``): durations, self times
  (span minus its direct children) and, across processes, the slowest
  shard inside each fan-out;
* **counters** the program already keeps: deltas of ``stats()`` around a
  window (cache hits/misses, transport bytes/frames, queue batches);
* **probes** sent by the load generator between phases: the cheapest
  round trip each hop answers, and the codecs on the run's real request.

The ladder: along the blocking path the layers' spans are nested —
caller, remote client or gateway, queue, sharded/cluster ``knn``, its
fan-out, the shards' ``service.knn``, encode and search. For every request
each rung's *cover* is the part of the request's interval during which a
span of that rung was open, in any process; a rung's self time is its
cover minus the cover of the rung below.
"""

from __future__ import annotations

import bisect
import json
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

import spans as tracing
from measure import REFERENCE_SECONDS, median, percentile
from workloads import K, SHARDS

BATCH_MIN = 64  # an encode / add of at least this many is "batched"

#: the nested spans of one request, outermost first
CHAINS = {
    "inproc": ("client.knn", "service.knn"),
    "remote": ("client.knn", "remote.knn", "sharded.knn", "sharded.fanout",
               "service.knn"),
    "http": ("client.knn", "gateway.request", "queue.submit", "cluster.knn",
             "cluster.fanout", "service.knn"),
}
LEAVES = ("backend.encode", "index.search")


def _median_seconds(call: Callable, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        samples.append(perf_counter() - start)
    return median(samples)


def probe(run) -> Dict:
    """Round trips and codec costs, measured between the traced phases."""
    system = run.system
    if not system.served:
        return {}
    from repro.api import wire

    query = run.first_query[0]
    request = ("knn", ([query], K, None, None))
    reply = ("ok", (np.zeros((1, K)), np.zeros((1, K), dtype=np.int64)))
    request_bytes, reply_bytes = wire.encode(request), wire.encode(reply)
    out = {
        "wire_encode_us": _median_seconds(
            lambda: wire.encode(request), 200) * 1e6,
        "wire_decode_us": _median_seconds(
            lambda: wire.decode(reply_bytes), 200) * 1e6,
        "wire_request_bytes": len(request_bytes),
        "wire_reply_bytes": len(reply_bytes),
    }
    caller = system.caller()
    if run.workload.system == "remote":
        client = caller.client
        out["socket_rtt_us"] = _median_seconds(lambda: len(client), 50) * 1e6
        out["remote_rtt_us"] = _median_seconds(client.stats, 20) * 1e6
    else:
        body = system.prepare_query([query])
        answer = caller.request("POST", "/knn", body)[1]
        document = json.loads(answer)
        out["http_rtt_ms"] = _median_seconds(
            lambda: caller.get_json("/healthz"), 30) * 1e3
        out["json_decode_us"] = _median_seconds(
            lambda: json.loads(body), 200) * 1e6
        out["json_encode_us"] = _median_seconds(
            lambda: json.dumps(document), 200) * 1e6
        out["http_request_bytes"] = len(body)
    return out


def _counter_path(stats: Dict, system: str) -> Dict:
    """The dict holding ``cache`` / ``transport`` for this kind of system
    (the gateway nests the coordinator's report under ``service``)."""
    return stats.get("service", stats) if system == "http" else stats


def ladder_self_ms(every: List[tracing.Span], window: tuple,
                   system: str) -> Dict[str, float]:
    """Median self time of each rung over the requests of ``window``."""
    chain = CHAINS[system]
    requests = tracing.select(every, chain[0], window)
    covers = {chain[0]: tracing.durations_ms(requests)}
    for name in chain[1:] + LEAVES:
        covers[name] = tracing.covered_ms(
            requests, tracing.select(every, name, window))
    rungs = {}
    for outer, inner in zip(chain, chain[1:]):
        rungs[outer] = median(
            [a - b for a, b in zip(covers[outer], covers[inner])])
    rungs[chain[-1]] = median(
        [total - sum(parts) for total, *parts in zip(
            covers[chain[-1]], *(covers[leaf] for leaf in LEAVES))])
    for leaf in LEAVES:
        rungs[leaf] = median(covers[leaf])
    return rungs


def per_layer(run) -> Dict[str, float]:
    loaded = tracing.load(run.args.run_dir)
    every: List[tracing.Span] = loaded["spans"]
    system = run.workload.system
    single, batch = run.marks["single"], run.marks["batch"]
    ingest, setup = run.marks["ingest"], run.marks["setup"]
    values: Dict[str, float] = {}

    def spans_of(name, window=None):
        return tracing.select(every, name, window)

    def med_ms(name, window) -> float:
        return median(tracing.durations_ms(spans_of(name, window)))

    def per_item(name, window, scale, least=1):
        return median([(s.t1 - s.t0) * scale / s.n
                       for s in spans_of(name, window) if s.n >= least])

    client_ms = med_ms("client.knn", single)
    queries = run.single_slices[0][0]
    rungs = ladder_self_ms(every, single, system)

    def share(name) -> float:
        return rungs[name] / client_ms if client_ms else 0.0

    # -- core.infer ----------------------------------------------------
    values["core.infer.encode_ms_per_traj"] = per_item(
        "backend.encode", None, 1e3, BATCH_MIN)
    values["core.infer.encode_single_ms"] = med_ms("backend.encode", single)
    values["core.infer.encode_share_knn"] = share("backend.encode")

    # -- api.service ---------------------------------------------------
    service_knn = spans_of("service.knn", single)
    values["api.service.knn_self_ms"] = median(
        tracing.self_times_ms(service_knn, every))
    service_add = spans_of("service.add", ingest)
    values["api.service.add_self_us_per_traj"] = median(
        [self_ms * 1e3 / span.n for self_ms, span in zip(
            tracing.self_times_ms(service_add, every), service_add)
         if span.n])
    values["api.service.cache_hit_knn_ms"] = run.details.get(
        "cache_hit_knn_ms", 0.0)
    before = _counter_path(run.stats_single[0], system)["cache"]
    after = _counter_path(run.stats_single[1], system)["cache"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    values["api.service.cache_hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    values["api.service.encodes_per_query"] = (
        misses / queries if queries else 0.0)

    # -- index ---------------------------------------------------------
    search_ms = med_ms("index.search", single)
    values["index.search_ms"] = search_ms
    values["index.search_batch_ms_per_query"] = per_item(
        "index.search", batch, 1e3, 2)
    values["index.search_share_knn"] = share("index.search")
    # a lazy index trains inside its first search: the longest search of
    # set-up, less a steady one, is the build (per process; the largest)
    first_searches: Dict[int, float] = {}
    for span in spans_of("index.search", setup):
        first_searches[span.pid] = max(first_searches.get(span.pid, 0.0),
                                       span.t1 - span.t0)
    values["index.build_s"] = max(
        0.0, max(first_searches.values(), default=0.0) - search_ms / 1e3)
    kmeans = spans_of("index.kmeans")
    values["index.kmeans.calls"] = float(len(kmeans))
    values["index.kmeans.total_s"] = sum(s.t1 - s.t0 for s in kmeans)
    values["index.add_us_per_vec"] = per_item("index.add", ingest, 1e6)
    values["index.memory_bytes"] = float(loaded["index_memory_bytes"])
    values["index.bytes_per_vector"] = (
        loaded["index_memory_bytes"] / loaded["index_vectors"]
        if loaded["index_vectors"] else 0.0)

    # -- served workloads: fan-out, transport, wire ----------------------
    probes = run.probes
    if run.system.served:
        fanout = "sharded.fanout" if system == "remote" else "cluster.fanout"
        values["api.serving.slowest_shard_ms"] = median(
            tracing.slowest_contained_ms(spans_of(fanout, single),
                                         service_knn))
        counters = [_counter_path(s, system)["transport"]
                    for s in run.stats_single]
        # the closing stats() call is itself one round to every worker
        overhead = {key: counters[2][key] - counters[1][key]
                    for key in ("frames_sent", "bytes_sent", "bytes_recv")}
        frames = (counters[1]["frames_sent"] - counters[0]["frames_sent"]
                  - overhead["frames_sent"])
        moved = sum(counters[1][key] - counters[0][key] - overhead[key]
                    for key in ("bytes_sent", "bytes_recv"))
        values["api.serving.rounds_per_query"] = (
            frames / SHARDS / queries if queries else 0.0)
        values["api.transport.frames_per_query"] = (
            frames / queries if queries else 0.0)
        values["api.transport.bytes_per_query"] = (
            moved / queries if queries else 0.0)
        ingest_before = _counter_path(run.stats_before_ingest,
                                      system)["transport"]
        ingest_after = _counter_path(run.final_stats, system)["transport"]
        values["api.transport.shm_hits_per_ingest_chunk"] = (
            (ingest_after["shm_hits"] - ingest_before["shm_hits"])
            / max(1, len(run.ingest_rows)))
        values["api.wire.encode_us"] = probes["wire_encode_us"]
        values["api.wire.decode_us"] = probes["wire_decode_us"]
        values["api.wire.request_bytes"] = float(probes["wire_request_bytes"])
        values["api.wire.reply_bytes"] = float(probes["wire_reply_bytes"])
    if system == "remote":
        values["api.serving.fanout_self_ms"] = rungs["sharded.fanout"]
        values["api.serving.merge_self_ms"] = rungs["sharded.knn"]
        values["api.remote.self_ms"] = rungs["remote.knn"]
        values["api.remote.rtt_us"] = probes["remote_rtt_us"]
        values["api.remote.retries"] = float(
            run.final_stats.get("retries", 0))
        values["api.transport.socket_rtt_us"] = probes["socket_rtt_us"]
        values["api.transport.pipe_rtt_us"] = run.system.target.ready[
            "pipe_rtt_us"]
    if system == "http":
        values["api.serving.merge_self_ms"] = rungs["cluster.knn"]
        values["api.serving.queue_wait_ms"] = rungs["queue.submit"]
        queue_before = run.stats_single[0]["queue"]
        queue_after = run.stats_single[1]["queue"]
        flushed = queue_after["batches"] - queue_before["batches"]
        values["api.serving.queue_batch_mean"] = (
            (queue_after["queries"] - queue_before["queries"]) / flushed
            if flushed else 0.0)
        final_queue = run.final_stats["queue"]
        values["api.serving.queue_rejected"] = float(final_queue["rejected"])
        values["api.serving.queue_expired"] = float(final_queue["expired"])
        values["api.cluster.knn_ms"] = med_ms("cluster.knn", single)
        values["api.cluster.self_ms"] = (rungs["cluster.knn"]
                                         + rungs["cluster.fanout"])
        values["api.cluster.add_us_per_traj"] = per_item(
            "cluster.add", ingest, 1e6)
        cluster = _counter_path(run.final_stats, system)
        values["api.cluster.failovers"] = float(
            cluster.get("workers", 0) - cluster.get("alive_workers", 0))
        values["api.cluster.degraded_shards"] = float(
            len(cluster.get("degraded", ())))
        # HTTP knn minus the queue span: client library, sockets, the
        # handler's parsing and reply
        values["api.gateway.self_ms"] = (rungs["client.knn"]
                                         + rungs["gateway.request"])
        values["api.gateway.http_rtt_ms"] = probes["http_rtt_ms"]
        values["api.gateway.json_decode_us"] = probes["json_decode_us"]
        values["api.gateway.json_encode_us"] = probes["json_encode_us"]
        values["api.gateway.request_bytes"] = float(
            probes["http_request_bytes"])
        values["api.gateway.shed_429"] = float(
            run.final_stats["gateway"]["shed_total"])
        values["api.gateway.status_5xx"] = float(sum(
            count for reason, count in run.tally.reasons.items()
            if reason.startswith("http_5")))
        values["api.transport.socket_rtt_us"] = run.system.edge.ready[
            "socket_rtt_us"]

    # -- loadgen -------------------------------------------------------
    values["loadgen.prep_s"] = run.details["prep_s"]
    values["loadgen.reference_slowdown"] = (median(run.kernel_seconds)
                                            / REFERENCE_SECONDS)
    # measured: the p50 with the spans on against the p50 with them off
    tracing_row = run.details["tracing"]
    values["loadgen.tracing_overhead_pct"] = tracing_row["overhead_pct"]
    starts = sorted(s.t0 for s in every)
    tracing_row["spans_in_untraced_windows"] = sum(
        bisect.bisect_left(starts, t1) - bisect.bisect_left(starts, t0)
        for t0, t1 in tracing_row.pop("untraced_windows"))
    # estimated, as a cross-check: spans per query x the cost of one span
    span_cost_us = _span_cost_us()
    in_window = sum(1 for s in every
                    if single[0] <= s.t0 and s.t1 <= single[1])
    spans_per_query = in_window / queries if queries else 0.0
    tracing_row["estimated_overhead_pct"] = (
        100.0 * spans_per_query * span_cost_us / (client_ms * 1e3)
        if client_ms else 0.0)
    rows = getattr(run, "open_rows", None)
    if rows:
        half, most = rows[0.5], rows[0.8]
        values["loadgen.open50_p50_ms"] = median(half["latencies_s"]) * 1e3
        values["loadgen.open80_p50_ms"] = median(most["latencies_s"]) * 1e3
        values["loadgen.open80_p95_ms"] = percentile(
            most["latencies_s"], 95) * 1e3
        values["loadgen.open_lateness_ms"] = max(half["lateness_ms"],
                                                 most["lateness_ms"])
        values["loadgen.open_backlog_grows"] = float(
            half["backlog_grows"] or most["backlog_grows"])
        values["loadgen.open_void"] = float(half["void"] or most["void"])

    total = sum(rungs.values())
    run.details["ladder"] = {
        "client_knn_p50_ms": client_ms, "self_ms": rungs, "sum_ms": total,
        "gap_pct": (100.0 * (total - client_ms) / client_ms
                    if client_ms else 0.0),
        "spans_per_query": spans_per_query, "span_cost_us": span_cost_us,
    }
    return values


def _span_cost_us(repeats: int = 20000) -> float:
    """What recording one span costs here, measured on an empty call."""
    tracer = tracing.Tracer()
    traced = tracer.wrap(lambda: None, "calibrate")
    start = perf_counter()
    for _ in range(repeats):
        traced()
    return (perf_counter() - start) / repeats * 1e6
