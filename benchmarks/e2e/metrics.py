"""The metric catalogue: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root carries the same lists;
``run.py --selftest`` fails when the two disagree.
"""

from __future__ import annotations

#: ``(name, unit, better, bound)`` — bound is the share of the parent's
#: median by which the metric may worsen before it counts as a regression.
#: No bound exceeds a tenth but that of ``setup_s``: the builder's
#: contract requires that metric and gives it the largest bound; by the
#: issue's own rule it would have been demoted too (README
#: "Repeatability").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("recall_at_10", "ratio", "higher", 0.05),
)

#: ``(name, unit, better, bound)`` — measured, printed and written to the
#: result file by every run and judged by ``--repeat-check``, but left out
#: of ``BENCHMARK.json``: at a bound of a tenth each fails the check on at
#: least one of the three CPU-bound workloads on the recording box (in-set
#: ranges 0.10-0.15, interquartile share of ten runs 0.03-0.12), and the
#: issue allows no larger bound.
DEMOTED = (
    ("knn_p50_ms", "ms", "lower", 0.10),
    ("knn_qps", "1/s", "higher", 0.10),
    ("batch_knn_qps", "1/s", "higher", 0.10),
    ("ingest_tps", "1/s", "higher", 0.10),
)

#: ``(name, unit, better)`` — one traced run reports all of them; a layer
#: that does not run on a workload reports 0.
PER_LAYER = (
    # core.infer, reached through api.backends
    ("core.infer.encode_ms_per_traj", "ms", "lower"),
    ("core.infer.encode_single_ms", "ms", "lower"),
    ("core.infer.encode_share_knn", "ratio", "lower"),
    # api.service
    ("api.service.knn_self_ms", "ms", "lower"),
    ("api.service.add_self_us_per_traj", "us", "lower"),
    ("api.service.cache_hit_knn_ms", "ms", "lower"),
    ("api.service.cache_hit_rate", "ratio", "higher"),
    ("api.service.encodes_per_query", "count", "lower"),
    # index: api.indexes over index.bruteforce / index.pq / index.kmeans
    ("index.search_ms", "ms", "lower"),
    ("index.search_batch_ms_per_query", "ms", "lower"),
    ("index.search_share_knn", "ratio", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.kmeans.calls", "count", "lower"),
    ("index.kmeans.total_s", "s", "lower"),
    ("index.add_us_per_vec", "us", "lower"),
    ("index.memory_bytes", "bytes", "lower"),
    ("index.bytes_per_vector", "bytes", "lower"),
    # api.serving: QueryQueue and the sharded fan-out / merge
    ("api.serving.queue_wait_ms", "ms", "lower"),
    ("api.serving.queue_batch_mean", "count", "higher"),
    ("api.serving.queue_rejected", "count", "lower"),
    ("api.serving.queue_expired", "count", "lower"),
    ("api.serving.fanout_self_ms", "ms", "lower"),
    ("api.serving.merge_self_ms", "ms", "lower"),
    ("api.serving.slowest_shard_ms", "ms", "lower"),
    ("api.serving.rounds_per_query", "count", "lower"),
    # api.wire
    ("api.wire.encode_us", "us", "lower"),
    ("api.wire.decode_us", "us", "lower"),
    ("api.wire.request_bytes", "bytes", "lower"),
    ("api.wire.reply_bytes", "bytes", "lower"),
    # api.transport
    ("api.transport.pipe_rtt_us", "us", "lower"),
    ("api.transport.socket_rtt_us", "us", "lower"),
    ("api.transport.bytes_per_query", "bytes", "lower"),
    ("api.transport.frames_per_query", "count", "lower"),
    ("api.transport.shm_hits_per_ingest_chunk", "count", "higher"),
    # api.remote
    ("api.remote.rtt_us", "us", "lower"),
    ("api.remote.self_ms", "ms", "lower"),
    ("api.remote.retries", "count", "lower"),
    # api.cluster
    ("api.cluster.knn_ms", "ms", "lower"),
    ("api.cluster.self_ms", "ms", "lower"),
    ("api.cluster.add_us_per_traj", "us", "lower"),
    ("api.cluster.failovers", "count", "lower"),
    ("api.cluster.degraded_shards", "count", "lower"),
    # api.gateway
    ("api.gateway.http_rtt_ms", "ms", "lower"),
    ("api.gateway.self_ms", "ms", "lower"),
    ("api.gateway.json_decode_us", "us", "lower"),
    ("api.gateway.json_encode_us", "us", "lower"),
    ("api.gateway.request_bytes", "bytes", "lower"),
    ("api.gateway.shed_429", "count", "lower"),
    ("api.gateway.status_5xx", "count", "lower"),
    # the benchmark itself
    ("loadgen.prep_s", "s", "lower"),
    ("loadgen.tracing_overhead_pct", "%", "lower"),
    ("loadgen.open50_p50_ms", "ms", "lower"),
    ("loadgen.open80_p50_ms", "ms", "lower"),
    ("loadgen.open80_p95_ms", "ms", "lower"),
    ("loadgen.open_lateness_ms", "ms", "lower"),
    ("loadgen.open_backlog_grows", "count", "lower"),
    ("loadgen.open_void", "count", "lower"),
    ("loadgen.reference_slowdown", "ratio", "lower"),
)
