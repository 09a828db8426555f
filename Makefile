PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-sanitized test-all smoke serve-smoke cluster-smoke chaos-smoke http-smoke golden-bits train-histories bench bench-encode bench-index bench-index-smoke bench-startup bench-transport bench-e2e bench-e2e-selftest bench-e2e-smoke

# Tier-1 suite (the repo's verification gate; deselects `slow`-marked
# serving stress tests — see pytest.ini). It holds the lock-discipline
# laws (tests/test_lock_discipline.py: guarded writes under a lock, every
# thread declares daemon=, blocking under a lock only at the designed
# sites) and fails a session that leaks a process, thread or descriptor.
test:
	$(PYTHON) -m pytest -x -q

# The stack's only lock-order check: every file where a serving lock
# is taken (the engine's _rpc_lock under both link kinds, approximate
# shard indexes and cluster snapshots included, the
# gateway -> queue -> remote client -> server chain, and every service's
# own lock under the thread-safety storm), slow tests included, with the
# runtime lock-order sanitizer armed: an ABBA inversion raises instead
# of deadlocking. The sanitizer is test infrastructure
# (tests/lock_sanitizer.py, armed by tests/conftest.py); its own tests
# run here too. CI's `sanitizer` job.
test-sanitized:
	REPRO_LOCK_SANITIZER=1 $(PYTHON) -m pytest -q -m "" tests/api/test_serving.py tests/api/test_cluster.py tests/api/test_ann_service.py tests/api/test_encode_once.py tests/api/test_transport.py tests/api/test_chaos.py tests/api/test_gateway.py tests/api/test_remote.py tests/api/test_thread_safety.py tests/test_sanitizer.py tests/test_lockgraph.py

# Everything: the full pytest suite (including the slow serving stress
# tests and the lock-discipline laws) with the runtime lock-order
# sanitizer armed, then the real-process smoke runs and the end-to-end
# benchmark's smoke run.
test-all:
	REPRO_LOCK_SANITIZER=1 $(PYTHON) -m pytest -x -q -m ""
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) scripts/cluster_smoke.py
	$(PYTHON) scripts/chaos_smoke.py
	$(PYTHON) scripts/http_smoke.py
	$(PYTHON) scripts/bench_index_smoke.py
	$(MAKE) bench-e2e-smoke

# End-to-end CLI pipeline (generate -> train -> evaluate -> knn) on a tiny
# dataset; finishes in well under a minute.
smoke:
	$(PYTHON) -m pytest -m smoke -q

# Boots a real `repro serve` process on a random port (scan-path frechet
# backend), runs one remote knn round-trip, exits nonzero on failure.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Boots two real `repro cluster-worker` processes plus a `repro cluster`
# front-end, runs one remote knn round-trip, and checks exact parity
# against the local CLI path.
cluster-smoke:
	$(PYTHON) scripts/cluster_smoke.py

# Fault-tolerance smoke: three real worker processes behind a
# replication=2 coordinator; SIGKILLs one mid-traffic (kNN must stay
# bit-exact with zero failed queries), rejoins a replacement, then
# reruns traffic under a seeded ChaosTransport drop/latency schedule
# (the test harness in tests/chaos.py wraps every link).
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

# Boots a real `repro serve-http` gateway over a 2-worker sharded
# service, checks HTTP knn parity with the local service, expects a 400
# for a string coordinate in /add, times 20
# keep-alive GET /healthz on one connection (median < 10 ms: no reply
# waits for a delayed ACK), floods it past --max-pending with
# --max-batch 1 (some 429s, zero wrong answers), parses /metrics, and
# SIGTERMs it expecting a clean exit.
http-smoke:
	$(PYTHON) scripts/http_smoke.py

# Paper-table benchmark harnesses (slow; needs pytest-benchmark).
bench:
	$(PYTHON) -m pytest benchmarks -q

# Encode-throughput sweep (traj/sec: fused inference engine in
# float64/float32 vs the reference Tensor path, by batch size) plus the
# end-to-end benchmark's encoder shape (d = 64, L = 32: 256 per call and
# one per call), medians with quartiles, merged scenario-by-scenario into
# the encode perf-trajectory record; one BLAS thread and no huge pages,
# as the e2e benchmark pins them. `--label` + another checkout on
# PYTHONPATH records a before row (see the script). Outside tier-1.
bench-encode:
	OPENBLAS_NUM_THREADS=1 NUMPY_MADVISE_HUGEPAGE=0 $(PYTHON) benchmarks/bench_encode.py --output benchmarks/results/BENCH_encode.json

# The TestGoldenBits digests (sha256 of one fixed model's served float32
# embeddings) for both recorded kernel families: the native OpenBLAS
# kernels, then Haswell's. An encoder change meant to change the bits
# pastes both printed entries into tests/core/test_infer.py::_GOLDEN.
golden-bits:
	$(PYTHON) scripts/golden_bits.py
	OPENBLAS_CORETYPE=Haswell $(PYTHON) scripts/golden_bits.py

# Every learner's same-seed training history on tiny data: per-epoch
# losses as float hex, a sha256 of the parameters and of the distance
# matrix (TrajCL's trainer and two fine-tune heads, the eight baselines;
# the trainer and CSTRM runs end each epoch on a skipped batch of one).
# Diff its output between two checkouts to show a change to the training
# loop changed no step. Outside tier-1; always exits 0.
train-histories:
	$(PYTHON) scripts/train_histories.py

# ANN index sweep at 10^5 float32 vectors (recall@10 vs bytes/vector vs
# q/s for bruteforce/ivf/int8/hnsw and pq with each of its options:
# 16 x 256, 24 x 256, 32 x 64 and the float16 refine tail), merged
# scenario-by-scenario into the index perf-trajectory record. Outside
# tier-1; the smoke variant runs a downscaled sweep and asserts the
# recall/memory acceptance envelope.
bench-index:
	$(PYTHON) benchmarks/bench_index.py --output benchmarks/results/BENCH_index.json

bench-index-smoke:
	$(PYTHON) scripts/bench_index_smoke.py

# Cold start: per entry point (numpy as the floor, repro, repro.index,
# repro.trajectory, repro.api, .cluster, .gateway, repro.cli) the median
# import wall time, ru_maxrss and loaded-module counts over fresh
# interpreters (run it with PYTHONDONTWRITEBYTECODE=1 on trees without
# __pycache__: bytecode on one side only skews both columns), plus a
# cluster-worker's exec-to-ready time and a trajcl cluster's two
# recovery costs (join handshake ms + bytes per worker; rejoin() of a
# 2000-trajectory worker from a replica), kept by label in the startup
# record (`make bench-startup LABEL=pr15`; the script's `--src` measures
# another checkout, e.g. the parent commit).
bench-startup:
	$(PYTHON) benchmarks/bench_startup.py --label $(or $(LABEL),current) --output benchmarks/results/BENCH_startup.json

# The local worker link by frame size: one (rows, 64) float32 array
# round-tripped through a forked ServiceNode at 64 KiB .. 64 MiB, both
# processes on one CPU and on one CPU each, plus `ingest_512`: the
# codec's encode and decode of one 512-trajectory set-up chunk; medians
# with quartiles, merged by row name into the transport record under the
# e2e benchmark's malloc settings. A before row is the same script with
# another checkout's src on PYTHONPATH and `--label` (see the script).
# ~1 min, peak ~0.3 GB. Outside tier-1.
bench-transport:
	MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=1099511627776 OPENBLAS_NUM_THREADS=1 NUMPY_MADVISE_HUGEPAGE=0 $(PYTHON) benchmarks/bench_transport.py --output benchmarks/results/BENCH_transport.json

# The repo's declared benchmark (BENCHMARK.json; workloads, metrics and
# bounds in benchmarks/e2e/README.md): every workload end to end plus
# the traced per-layer ladder, written to benchmarks/e2e/results/. The
# selftest checks the harness's own helpers in seconds, no services.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

bench-e2e-selftest:
	$(PYTHON) benchmarks/e2e/run.py --selftest

# The benchmark keeps running against the product: the selftest, one
# traced in-process run (every name the span shims patch resolves), one
# untraced and one traced run through the HTTP edge (the traced one
# checks that the shims still find their names inside the edge and TCP
# worker processes), one untraced and one traced run behind the forked
# local workers — the runs that cross both a fork and the vector path
# (their 512-row set-up chunks deal each shard a 64 KiB float32 array
# over an AF_UNIX socket pair; the untraced one is the path
# remote_sharded's peak_rss_mb is measured on) — and one traced run of
# the only workload on an index that trains (pq: pending floats ->
# k-means inside the first traced search -> the residency gauge flips),
# each once at --quick length.
# Exit 0 only when every answer matches the oracle and nothing leaked:
# no process, no /dev/shm/repro_wire_* segment.
bench-e2e-smoke: bench-e2e-selftest
	$(PYTHON) benchmarks/e2e/run.py --quick --workload scan_inproc --trace 1
	$(PYTHON) benchmarks/e2e/run.py --quick --workload edge_http --trace 0
	$(PYTHON) benchmarks/e2e/run.py --quick --workload edge_http --trace 1
	$(PYTHON) benchmarks/e2e/run.py --quick --workload remote_sharded --trace 0
	$(PYTHON) benchmarks/e2e/run.py --quick --workload remote_sharded --trace 1
	$(PYTHON) benchmarks/e2e/run.py --quick --workload ann_inproc --trace 1
