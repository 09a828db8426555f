"""ANN index benchmark: recall@k vs bytes/vector vs queries/second.

Sweeps the registered index backends (``bruteforce``, ``ivf``, ``pq``,
``int8``, ``hnsw``) over a synthetic float32 embedding database (the
dtype the encoder serves) and records, per
scenario: build time, resident ``memory_bytes`` (the compressed indexes
drop their float originals after training), bytes/vector, query
throughput, recall@k against the bruteforce ground truth, and — where
the index counts them — distance evaluations per query.

The synthetic source is *low-rank clustered* gaussians rather than
isotropic noise: learned trajectory embeddings concentrate near a
low-dimensional manifold with cluster structure, and product
quantization's per-subspace codebooks exploit exactly that. Isotropic
data is the PQ worst case and says nothing about embedding workloads.

``pq`` is the served default (16 subspaces x 256 centroids); three more
``pq`` scenarios span its options: ``pq_24x256`` (24 subspaces, 1.5x the
code bytes), ``pq_32x64`` (32 subspaces of 64 centroids, twice the code
bytes) and ``pq_refine`` (``pq`` plus a float16 copy re-ranking 4 * k
candidates).

Results merge scenario-by-scenario into
``benchmarks/results/BENCH_index.json`` (same preserve-prior-numbers
discipline as ``BENCH_encode.json``), so the recall/memory/latency
trajectory accumulates across PRs. ``--label`` suffixes the row names,
so a before/after pair is the same command run against two checkouts
(the script needs only ``repro.index``/``repro.api`` from its
``PYTHONPATH``).

Run via ``make bench-index`` (10^5 vectors) or directly::

    python benchmarks/bench_index.py --count 100000 \
        --output benchmarks/results/BENCH_index.json

Not part of the tier-1 test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np


def synthetic_embeddings(count: int, dim: int, *, rank: int = 10,
                         clusters: int = 64, seed: int = 0) -> np.ndarray:
    """Low-rank clustered float32 gaussians standing in for learned
    embeddings."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    mix = rng.normal(size=(rank, dim))
    assign = rng.integers(0, clusters, size=count)
    vectors = centers[assign] + (rng.normal(size=(count, rank)) @ mix) * 0.5
    return vectors.astype(np.float32)


def recall_at_k(truth: np.ndarray, found: np.ndarray) -> float:
    """Mean |truth ∩ found| / k over query rows (``-1`` pad ignored)."""
    hits = 0
    for truth_row, found_row in zip(truth, found):
        hits += len(set(truth_row[truth_row >= 0])
                    & set(found_row[found_row >= 0]))
    return hits / float(truth.shape[0] * truth.shape[1])


def _index_configs(args) -> Dict[str, Dict]:
    """Scenario name -> get_index kwargs for the sweep."""
    configs: Dict[str, Dict] = {
        "bruteforce": {},
        "ivf": {"n_lists": args.lists, "n_probe": max(1, args.lists // 4),
                "seed": args.seed},
        "pq": {"n_subspaces": args.pq_subspaces, "n_centroids": 256,
               "train_sample": args.train_sample, "seed": args.seed},
        "pq_32x64": {"n_subspaces": 32, "n_centroids": 64,
                     "train_sample": args.train_sample, "seed": args.seed},
        "pq_24x256": {"n_subspaces": 24, "n_centroids": 256,
                      "train_sample": args.train_sample, "seed": args.seed},
        "int8": {"train_sample": args.train_sample},
        "hnsw": {"m": args.hnsw_m, "ef_construction": args.ef_construction,
                 "ef_search": args.ef_search, "seed": args.seed},
    }
    configs["pq_refine"] = dict(configs["pq"], refine_factor=4,
                                refine_dtype="float16")
    return {name: configs[name] for name in args.indexes}


def run_scenarios(args) -> Dict[str, Dict]:
    """``{scenario_name: {"results": {...}}}`` for the requested sweep."""
    from repro.api import get_index

    # One draw, then split: queries must come from the same distribution
    # (same cluster centers / mixing matrix) as the database, as embedded
    # queries would in production.
    pool = synthetic_embeddings(
        args.count + args.queries, args.dim, rank=args.rank,
        clusters=args.clusters, seed=args.seed,
    )
    data, queries = pool[:args.count], pool[args.count:]
    float32_bytes = args.count * args.dim * 4

    # Ground truth once, from the exact scan.
    truth_index = get_index("bruteforce")
    truth_index.add(data)
    _, truth = truth_index.search(queries, args.k)

    scenarios: Dict[str, Dict] = {}
    for name, kwargs in _index_configs(args).items():
        backend = name.split("_")[0]
        index = get_index(backend, **kwargs)
        start = time.perf_counter()
        index.add(data)
        index.search(queries[:1], args.k)  # force lazy train/build
        build_s = time.perf_counter() - start

        evals_before = getattr(index, "distance_evaluations", None)
        start = time.perf_counter()
        _, found = index.search(queries, args.k)
        elapsed = max(time.perf_counter() - start, 1e-9)
        evals_after = getattr(index, "distance_evaluations", None)

        stats = index.stats()
        memory = int(stats.get("memory_bytes", 0))
        results = {
            "index": backend,
            "kwargs": {key: value for key, value in kwargs.items()
                       if value is not None},
            "build_s": round(build_s, 3),
            "memory_bytes": memory,
            "bytes_per_vector": round(memory / args.count, 2),
            "memory_reduction_vs_float32": round(
                float32_bytes / max(memory, 1), 2),
            "qps": round(args.queries / elapsed, 1),
            f"recall_at_{args.k}": round(recall_at_k(truth, found), 4),
        }
        if evals_after is not None:
            results["distance_evals_per_query"] = round(
                (evals_after - (evals_before or 0)) / args.queries, 1)
        label = f"@{args.label}" if args.label else ""
        scenarios[f"{name}_n{args.count}{label}"] = {"results": results}
    return scenarios


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="ANN index benchmark: recall vs memory vs throughput"
    )
    parser.add_argument("--count", type=int, default=100000,
                        help="database size (vectors)")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--rank", type=int, default=10,
                        help="intrinsic dimensionality of the synthetic data")
    parser.add_argument("--clusters", type=int, default=64)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--indexes", nargs="+",
                        default=["bruteforce", "ivf", "pq", "pq_24x256",
                                 "pq_32x64", "pq_refine", "int8", "hnsw"],
                        help="scenario names")
    parser.add_argument("--lists", type=int, default=64)
    parser.add_argument("--pq-subspaces", type=int, default=16)
    parser.add_argument("--hnsw-m", type=int, default=16)
    parser.add_argument("--ef-construction", type=int, default=64)
    parser.add_argument("--ef-search", type=int, default=32)
    parser.add_argument("--train-sample", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label",
                        help="suffix the rows `@label` (a before/after pair "
                             "from two checkouts in one record)")
    parser.add_argument("--output",
                        help="merge the result JSON here, keyed by scenario "
                             "(e.g. benchmarks/results/BENCH_index.json)")
    args = parser.parse_args(argv)

    config = {
        "count": args.count, "dim": args.dim, "rank": args.rank,
        "clusters": args.clusters, "queries": args.queries, "k": args.k,
        "train_sample": args.train_sample, "seed": args.seed,
    }
    print(f"config: {json.dumps(config, sort_keys=True)}")
    scenarios = run_scenarios(args)

    from repro.eval import format_table

    rows: List[List] = []
    for name in sorted(scenarios):
        r = scenarios[name]["results"]
        rows.append([
            name, r["build_s"], r["bytes_per_vector"],
            r["memory_reduction_vs_float32"], r["qps"],
            r[f"recall_at_{args.k}"],
            r.get("distance_evals_per_query", "-"),
        ])
    print(format_table(
        ["scenario", "build s", "B/vec", "mem red.", "q/s",
         f"recall@{args.k}", "evals/q"], rows))

    if args.output:
        from common import merge_bench_scenarios

        existing = None
        if os.path.exists(args.output):
            try:
                with open(args.output) as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                existing = None
        merged = merge_bench_scenarios(existing, scenarios, config)
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(merged, handle, indent=2)
        print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
