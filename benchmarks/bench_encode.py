"""Encode-throughput benchmark: fused inference engine vs reference path.

Measures trajectories/second of ``TrajCL.encode`` on a synthetic-preset
database across batch sizes, for the reference Tensor-graph path and the
fused numpy :class:`~repro.core.InferenceEncoder` in float64 and float32.
``batch`` is the workload handed to one ``encode(batch_size=batch)``
call; the fast path additionally splits it into length buckets of
``bucket_size`` rows (the engine default), which is part of what is
being measured.
Results merge scenario-by-scenario into
``benchmarks/results/BENCH_encode.json`` (scenarios not re-run keep
their previous numbers), so the encode perf trajectory accumulates across
PRs instead of resetting.

Run via ``make bench-encode`` or::

    python benchmarks/bench_encode.py --output benchmarks/results/BENCH_encode.json

Not part of the tier-1 test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence


def _build(args):
    from repro.api import get_backend
    from repro.datasets import generate_city, get_preset

    trajectories = generate_city(get_preset(args.city), args.count,
                                 seed=args.seed)
    # Throughput does not depend on training; epochs=0 keeps setup fast.
    backend = get_backend(
        "trajcl", trajectories=trajectories, dim=args.dim,
        max_len=args.max_len, epochs=args.train_epochs,
        train=args.train_epochs > 0, seed=args.seed,
    )
    return backend.model, trajectories


def _throughput(encode, n_trajectories: int, repeats: int) -> float:
    """Best-of-``repeats`` trajectories/second (after one warm-up call)."""
    encode()  # warm-up: engine compilation, caches, BLAS threads
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        encode()
        best = min(best, time.perf_counter() - start)
    return n_trajectories / max(best, 1e-9)


def run_scenarios(args) -> Dict[str, Dict]:
    """``{scenario_name: {"results": {...}}}`` for the requested sweep."""
    model, trajectories = _build(args)
    scenarios: Dict[str, Dict] = {}
    for batch in args.batch_sizes:
        batch = min(batch, len(trajectories))
        subset = trajectories[:batch]
        reference = _throughput(
            lambda: model.encode(subset, batch_size=batch, fast=False),
            batch, args.repeats,
        )
        scenarios[f"reference_b{batch}"] = {"results": {
            "mode": "reference", "dtype": "float64", "batch": batch,
            "traj_per_sec": round(reference, 2),
        }}
        for dtype in args.dtypes:
            fast = _throughput(
                lambda: model.encode(subset, batch_size=batch, fast=True,
                                     dtype=dtype,
                                     bucket_size=args.bucket_size),
                batch, args.repeats,
            )
            scenarios[f"fast_{dtype}_b{batch}"] = {"results": {
                "mode": "fast", "dtype": dtype, "batch": batch,
                "traj_per_sec": round(fast, 2),
                "reference_traj_per_sec": round(reference, 2),
                "speedup_vs_reference": round(fast / reference, 2),
            }}
    return scenarios


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="TrajCL encode-throughput benchmark (fast vs reference)"
    )
    parser.add_argument("--city", default="porto",
                        choices=["porto", "chengdu", "xian", "germany"])
    parser.add_argument("--count", type=int, default=256,
                        help="synthetic database size")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--max-len", type=int, default=64)
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[32, 256])
    parser.add_argument("--dtypes", nargs="+", default=["float64", "float32"],
                        choices=["float32", "float64"])
    parser.add_argument("--bucket-size", type=int, default=64,
                        help="fast-path length-bucket width (rows)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--train-epochs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output",
                        help="merge the result JSON here, keyed by scenario "
                             "(e.g. benchmarks/results/BENCH_encode.json)")
    args = parser.parse_args(argv)

    scenarios = run_scenarios(args)
    config = {
        "city": args.city, "count": args.count, "dim": args.dim,
        "max_len": args.max_len, "bucket_size": args.bucket_size,
        "repeats": args.repeats,
        "train_epochs": args.train_epochs, "seed": args.seed,
    }

    from repro.eval import format_table

    rows: List[List] = []
    for name in sorted(scenarios):
        r = scenarios[name]["results"]
        rows.append([name, r["batch"], r["dtype"], r["traj_per_sec"],
                     r.get("speedup_vs_reference", 1.0)])
    print(format_table(
        ["scenario", "batch", "dtype", "traj/s", "vs reference"], rows))

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
