"""Shared scale constants and helpers for the benchmark harnesses.

Every benchmark regenerates one of the paper's tables or figures at a
reduced, CPU-friendly scale. Scale knobs are environment variables so a
larger machine can push toward the paper's sizes without code changes:

* ``REPRO_BENCH_TRAJS``   — trajectories per city (default 300)
* ``REPRO_BENCH_EPOCHS``  — TrajCL pre-training epochs (default 3)
* ``REPRO_BENCH_QUERIES`` — queries per Q/D instance (default 15)
* ``REPRO_BENCH_DB``      — database size of the default instance (default 150)

Each benchmark writes its paper-shaped result table to
``benchmarks/results/<name>.txt`` (pytest captures stdout, so files are the
durable record).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.api import get_backend
from repro.datasets import perturb_instance
from repro.eval import evaluate_mean_rank, format_table, make_instance

N_TRAJECTORIES = int(os.environ.get("REPRO_BENCH_TRAJS", 300))
TRAIN_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", 3))
N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 15))
DB_SIZE = int(os.environ.get("REPRO_BENCH_DB", 150))
SEED = 0

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    """Persist a result table and echo it (visible with ``pytest -s``)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n(written to {path})")


def merge_bench_scenarios(existing: Optional[dict], scenarios: dict,
                          config: dict) -> dict:
    """Merge one run's scenarios into a prior ``BENCH_*.json`` record.

    Scenarios not re-run this time survive untouched, so the perf
    trajectory across PRs accumulates instead of resetting.
    """
    merged = {"scenarios": dict((existing or {}).get("scenarios", {}))}
    for name, payload in scenarios.items():
        merged["scenarios"][name] = {**payload, "config": config}
    return merged


def heuristic_backends() -> Dict[str, object]:
    """The four heuristic measures as registry backends, paper-labelled."""
    return {
        "EDR": get_backend("edr"),
        "EDwP": get_backend("edwp"),
        "Hausdorff": get_backend("hausdorff"),
        "Frechet": get_backend("frechet"),
    }


def mean_rank_sweep(
    methods: Dict[str, object],
    instances: Dict[str, object],
) -> str:
    """Evaluate every method on every (labelled) Q/D instance.

    Returns a paper-shaped table: one row per method, one column per
    instance label (e.g. database sizes or perturbation rates).
    """
    labels = list(instances)
    rows = []
    for method_name, method in methods.items():
        row = [method_name]
        for label in labels:
            row.append(evaluate_mean_rank(method, instances[label]))
        rows.append(row)
    return format_table(["method"] + labels, rows)


def perturbed_instances(
    trajectories: Sequence[np.ndarray],
    kind: str,
    rates: Sequence[float],
    n_queries: int = None,
    database_size: int = None,
    seed: int = SEED,
) -> Dict[str, object]:
    """One base Q/D instance perturbed at each rate (paper Tables IV/V)."""
    base = make_instance(
        trajectories,
        n_queries=n_queries or N_QUERIES,
        database_size=database_size or DB_SIZE,
        seed=seed + 10,
    )
    return {
        f"{kind[:4]}={rate}": perturb_instance(
            base, kind, rate, np.random.default_rng(seed + 20)
        )
        for rate in rates
    }
