"""Paper Table III — mean rank of the ground-truth match vs database size.

The §V-B protocol: odd/even split queries, databases of increasing size,
mean rank of the known most-similar trajectory. The paper's shape: TrajCL
stays ~1 and degrades far more slowly with |D| than the heuristics and the
recurrent/CNN learned baselines; EDR degrades fastest.

Scale note: database sizes are scaled from the paper's 20K–100K down to
fractions of the synthetic pool; the *relative ordering and growth trends*
are the reproduction target.
"""

import pytest

from repro.eval import make_instance

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, heuristic_backends, mean_rank_sweep, save_result


def test_table3_mean_rank_vs_dbsize(benchmark, porto_pipeline, porto_selfsup):
    trajectories = porto_pipeline.trajectories
    sizes = [max(DB_SIZE // 3, N_QUERIES + 5), 2 * DB_SIZE // 3, DB_SIZE]
    instances = {
        f"|D|={size}": make_instance(
            trajectories, n_queries=N_QUERIES, database_size=size, seed=SEED + 2
        )
        for size in sizes
    }
    methods = {
        **heuristic_backends(),
        **porto_selfsup,
        "TrajCL": porto_pipeline.model,
    }

    table = benchmark.pedantic(
        mean_rank_sweep, args=(methods, instances), rounds=1, iterations=1
    )
    save_result("table3_mean_rank_dbsize", table)

    largest = f"|D|={sizes[-1]}"
    from repro.eval import evaluate_mean_rank

    trajcl_rank = evaluate_mean_rank(porto_pipeline.model, instances[largest])
    edr_rank = evaluate_mean_rank(methods["EDR"], instances[largest])
    assert trajcl_rank <= 3.0, f"TrajCL mean rank {trajcl_rank} too far from 1"
    assert trajcl_rank <= edr_rank, "TrajCL must beat EDR (paper Table III)"
