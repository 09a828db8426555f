"""Paper Fig. 10 — impact of the embedding dimensionality d.

d is swept (64..1024 in the paper, scaled here); each d needs its own
node2vec cell table since the structural dim equals d. Paper shape:
mid-range d suffices without fine-tuning (larger d overfits); inference
cost grows with d, hence the paper's choice of 256 as the balance point.
"""

import time

import numpy as np

from repro.core import FeatureEnrichment, TrajCL, TrajCLTrainer
from repro.datasets import perturb_instance
from repro.eval import evaluate_mean_rank, format_table, make_instance
from repro.graph import node2vec_embeddings

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, save_result

DIMS = [16, 32, 64]
EPOCHS = 2


def test_fig10_embedding_dimensionality(benchmark, porto_pipeline):
    trajectories = porto_pipeline.trajectories
    grid = porto_pipeline.model.features.grid
    base = make_instance(trajectories, n_queries=N_QUERIES,
                         database_size=DB_SIZE, seed=SEED + 130)
    instance = perturb_instance(base, "downsample", 0.2,
                                np.random.default_rng(SEED + 131))

    def run():
        rows = []
        for dim in DIMS:
            cells = node2vec_embeddings(grid, dim=dim, seed=SEED + 132)
            config = porto_pipeline.model.config.with_overrides(structural_dim=dim)
            features = FeatureEnrichment(grid, cells, max_len=config.max_len)
            model = TrajCL(features, config, rng=np.random.default_rng(SEED + 133))
            TrajCLTrainer(model, rng=np.random.default_rng(SEED + 134)).fit(
                trajectories, epochs=EPOCHS
            )
            rank = evaluate_mean_rank(model, instance)
            start = time.perf_counter()
            model.encode(trajectories[:100])
            encode_seconds = time.perf_counter() - start
            rows.append([dim, rank, encode_seconds])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["d", "mean rank (down=0.2)", "encode 100 trajs (s)"], rows)
    save_result("fig10_embedding_dim", table)

    assert all(np.isfinite(row[1]) for row in rows)
