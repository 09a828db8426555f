"""Paper Fig. 12 — impact of the negative-queue size |Q_neg|.

The MoCo queue capacity is swept. Paper shape: larger queues (more
negatives per InfoNCE term) generally improve the embeddings — "more
negative samples help reduce the bias caused by a small sample set" — at
the cost of a higher loss floor during training.
"""

import numpy as np

from repro.core import TrajCL, TrajCLTrainer
from repro.datasets import perturb_instance
from repro.eval import evaluate_mean_rank, format_table, make_instance

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, save_result

QUEUE_SIZES = [32, 128, 512]
EPOCHS = 3


def test_fig12_negative_queue_size(benchmark, porto_pipeline):
    trajectories = porto_pipeline.trajectories
    base = make_instance(trajectories, n_queries=N_QUERIES,
                         database_size=DB_SIZE, seed=SEED + 150)
    instance = perturb_instance(base, "downsample", 0.2,
                                np.random.default_rng(SEED + 151))

    def run():
        rows = []
        for queue_size in QUEUE_SIZES:
            config = porto_pipeline.model.config.with_overrides(queue_size=queue_size)
            model = TrajCL(porto_pipeline.model.features, config,
                           rng=np.random.default_rng(SEED + 152))
            history = TrajCLTrainer(
                model, rng=np.random.default_rng(SEED + 153)
            ).fit(trajectories, epochs=EPOCHS)
            rows.append([
                queue_size,
                evaluate_mean_rank(model, instance),
                history.losses[-1],
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["|Q_neg|", "mean rank (down=0.2)", "final loss"], rows)
    save_result("fig12_queue_size", table)

    assert all(np.isfinite(row[1]) for row in rows)
    # Larger queues raise the InfoNCE floor (more negatives in the softmax).
    assert rows[-1][2] >= rows[0][2] - 0.5
