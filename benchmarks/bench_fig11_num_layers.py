"""Paper Fig. 11 — impact of the number of encoder layers.

#layers is swept; paper shape: accuracy improves from 1 to a few layers
then saturates/drops (overfitting), while train/encode cost grows roughly
linearly — hence the default of 2 layers.
"""

import numpy as np

from repro.core import TrajCL, TrajCLTrainer
from repro.datasets import perturb_instance
from repro.eval import evaluate_mean_rank, format_table, make_instance

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, save_result

LAYER_COUNTS = [1, 2, 3]
EPOCHS = 2


def test_fig11_encoder_layers(benchmark, porto_pipeline):
    trajectories = porto_pipeline.trajectories
    base = make_instance(trajectories, n_queries=N_QUERIES,
                         database_size=DB_SIZE, seed=SEED + 140)
    instance = perturb_instance(base, "downsample", 0.2,
                                np.random.default_rng(SEED + 141))

    def run():
        rows = []
        for n_layers in LAYER_COUNTS:
            config = porto_pipeline.model.config.with_overrides(num_layers=n_layers)
            model = TrajCL(porto_pipeline.model.features, config,
                           rng=np.random.default_rng(SEED + 142))
            history = TrajCLTrainer(
                model, rng=np.random.default_rng(SEED + 143)
            ).fit(trajectories, epochs=EPOCHS)
            rows.append([
                n_layers,
                evaluate_mean_rank(model, instance),
                history.total_seconds,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["#layers", "mean rank (down=0.2)", "train (s)"], rows)
    save_result("fig11_num_layers", table)

    times = [row[2] for row in rows]
    assert times[-1] > times[0], "more layers must cost more training time"
