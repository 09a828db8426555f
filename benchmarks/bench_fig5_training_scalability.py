"""Paper Fig. 5 — training scalability.

(a) mean rank vs number of training epochs (learning curve, evaluated at
    every epoch through the trainer callback);
(b) mean rank vs number of training trajectories.

Paper shape: accuracy saturates after a handful of epochs (Fig. 5a: "by
the 7th epoch TrajCL has already achieved a satisfactory performance") and
improves with more training data with diminishing returns (Fig. 5b).
"""

import numpy as np

from repro.core import TrajCL, TrajCLTrainer
from repro.datasets import perturb_instance
from repro.eval import evaluate_mean_rank, format_table, make_instance

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, save_result

EPOCHS = 5
TRAIN_SIZES = [60, 120, 240]


def test_fig5a_mean_rank_vs_epochs(benchmark, porto_pipeline, porto_instance):
    # Evaluate on a down-sampled instance: the clean odd/even task saturates
    # at rank 1 immediately at this scale, hiding the learning curve.
    hard_instance = perturb_instance(
        porto_instance, "downsample", 0.3, np.random.default_rng(SEED + 69)
    )
    model = TrajCL(porto_pipeline.model.features, porto_pipeline.model.config,
                   rng=np.random.default_rng(SEED + 70))
    trainer = TrajCLTrainer(model, rng=np.random.default_rng(SEED + 71))
    curve = []

    def record(epoch, loss):
        curve.append([
            epoch + 1, loss, evaluate_mean_rank(model, hard_instance)
        ])

    def run():
        curve.clear()
        trainer.fit(porto_pipeline.trajectories, epochs=EPOCHS, callback=record)
        return curve

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["epoch", "loss", "mean rank"], rows)
    save_result("fig5a_mean_rank_vs_epochs", table)

    assert rows[-1][2] <= rows[0][2], (
        "mean rank after training must not be worse than after one epoch"
    )


def test_fig5b_mean_rank_vs_training_size(benchmark, porto_pipeline):
    instance = perturb_instance(
        make_instance(
            porto_pipeline.trajectories, n_queries=N_QUERIES,
            database_size=DB_SIZE, seed=SEED + 72,
        ),
        "downsample", 0.3, np.random.default_rng(SEED + 75),
    )

    def run():
        rows = []
        for size in TRAIN_SIZES:
            model = TrajCL(porto_pipeline.model.features, porto_pipeline.model.config,
                           rng=np.random.default_rng(SEED + 73))
            trainer = TrajCLTrainer(model, rng=np.random.default_rng(SEED + 74))
            history = trainer.fit(porto_pipeline.trajectories[:size], epochs=3)
            rows.append([
                size,
                evaluate_mean_rank(model, instance),
                history.total_seconds,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["#train trajectories", "mean rank", "train (s)"], rows)
    save_result("fig5b_mean_rank_vs_training_size", table)

    assert rows[-1][1] <= rows[0][1] + 1.0, (
        "more training data should not hurt mean rank materially"
    )
