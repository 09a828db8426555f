"""Paper Fig. 7 — ablation of the encoder components.

TrajCL (DualMSM) vs TrajCL-MSM (vanilla attention, no spatial features) vs
TrajCL-concat (vanilla attention on T ∥ S), both without fine-tuning (mean
rank under |D|, ρ_s, ρ_d settings) and with fine-tuning (HR@5 when
approximating a heuristic). Paper shape: TrajCL best, concat worst
("a direct concatenation can confuse the feature space").
"""

import numpy as np

from repro.core import HeuristicApproximator, TrajCL, TrajCLTrainer
from repro.datasets import downstream_split, perturb_instance
from repro.eval import (
    approximation_metrics,
    evaluate_mean_rank,
    format_table,
    make_instance,
)
from repro.api import get_backend

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, TRAIN_EPOCHS, save_result

VARIANTS = [("dual", "TrajCL"), ("msm", "TrajCL-MSM"), ("concat", "TrajCL-concat")]


def test_fig7_component_ablation(benchmark, porto_pipeline):
    trajectories = porto_pipeline.trajectories
    base = make_instance(trajectories, n_queries=N_QUERIES,
                         database_size=DB_SIZE, seed=SEED + 95)
    # Harder settings than Tables IV/V defaults: the clean instance
    # saturates at rank 1 for every variant at this scale.
    settings = {
        "down=0.4": perturb_instance(base, "downsample", 0.4,
                                     np.random.default_rng(SEED + 96)),
        "down=0.5": perturb_instance(base, "downsample", 0.5,
                                     np.random.default_rng(SEED + 103)),
        "dist=0.4": perturb_instance(base, "distort", 0.4,
                                     np.random.default_rng(SEED + 97)),
    }
    train, _val, test = downstream_split(
        trajectories, rng=np.random.default_rng(SEED + 98)
    )
    measure = get_backend("hausdorff")

    def run():
        rows = []
        for variant, label in VARIANTS:
            model = TrajCL(porto_pipeline.model.features, porto_pipeline.model.config,
                           encoder_variant=variant,
                           rng=np.random.default_rng(SEED + 99))
            TrajCLTrainer(model, rng=np.random.default_rng(SEED + 100)).fit(
                trajectories, epochs=TRAIN_EPOCHS
            )
            ranks = [evaluate_mean_rank(model, inst) for inst in settings.values()]

            approx = HeuristicApproximator(model, mode="last_layer",
                                           rng=np.random.default_rng(SEED + 101))
            approx.fit(train, measure, epochs=3, pairs_per_epoch=192,
                       batch_size=32, rng=np.random.default_rng(SEED + 102))
            hr5 = approximation_metrics(approx, measure, test[:8], test)["hr5"]
            rows.append([label] + ranks + [hr5])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["variant"] + [f"rank {k}" for k in settings] + ["HR@5 (finetune)"],
        rows,
    )
    save_result("fig7_ablation_components", table)

    by_label = {row[0]: row for row in rows}
    dual_mean = np.mean(by_label["TrajCL"][1:4])
    concat_mean = np.mean(by_label["TrajCL-concat"][1:4])
    assert dual_mean <= concat_mean + 0.5, (
        "DualMSM should not lose to the concat ablation on mean rank"
    )
