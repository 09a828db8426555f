"""Paper Fig. 9 — sensitivity to the augmentation parameters ρ_d × ρ_b.

The mask ratio ρ_d and truncation keep-ratio ρ_b are swept over a grid.
Paper shape: performance is flat except at extreme values (0.1 / 0.9 make
the views too similar or too different from the input); the defaults
ρ_d = 0.3, ρ_b = 0.7 sit in the flat optimum.
"""

import numpy as np

from repro.core import TrajCL, TrajCLTrainer
from repro.datasets import perturb_instance
from repro.eval import evaluate_mean_rank, format_table, make_instance

from benchmarks.common import DB_SIZE, N_QUERIES, SEED, save_result

MASK_RATIOS = [0.1, 0.3, 0.5, 0.7, 0.9]
KEEP_RATIOS = [0.3, 0.7, 0.9]  # truncate keep (columns)
GRID_EPOCHS = 2


def test_fig9_augmentation_parameters(benchmark, porto_pipeline):
    trajectories = porto_pipeline.trajectories
    base = make_instance(trajectories, n_queries=25,
                         database_size=len(trajectories) - 10, seed=SEED + 120)
    instance = perturb_instance(base, "downsample", 0.5,
                                np.random.default_rng(SEED + 121))

    def run():
        scores = {}
        for mask_ratio in MASK_RATIOS:
            for keep in KEEP_RATIOS:
                config = porto_pipeline.model.config.with_overrides(
                    augmentations=("mask", "truncate"),
                    mask_ratio=mask_ratio,
                    truncate_keep=keep,
                )
                model = TrajCL(porto_pipeline.model.features, config,
                               rng=np.random.default_rng(SEED + 122))
                TrajCLTrainer(model, rng=np.random.default_rng(SEED + 123)).fit(
                    trajectories, epochs=GRID_EPOCHS
                )
                scores[(mask_ratio, keep)] = evaluate_mean_rank(model, instance)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"rho_d={mask_ratio}"] + [scores[(mask_ratio, keep)] for keep in KEEP_RATIOS]
        for mask_ratio in MASK_RATIOS
    ]
    table = format_table(
        ["mask \\ keep"] + [f"rho_b={keep}" for keep in KEEP_RATIOS], rows
    )
    save_result("fig9_augmentation_params", table)

    default = scores[(0.3, 0.7)]
    extreme = scores[(0.9, 0.3)]
    assert default <= extreme + 0.5, (
        "the paper-default rho_d=0.3/rho_b=0.7 should beat the extreme corner"
    )
