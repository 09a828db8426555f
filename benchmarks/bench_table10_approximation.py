"""Paper Table X — approximating heuristic measures (HR@5 / HR@20 / R5@20).

The §V-F downstream task at reduced scale: every method is adapted to
predict a heuristic measure, then scored on how well its predicted top-k
recovers the measure's true top-k.

* self-supervised baselines (t2vec, TrjSR, E2DTC, CSTRM): frozen backbone
  + trained MLP head (``FrozenBackboneApproximator``);
* TrajCL: last-encoder-layer fine-tuning; TrajCL*: all layers;
* supervised (NeuTraj, Traj2SimVec, T3S, TrajGAT): trained end-to-end on
  the measure.

Paper shape: TrajCL* ranks first on average, TrajCL second; TrajGAT is
the strongest supervised method on Hausdorff.
"""

import numpy as np
import pytest

from repro.baselines import NeuTraj, T3S, Traj2SimVec, TrajGAT
from repro.core import FrozenBackboneApproximator, HeuristicApproximator
from repro.datasets import downstream_split
from repro.eval import approximation_metrics, format_table
from repro.api import get_backend

from benchmarks.common import SEED, save_result

MEASURES = ["hausdorff", "edwp"]
FIT = dict(epochs=4, batch_size=32)


def test_table10_heuristic_approximation(benchmark, porto_pipeline, porto_selfsup):
    train, _val, test = downstream_split(
        porto_pipeline.trajectories, rng=np.random.default_rng(SEED + 90)
    )
    queries, database = test[:10], test
    grid = porto_pipeline.model.features.grid

    def run():
        rows = []
        for measure_name in MEASURES:
            measure = get_backend(measure_name)

            # Pre-trained + fine-tuning: self-supervised baselines.
            for name, base in porto_selfsup.items():
                approx = FrozenBackboneApproximator(
                    base, dim=base.output_dim, rng=np.random.default_rng(SEED)
                )
                approx.fit(train, measure, pairs_per_epoch=256,
                           rng=np.random.default_rng(SEED + 1), **FIT)
                metrics = approximation_metrics(approx, measure, queries, database)
                rows.append([measure_name, name, metrics["hr5"],
                             metrics["hr20"], metrics["r5at20"]])

            # TrajCL (last layer) and TrajCL* (all layers).
            for mode, label in [("last_layer", "TrajCL"), ("all", "TrajCL*")]:
                approx = HeuristicApproximator(
                    porto_pipeline.model, mode=mode,
                    rng=np.random.default_rng(SEED + 2),
                )
                approx.fit(train, measure, pairs_per_epoch=256,
                           rng=np.random.default_rng(SEED + 3), **FIT)
                metrics = approximation_metrics(approx, measure, queries, database)
                rows.append([measure_name, label, metrics["hr5"],
                             metrics["hr20"], metrics["r5at20"]])

            # Supervised approximators trained end-to-end.
            supervised = {
                "NeuTraj": NeuTraj(grid, hidden_dim=32, max_len=64,
                                   rng=np.random.default_rng(SEED + 4)),
                "Traj2SimVec": Traj2SimVec(hidden_dim=32, max_len=64,
                                           rng=np.random.default_rng(SEED + 5)),
                "T3S": T3S(grid, hidden_dim=32, num_heads=4, num_layers=2,
                           max_len=64, rng=np.random.default_rng(SEED + 6)),
                "TrajGAT": TrajGAT(hidden_dim=32, num_heads=4, num_layers=2,
                                   max_len=64, rng=np.random.default_rng(SEED + 7)),
            }
            for name, model in supervised.items():
                model.fit(train, measure, epochs=FIT["epochs"], pairs=256,
                          batch_size=FIT["batch_size"],
                          rng=np.random.default_rng(SEED + 8))
                metrics = approximation_metrics(model, measure, queries, database)
                rows.append([measure_name, name, metrics["hr5"],
                             metrics["hr20"], metrics["r5at20"]])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["measure", "method", "HR@5", "HR@20", "R5@20"], rows)
    save_result("table10_approximation", table)

    # Shape check: TrajCL* beats the self-supervised baselines on average HR@5.
    def average_hr5(method):
        values = [row[2] for row in rows if row[1] == method]
        return float(np.mean(values))

    star = average_hr5("TrajCL*")
    for baseline in ["t2vec", "TrjSR", "E2DTC", "CSTRM"]:
        assert star >= average_hr5(baseline) - 0.05, (
            f"TrajCL* ({star:.3f}) should be at least on par with "
            f"{baseline} ({average_hr5(baseline):.3f})"
        )
