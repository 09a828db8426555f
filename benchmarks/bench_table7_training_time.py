"""Paper Table VII — training time of the learned measures.

One training epoch of each learned method on the same Porto-like data.
Paper shape: CSTRM (vanilla MSM) is slightly faster than TrajCL (DualMSM
adds the spatial branch); TrjSR, with its deep conv stack, is the slowest;
t2vec/E2DTC sit in between (recurrent steps dominate).
"""

import time

import numpy as np

from repro.baselines import CSTRM, E2DTC, T2Vec, TrjSR
from repro.core import TrajCL, TrajCLTrainer
from repro.eval import format_table

from benchmarks.common import SEED, save_result


def test_table7_training_time(benchmark, porto_pipeline):
    trajectories = porto_pipeline.trajectories[:150]
    grid = porto_pipeline.model.features.grid
    bbox = (grid.min_x, grid.min_y, grid.max_x, grid.max_y)

    def one_epoch_times():
        rows = []
        t2vec = T2Vec(grid, embedding_dim=32, hidden_dim=32, max_len=64,
                      rng=np.random.default_rng(SEED))
        start = time.perf_counter()
        t2vec.fit(trajectories, epochs=1, batch_size=16,
                  rng=np.random.default_rng(SEED))
        rows.append(["t2vec", time.perf_counter() - start])

        trjsr = TrjSR(bbox, low_res=16, high_res=32, channels=8,
                      rng=np.random.default_rng(SEED))
        start = time.perf_counter()
        trjsr.fit(trajectories, epochs=1, batch_size=16,
                  rng=np.random.default_rng(SEED))
        rows.append(["TrjSR", time.perf_counter() - start])

        e2dtc = E2DTC(grid, n_clusters=8, embedding_dim=32, hidden_dim=32,
                      max_len=64, rng=np.random.default_rng(SEED))
        start = time.perf_counter()
        e2dtc.fit(trajectories, epochs=1, cluster_epochs=1, batch_size=16,
                  rng=np.random.default_rng(SEED))
        rows.append(["E2DTC", time.perf_counter() - start])

        cstrm = CSTRM(grid, embedding_dim=32, num_heads=4, num_layers=2,
                      max_len=64, rng=np.random.default_rng(SEED))
        start = time.perf_counter()
        cstrm.fit(trajectories, epochs=1, batch_size=16,
                  rng=np.random.default_rng(SEED))
        rows.append(["CSTRM", time.perf_counter() - start])

        model = TrajCL(porto_pipeline.model.features, porto_pipeline.model.config,
                       rng=np.random.default_rng(SEED))
        trainer = TrajCLTrainer(model, rng=np.random.default_rng(SEED))
        start = time.perf_counter()
        trainer.fit(trajectories, epochs=1)
        rows.append(["TrajCL", time.perf_counter() - start])
        return rows

    rows = benchmark.pedantic(one_epoch_times, rounds=1, iterations=1)
    table = format_table(["method", "1-epoch train (s)"], rows)
    save_result("table7_training_time", table)

    times = {row[0]: row[1] for row in rows}
    # Paper §V-C: "TrajCL is only slightly slower than CSTRM ... CSTRM uses
    # the vanilla multi-head self-attention, which can be regarded as a
    # simplified version of our DualMSM and hence is faster to train".
    # (TrjSR's paper-slowness comes from its 13-conv stack on full-res
    # images; the reduced raster here is small.)
    assert times["CSTRM"] < times["TrajCL"], (
        "vanilla-MSM CSTRM should train faster than DualMSM TrajCL"
    )
    assert times["TrajCL"] < 3 * times["CSTRM"], (
        "TrajCL should be only modestly slower than CSTRM, not multiples"
    )
