"""Session-scoped fixtures shared across the benchmark suite.

Heavy resources (trained TrajCL pipelines, trained baselines) are built at
most once per pytest session and reused by every table/figure benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CSTRM, E2DTC, T2Vec, TrjSR
from repro.eval import build_city_pipeline, make_instance

from benchmarks.common import (
    DB_SIZE,
    N_QUERIES,
    N_TRAJECTORIES,
    SEED,
    TRAIN_EPOCHS,
)


@pytest.fixture(scope="session")
def porto_pipeline():
    """Trained TrajCL stack on the Porto-like city."""
    return build_city_pipeline(
        "porto", n_trajectories=N_TRAJECTORIES, train_epochs=TRAIN_EPOCHS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def xian_pipeline():
    """Trained TrajCL stack on the Xi'an-like city."""
    return build_city_pipeline(
        "xian", n_trajectories=N_TRAJECTORIES, train_epochs=TRAIN_EPOCHS,
        seed=SEED + 100,
    )


@pytest.fixture(scope="session")
def porto_instance(porto_pipeline):
    """The default Q/D evaluation instance on Porto."""
    return make_instance(
        porto_pipeline.trajectories, n_queries=N_QUERIES,
        database_size=DB_SIZE, seed=SEED + 1,
    )


@pytest.fixture(scope="session")
def porto_selfsup(porto_pipeline):
    """Self-supervised baselines trained on the Porto pipeline's data."""
    trajectories = porto_pipeline.trajectories
    grid = porto_pipeline.model.features.grid
    bbox = (grid.min_x, grid.min_y, grid.max_x, grid.max_y)
    rng_seed = SEED + 50

    t2vec = T2Vec(grid, embedding_dim=32, hidden_dim=32, max_len=64,
                  rng=np.random.default_rng(rng_seed))
    t2vec.fit(trajectories, epochs=2, batch_size=16,
              rng=np.random.default_rng(rng_seed + 1))

    e2dtc = E2DTC(grid, n_clusters=8, embedding_dim=32, hidden_dim=32,
                  max_len=64, rng=np.random.default_rng(rng_seed + 2))
    e2dtc.fit(trajectories, epochs=1, cluster_epochs=1, batch_size=16,
              rng=np.random.default_rng(rng_seed + 3))

    trjsr = TrjSR(bbox, low_res=16, high_res=32, channels=8,
                  rng=np.random.default_rng(rng_seed + 4))
    trjsr.fit(trajectories, epochs=2, batch_size=16,
              rng=np.random.default_rng(rng_seed + 5))

    cstrm = CSTRM(grid, embedding_dim=32, num_heads=4, num_layers=2,
                  max_len=64, rng=np.random.default_rng(rng_seed + 6))
    cstrm.fit(trajectories, epochs=2, batch_size=16,
              rng=np.random.default_rng(rng_seed + 7))

    return {"t2vec": t2vec, "E2DTC": e2dtc, "TrjSR": trjsr, "CSTRM": cstrm}
