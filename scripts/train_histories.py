"""Print every learner's same-seed training history, bit for bit.

Each learner trains on a tiny fixed dataset at fixed seeds: TrajCL's
contrastive trainer, its two fine-tune heads (``HeuristicApproximator``
in both unfrozen modes, ``FrozenBackboneApproximator`` over t2vec) and
the eight baselines. For each, this prints the per-epoch losses as float
hex, a sha256 of the parameters and, where the learner has one, of its
``distance_matrix`` (with the fitted ``target_scale`` as hex). The
trainer and CSTRM runs end every epoch on a batch of one, which both
skip. Two more rows build TrajCL from raw trajectories the way a user
does, through ``build_city_pipeline`` and through
``get_backend("trajcl", trajectories=...)`` (node2vec cell table, the
builders' preset configuration, one epoch), and add a sha256 of the
cell table.

Diffing the output of two checkouts shows whether a change to the
training code left every step as it was::

    PYTHONPATH=src python scripts/train_histories.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/train_histories.py > before.txt
    diff before.txt after.txt

``make train-histories`` runs it on this checkout (~2 s). Outside
tier-1; always exits 0: it reports, the diff judges.
"""

from __future__ import annotations

import hashlib
import os
import sys
import warnings

# PYTHONPATH wins: this falls back to the checkout the script lives in
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro import baselines  # noqa: E402
from repro.api import get_backend  # noqa: E402
from repro.core import (  # noqa: E402
    FeatureEnrichment,
    FrozenBackboneApproximator,
    HeuristicApproximator,
    TrajCL,
    TrajCLConfig,
    TrajCLTrainer,
)
from repro.eval import build_city_pipeline  # noqa: E402
from repro.measures import Hausdorff  # noqa: E402
from repro.trajectory import Grid  # noqa: E402

#: every epoch of the trainer and of CSTRM (both batch 4) ends on one
N_TRAJECTORIES = 9
EPOCHS = 2


def trajectories(n=N_TRAJECTORIES, seed=0):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.standard_normal((int(rng.integers(12, 24)), 2)) * 60,
                      axis=0) + 3000.0 for _ in range(n)]


def sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def parameters_sha(module) -> str:
    state = module.state_dict()
    return sha(*(state[name] for name in sorted(state)))


def report(name, losses, module, *, matrix=None, scale=None, cells=None):
    print(f"{name}")
    print(f"  losses  {' '.join(float(loss).hex() for loss in losses)}")
    print(f"  params  {parameters_sha(module)}")
    if cells is not None:
        print(f"  cells   {sha(cells)}")
    if scale is not None:
        print(f"  scale   {float(scale).hex()}")
    if matrix is not None:
        print(f"  matrix  {sha(matrix)}")


def trajcl_model(data, seed):
    grid = Grid.covering(data, cell_size=250)
    config = TrajCLConfig(structural_dim=8, max_len=24, projection_dim=4,
                          queue_size=16, batch_size=4, max_epochs=EPOCHS)
    cells = np.random.default_rng(seed).standard_normal((grid.n_cells, 8))
    features = FeatureEnrichment(grid, cells, max_len=config.max_len)
    return TrajCL(features, config, rng=np.random.default_rng(seed + 1))


def run_trajcl(data):
    model = trajcl_model(data, seed=1)
    history = TrajCLTrainer(model, rng=np.random.default_rng(3)).fit(data)
    report("trajcl-trainer", history.losses, model)
    for mode, seed in (("last_layer", 10), ("all", 20)):
        model = trajcl_model(data, seed=seed)
        head = HeuristicApproximator(model, mode=mode,
                                     rng=np.random.default_rng(seed + 2))
        history = head.fit(data, Hausdorff(), epochs=EPOCHS,
                           pairs_per_epoch=24, batch_size=8,
                           rng=np.random.default_rng(seed + 3))
        report(f"trajcl-finetune-{mode}", history.losses, head,
               matrix=head.distance_matrix(data[:3], data),
               scale=head.target_scale)


def run_builders():
    """The two public ways to build TrajCL from raw trajectories."""
    pipeline = build_city_pipeline("xian", n_trajectories=24,
                                   grid_cells_per_side=8, train_epochs=1)
    model = pipeline.model
    report("build-city-pipeline", pipeline.history.losses, model,
           cells=model.features.cell_embeddings)

    backend = get_backend("trajcl", trajectories=pipeline.trajectories,
                          dim=8, max_len=16, grid_cells_per_side=8)
    report("trajcl-backend-factory", backend.history.losses, backend.model,
           cells=backend.model.features.cell_embeddings)


def run_self_supervised(data, grid, bbox):
    built = {
        "t2vec": baselines.T2Vec(grid, embedding_dim=8, hidden_dim=8,
                                 max_len=24, rng=np.random.default_rng(30)),
        "e2dtc": baselines.E2DTC(grid, n_clusters=3, embedding_dim=8,
                                 hidden_dim=8, max_len=24,
                                 rng=np.random.default_rng(31)),
        "trjsr": baselines.TrjSR(bbox, low_res=8, high_res=16, channels=4,
                                 rng=np.random.default_rng(32)),
        "cstrm": baselines.CSTRM(grid, embedding_dim=8, num_heads=2,
                                 num_layers=1, max_len=24,
                                 rng=np.random.default_rng(33)),
    }
    for seed, (name, model) in enumerate(built.items(), start=40):
        losses = model.fit(data, epochs=EPOCHS, batch_size=4,
                           rng=np.random.default_rng(seed))
        report(name, losses, model,
               matrix=model.distance_matrix(data[:3], data))

    base = built["t2vec"]
    before = parameters_sha(base)
    head = FrozenBackboneApproximator(base, dim=base.output_dim,
                                      rng=np.random.default_rng(50))
    history = head.fit(data, Hausdorff(), epochs=EPOCHS, pairs_per_epoch=24,
                       batch_size=8, rng=np.random.default_rng(51))
    report("frozen-head-over-t2vec", history.losses, head.mlp,
           matrix=head.distance_matrix(data[:3], data),
           scale=head.target_scale)
    print(f"  base    {'unchanged' if parameters_sha(base) == before else 'CHANGED'}")


def run_supervised(data, grid):
    built = {
        "neutraj": baselines.NeuTraj(grid, hidden_dim=8, max_len=24,
                                     rng=np.random.default_rng(60)),
        "traj2simvec": baselines.Traj2SimVec(hidden_dim=8, max_len=24,
                                             rng=np.random.default_rng(61)),
        "t3s": baselines.T3S(grid, hidden_dim=8, num_heads=2, num_layers=1,
                             max_len=24, rng=np.random.default_rng(62)),
        "trajgat": baselines.TrajGAT(hidden_dim=8, num_heads=2, num_layers=1,
                                     max_len=24, rng=np.random.default_rng(63)),
    }
    for seed, (name, model) in enumerate(built.items(), start=70):
        history = model.fit(data, Hausdorff(), epochs=EPOCHS, pairs=24,
                            batch_size=8, rng=np.random.default_rng(seed))
        report(name, history.losses, model,
               matrix=model.distance_matrix(data[:3], data),
               scale=model.target_scale)


def main() -> int:
    warnings.simplefilter("ignore")  # an all-skipped epoch's mean of nothing
    data = trajectories()
    grid = Grid.covering(data, cell_size=250)
    points = np.concatenate(data)
    bbox = (*points.min(axis=0), *points.max(axis=0))
    print(f"# {len(data)} trajectories, {EPOCHS} epochs per learner")
    run_trajcl(data)
    run_builders()
    run_self_supervised(data, grid, bbox)
    run_supervised(data, grid)
    return 0


if __name__ == "__main__":
    sys.exit(main())
