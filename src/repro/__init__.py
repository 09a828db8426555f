"""repro — a from-scratch reproduction of TrajCL (ICDE 2023).

*Contrastive Trajectory Similarity Learning with Dual-Feature Attention*
(Chang, Qi, Liang, Tanin), rebuilt as a self-contained Python library:

* :mod:`repro.api` — **the canonical entry point**: one backend registry
  and :class:`~repro.api.SimilarityService` facade over every similarity
  method and kNN index in the repo;
* :mod:`repro.core` — the TrajCL model (augmentations, dual-feature
  attention encoder, MoCo contrastive training, heuristic fine-tuning);
* :mod:`repro.nn` — the numpy autodiff / neural-network substrate;
* :mod:`repro.trajectory` — trajectory primitives, grids, simplification;
* :mod:`repro.measures` — Hausdorff, Fréchet, EDR, EDwP heuristics;
* :mod:`repro.graph` — node2vec over the grid-cell graph;
* :mod:`repro.baselines` — t2vec, E2DTC, TrjSR, CSTRM, NeuTraj,
  Traj2SimVec, T3S, TrajGAT;
* :mod:`repro.datasets` — synthetic city datasets + the §V protocol;
* :mod:`repro.index` — IVFFlat and segment-based kNN indexes;
* :mod:`repro.eval` — mean rank, HR@k, experiment pipeline.

Subpackages and the five re-exported names below load on first access
(``repro.api``, ``repro.TrajCL``, ``from repro import index``), so
``import repro`` — and a process that imports only ``repro.api`` — pays
for nothing it does not use.

Quickstart — every method is a named backend behind one service::

    from repro.api import SimilarityService, available_backends
    from repro.eval import build_city_pipeline

    available_backends()        # trajcl + 8 learned baselines + 4 heuristics

    pipeline = build_city_pipeline("porto", n_trajectories=240)
    service = SimilarityService(backend=pipeline.model, index="ivf")
    service.add(pipeline.trajectories)

    # 3 nearest neighbours of trajectory 7 (excluding itself).
    distances, ids = service.knn(pipeline.trajectories[7], k=3, exclude=7)

    service.save("porto.npz")   # config + weights + index state, one file
    service = SimilarityService.load("porto.npz")

The same queries run against any backend by name, e.g.
``SimilarityService(backend="hausdorff")`` (exact heuristic kNN with the
segment index) or ``SimilarityService(backend="t2vec",
backend_kwargs={"trajectories": trajs})``.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

_SUBPACKAGES = (
    "nn",
    "trajectory",
    "measures",
    "graph",
    "core",
    "baselines",
    "datasets",
    "index",
    "eval",
    "api",
)
#: subpackage -> the names ``repro`` re-exports from it
_REEXPORTS = {
    "api": ("SimilarityService", "available_backends", "get_backend"),
    "core": ("TrajCL", "TrajCLConfig"),
}

__all__ = [*_SUBPACKAGES, *(name for names in _REEXPORTS.values()
                            for name in names), "__version__"]

# PEP 562: a serving process that imports ``repro.api`` should not pay for
# the baselines, datasets and evaluation harness it never calls.
__getattr__, __dir__ = lazy_exports(globals(), _REEXPORTS, _SUBPACKAGES)
