"""Stock backend factories: TrajCL, the eight baselines, the four heuristics.

Importing this module populates the registry (the package ``__init__`` does
it for you). Three construction paths are supported uniformly:

* ``get_backend(name, model=...)`` — wrap an already-built (typically
  already-trained) model; used by the benchmarks, which manage training
  themselves;
* ``get_backend("trajcl", checkpoint=path)`` — load a saved pipeline;
* ``get_backend(name, trajectories=[...], epochs=..., seed=...)`` — train
  the method from scratch on the given trajectories at a reduced scale
  (the registry smoke-test / quick-experiment path).

The module also owns backend persistence (:func:`backend_state` /
:func:`restore_backend`): a JSON-able meta dict plus a flat array dict, the
representation :class:`~repro.api.service.SimilarityService` embeds in its
snapshots.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..trajectory.grid import Grid
from ..trajectory.trajectory import TrajectoryLike, as_points
from .protocols import (
    DISTANCE, EMBEDDING, BackendDescription, EmbeddingBackend, MeasureBackend,
    refuse_other_metric,
)
from .registry import get_backend, register_backend

__all__ = ["backend_state", "restore_backend", "shard_backend_state"]

_STATE_PREFIX = "weights/"
_AUX_PREFIX = "aux/"

#: heuristic measures, registered 1:1 from ``repro.measures``
_HEURISTICS = {
    "hausdorff": "symmetric point-set Hausdorff distance",
    "frechet": "discrete Fréchet distance",
    "edr": "edit distance on real sequences",
    "edwp": "edit distance with projections",
}

#: learned baselines: name -> (anchor, description); ``anchor`` is what the
#: constructor needs from the data ("grid", "bbox" or None)
_SELF_SUPERVISED = {
    "t2vec": ("grid", "GRU seq2seq denoising over cell tokens (ICDE 2018)"),
    "e2dtc": ("grid", "t2vec backbone + DEC cluster self-training (ICDE 2021)"),
    "trjsr": ("bbox", "CNN super-resolution over trajectory rasters (IJCNN 2021)"),
    "cstrm": ("grid", "vanilla-MSM contrastive with hinge loss (ComCom 2022)"),
}
_SUPERVISED = {
    "neutraj": ("grid", "LSTM + spatial memory heuristic approximator (ICDE 2019)"),
    "traj2simvec": (None, "GRU + sub-trajectory auxiliary loss (IJCAI 2020)"),
    "t3s": ("grid", "cell attention + coordinate LSTM (ICDE 2021)"),
    "trajgat": (None, "distance-biased graph attention (KDD 2022)"),
}


def _bbox_of(trajectories: Sequence[TrajectoryLike]) -> Tuple[float, float, float, float]:
    mins = np.full(2, np.inf)
    maxs = np.full(2, -np.inf)
    for trajectory in trajectories:
        points = as_points(trajectory)
        mins = np.minimum(mins, points.min(axis=0))
        maxs = np.maximum(maxs, points.max(axis=0))
    if not np.isfinite(mins).all():
        raise ValueError("cannot derive a bounding box from an empty set")
    return float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])


def _grid_of(
    trajectories: Sequence[TrajectoryLike], cells_per_side: int
) -> Grid:
    min_x, min_y, max_x, max_y = _bbox_of(trajectories)
    extent = max(max_x - min_x, max_y - min_y, 1e-9)
    return Grid.covering(trajectories, cell_size=extent / cells_per_side)


def _baseline_class(name: str):
    from .. import baselines

    return {
        "t2vec": baselines.T2Vec,
        "e2dtc": baselines.E2DTC,
        "trjsr": baselines.TrjSR,
        "cstrm": baselines.CSTRM,
        "neutraj": baselines.NeuTraj,
        "traj2simvec": baselines.Traj2SimVec,
        "t3s": baselines.T3S,
        "trajgat": baselines.TrajGAT,
    }[name]


# ----------------------------------------------------------------------
# Heuristic measures
# ----------------------------------------------------------------------
def _register_heuristics() -> None:
    for name, description in _HEURISTICS.items():
        def factory(_name=name, **kwargs):
            from ..measures import get_measure

            return MeasureBackend(get_measure(_name, **kwargs))

        register_backend(name, DISTANCE, description)(factory)


# ----------------------------------------------------------------------
# TrajCL
# ----------------------------------------------------------------------
@register_backend(
    "trajcl", EMBEDDING,
    "dual-feature attention contrastive model (this paper)", trainable=True,
)
def _build_trajcl(
    model=None,
    checkpoint: Optional[str] = None,
    trajectories: Optional[Sequence[TrajectoryLike]] = None,
    dim: int = 32,
    max_len: int = 64,
    epochs: int = 1,
    seed: int = 0,
    grid_cells_per_side: int = 16,
    encoder_variant: str = "dual",
    train: bool = True,
    **config_kwargs,
) -> EmbeddingBackend:
    if (model is not None or checkpoint is not None) and config_kwargs:
        # nothing configures a model that is already built
        raise TypeError("backend 'trajcl' got unexpected keyword "
                        f"argument(s) {sorted(config_kwargs)}")
    if model is not None:
        return EmbeddingBackend("trajcl", model)
    if checkpoint is not None:
        from ..core import load_pipeline

        return EmbeddingBackend("trajcl", load_pipeline(checkpoint))
    if trajectories is None:
        raise TypeError(
            "backend 'trajcl' needs one of model=, checkpoint= or "
            "trajectories="
        )

    # each branch imports what it runs (repro.core loads its names on
    # first use): serving a built model loads no trainer or checkpoint code
    from ..core import TrainHistory, TrajCLConfig, build_trajcl

    config = TrajCLConfig.reduced().with_overrides(
        structural_dim=dim,
        max_len=max_len,
        projection_dim=min(16, dim),
        queue_size=64,
        batch_size=8,
        max_epochs=max(epochs, 1),
        **config_kwargs,
    )
    trajcl, history = build_trajcl(
        trajectories, _grid_of(trajectories, grid_cells_per_side), config,
        encoder_variant=encoder_variant, epochs=epochs, train=train,
        seed=seed,
    )
    backend = EmbeddingBackend("trajcl", trajcl)
    backend.history = TrainHistory() if history is None else history
    return backend


# ----------------------------------------------------------------------
# Learned baselines
# ----------------------------------------------------------------------
def _construct_baseline(name: str, anchor_value, dim: int, max_len: int,
                        seed: int, extra: Dict):
    """Build an untrained baseline with the unified (dim, max_len) knobs."""
    cls = _baseline_class(name)
    rng = np.random.default_rng(seed)
    kwargs = dict(max_len=max_len, rng=rng)
    if name in ("t2vec", "e2dtc"):
        kwargs.update(embedding_dim=dim, hidden_dim=dim)
        args = (anchor_value,)
    elif name == "cstrm":
        kwargs.update(embedding_dim=dim)
        args = (anchor_value,)
    elif name == "trjsr":
        kwargs = dict(rng=rng)  # raster model: no max_len / dim knobs
        args = (tuple(anchor_value),)
    elif name in ("neutraj", "t3s"):
        kwargs.update(hidden_dim=dim)
        args = (anchor_value,)
    else:  # traj2simvec, trajgat — no spatial anchor
        kwargs.update(hidden_dim=dim)
        args = ()
    kwargs.update(extra)
    return cls(*args, **kwargs)


def _register_baselines() -> None:
    for name, (anchor, description) in {**_SELF_SUPERVISED, **_SUPERVISED}.items():
        supervised = name in _SUPERVISED

        def factory(
            _name=name, _anchor=anchor, _supervised=supervised,
            model=None,
            trajectories: Optional[Sequence[TrajectoryLike]] = None,
            dim: int = 32,
            max_len: int = 64,
            epochs: int = 1,
            seed: int = 0,
            grid_cells_per_side: int = 16,
            measure: str = "hausdorff",
            pairs: int = 128,
            batch_size: int = 16,
            **extra,
        ) -> EmbeddingBackend:
            if model is not None:
                backend = EmbeddingBackend(_name, model)
                backend.rebuild_meta = getattr(model, "rebuild_meta", None)
                return backend
            if trajectories is None:
                raise TypeError(
                    f"backend {_name!r} needs model= or trajectories="
                )
            if _anchor == "grid":
                anchor_value = _grid_of(trajectories, grid_cells_per_side)
            elif _anchor == "bbox":
                anchor_value = _bbox_of(trajectories)
            else:
                anchor_value = None
            baseline = _construct_baseline(
                _name, anchor_value, dim, max_len, seed, extra
            )
            fit_rng = np.random.default_rng(seed + 1)
            if epochs > 0:
                if _supervised:
                    baseline.fit(
                        trajectories, get_backend(measure),
                        epochs=epochs, pairs=pairs, batch_size=batch_size,
                        rng=fit_rng,
                    )
                else:
                    baseline.fit(
                        trajectories, epochs=epochs, batch_size=batch_size,
                        rng=fit_rng,
                    )
            backend = EmbeddingBackend(_name, baseline)
            backend.rebuild_meta = _rebuild_meta(_name, anchor_value, dim,
                                                 max_len, extra)
            return backend

        register_backend(name, EMBEDDING, description, trainable=True)(factory)


def _rebuild_meta(name: str, anchor_value, dim: int, max_len: int,
                  extra: Dict) -> Dict:
    """How to re-instantiate a baseline before loading its weights."""
    meta = {
        "class": name, "dim": dim, "max_len": max_len,
        "extra": {k: v for k, v in extra.items() if not isinstance(v, np.ndarray)},
    }
    if isinstance(anchor_value, Grid):
        meta["grid"] = {
            "min_x": anchor_value.min_x, "min_y": anchor_value.min_y,
            "max_x": anchor_value.max_x, "max_y": anchor_value.max_y,
            "cell_size": anchor_value.cell_size,
        }
    elif anchor_value is not None:
        meta["bbox"] = list(anchor_value)
    return meta


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
#: non-parameter attributes that are part of a trained baseline's state
_AUX_ATTRS = ("cell_memory", "cluster_centers")


def backend_state(backend) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Snapshot a backend as ``(json-able meta, array dict)``.

    Supported: every distance backend (name only), TrajCL (full pipeline
    state) and the learned baselines built through the registry (weights +
    scaler/memory/centre auxiliaries + rebuild recipe).
    """
    if backend.kind == DISTANCE:
        return {"family": "measure", "name": backend.name}, {}

    model = backend.model
    from ..core import TrajCL, pipeline_state

    if isinstance(model, TrajCL):
        meta = {"family": "trajcl", "name": backend.name}
        return meta, pipeline_state(model)

    rebuild = getattr(backend, "rebuild_meta", None)
    if rebuild is None:
        raise ValueError(
            f"backend {backend.name!r} wraps a {type(model).__name__} with no "
            "rebuild recipe; build it through repro.api.get_backend "
            "(trajectories=...) to make it saveable"
        )
    arrays = {
        _STATE_PREFIX + key: value for key, value in model.state_dict().items()
    }
    meta = {"family": "baseline", "name": backend.name, "rebuild": rebuild,
            "aux_scalars": {}}
    scaler = getattr(model, "scaler", None)
    if scaler is not None and scaler.min_xy is not None:
        arrays[_AUX_PREFIX + "scaler_min_xy"] = scaler.min_xy
        arrays[_AUX_PREFIX + "scaler_scale"] = scaler.scale
    for attr in _AUX_ATTRS:
        value = getattr(model, attr, None)
        if isinstance(value, np.ndarray):
            arrays[_AUX_PREFIX + attr] = value
    if hasattr(model, "target_scale"):
        meta["aux_scalars"]["target_scale"] = float(model.target_scale)
    return meta, arrays


def shard_backend_state(backend) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """What a shard is sent of its owner's backend, in :func:`backend_state`
    form: a distance backend whole (it is only a name), an embedding
    backend as its :class:`BackendDescription` — the owner keeps the
    model, so no weights travel and any ``encode()``-bearing model can be
    sharded, saveable or not."""
    if backend.kind == DISTANCE:
        return backend_state(backend)
    return {"family": "description", "name": backend.name,
            "scale": float(getattr(backend, "scale", 1.0)),
            "output_dim": backend.output_dim,
            "dtype": (None if backend.dtype is None
                      else np.dtype(backend.dtype).str)}, {}


def restore_backend(meta: Dict, arrays: Dict[str, np.ndarray]):
    """Inverse of :func:`backend_state` (and :func:`shard_backend_state`)."""
    refuse_other_metric(meta)
    family = meta.get("family")
    if family == "measure":
        return get_backend(meta["name"])
    if family == "description":
        return BackendDescription(meta["name"], meta["scale"],
                                  meta["output_dim"], meta.get("dtype"))
    if family == "trajcl":
        from ..core import pipeline_from_state

        # An older snapshot's ``encode`` block (route + dtype preferences)
        # is read past: there is one way to encode.
        model = pipeline_from_state(dict(arrays))
        return EmbeddingBackend(meta["name"], model)
    if family != "baseline":
        raise ValueError(f"unknown backend snapshot family {family!r}")

    rebuild = meta["rebuild"]
    name = rebuild["class"]
    if "grid" in rebuild:
        g = rebuild["grid"]
        anchor_value = Grid(g["min_x"], g["min_y"], g["max_x"], g["max_y"],
                            g["cell_size"])
    elif "bbox" in rebuild:
        anchor_value = tuple(rebuild["bbox"])
    else:
        anchor_value = None
    model = _construct_baseline(
        name, anchor_value, rebuild["dim"], rebuild["max_len"],
        seed=0, extra=dict(rebuild.get("extra", {})),
    )
    model.load_state_dict({
        key[len(_STATE_PREFIX):]: value
        for key, value in arrays.items() if key.startswith(_STATE_PREFIX)
    })
    scaler = getattr(model, "scaler", None)
    if scaler is not None and _AUX_PREFIX + "scaler_min_xy" in arrays:
        scaler.min_xy = arrays[_AUX_PREFIX + "scaler_min_xy"]
        scaler.scale = arrays[_AUX_PREFIX + "scaler_scale"]
    for attr in _AUX_ATTRS:
        if _AUX_PREFIX + attr in arrays:
            setattr(model, attr, arrays[_AUX_PREFIX + attr])
    for attr, value in meta.get("aux_scalars", {}).items():
        setattr(model, attr, value)
    backend = EmbeddingBackend(meta["name"], model)
    backend.rebuild_meta = rebuild
    return backend


_register_heuristics()
_register_baselines()
