"""Persistence for full TrajCL pipelines.

A trained TrajCL model is only usable together with its grid geometry and
node2vec cell-embedding table (the feature pipeline) and its configuration.
:func:`save_pipeline` / :func:`load_pipeline` bundle all of it into a single
``.npz`` so a pre-trained measure can be shipped and reloaded with one call
— the deployment artefact the paper's "pre-trained TrajCL models can be
used to fast approximate any heuristic measure" workflow implies.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

import numpy as np

from ..nn.serialization import load_state, save_state
from ..trajectory import Grid
from .config import TrajCLConfig
from .features import FeatureEnrichment
from .model import TrajCL

_MODEL_PREFIX = "model/"
_META_KEY = "__meta__"
_CELLS_KEY = "__cell_embeddings__"
_FORMAT_VERSION = 1
#: config keys older checkpoints carry: the grid stores its own cell size,
#: FeatureEnrichment always emits 4 spatial columns, and its cell table is
#: a plain array no optimiser steps (``train_cell_embedding`` changed
#: nothing)
_RETIRED_FIELDS = ("cell_size", "spatial_dim", "train_cell_embedding")


def pipeline_state(model: TrajCL) -> dict:
    """Config + grid + cell table + weights as one flat array dict.

    The in-memory form of a pipeline checkpoint; :func:`save_pipeline`
    writes it to disk, and :mod:`repro.api` embeds it inside service
    snapshots.
    """
    grid = model.features.grid
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "encoder_variant": model.encoder_variant,
        "grid": {
            "min_x": grid.min_x, "min_y": grid.min_y,
            "max_x": grid.max_x, "max_y": grid.max_y,
            "cell_size": grid.cell_size,
        },
        "max_len": model.features.max_len,
    }
    payload = {
        _META_KEY: np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        _CELLS_KEY: model.features.cell_embeddings,
    }
    for key, value in model.state_dict().items():
        payload[_MODEL_PREFIX + key] = value
    return payload


def save_pipeline(path: str, model: TrajCL) -> None:
    """Write config + grid + cell table + model weights to ``path`` (npz)."""
    save_state(path, pipeline_state(model))


def pipeline_from_state(
    state: dict, rng: Optional[np.random.Generator] = None
) -> TrajCL:
    """Inverse of :func:`pipeline_state`."""
    if _META_KEY not in state or _CELLS_KEY not in state:
        raise ValueError("state is not a TrajCL pipeline checkpoint")
    meta = json.loads(bytes(state[_META_KEY]).decode("utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {meta.get('format_version')!r}"
        )

    config_dict = dict(meta["config"])
    retired = {key: config_dict.pop(key) for key in _RETIRED_FIELDS
               if key in config_dict}
    if retired.get("spatial_dim", 4) != 4:
        raise ValueError(f"checkpoint spatial_dim {retired['spatial_dim']!r}"
                         " is not the 4 spatial feature columns")
    config_dict["augmentations"] = tuple(config_dict["augmentations"])
    config = TrajCLConfig(**config_dict)
    grid_info = meta["grid"]
    grid = Grid(
        grid_info["min_x"], grid_info["min_y"],
        grid_info["max_x"], grid_info["max_y"],
        grid_info["cell_size"],
    )
    features = FeatureEnrichment(grid, state[_CELLS_KEY], max_len=meta["max_len"])
    model = TrajCL(features, config, encoder_variant=meta["encoder_variant"],
                   rng=rng)
    model_state = {
        key[len(_MODEL_PREFIX):]: value
        for key, value in state.items()
        if key.startswith(_MODEL_PREFIX)
    }
    model.load_state_dict(model_state)
    return model


def load_pipeline(path: str, rng: Optional[np.random.Generator] = None) -> TrajCL:
    """Reconstruct a ready-to-encode :class:`TrajCL` from ``path``."""
    state = load_state(path)
    if _META_KEY not in state or _CELLS_KEY not in state:
        raise ValueError(f"{path!r} is not a TrajCL pipeline checkpoint")
    return pipeline_from_state(state, rng=rng)
