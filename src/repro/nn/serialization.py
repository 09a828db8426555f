"""Checkpoint I/O: save/load module state dicts as compressed ``.npz``.

Dotted parameter names (``encoder.layers.0.attn.w_query.weight``) are valid
npz keys as-is, so no mangling is needed. Checkpoints are portable across
runs because parameter iteration order is deterministic.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from .module import Module


def save_state(path: str, module_or_state) -> None:
    """Write a module's (or raw dict's) parameters to ``path`` (npz)."""
    if isinstance(module_or_state, Module):
        state = module_or_state.state_dict()
    else:
        state = dict(module_or_state)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # No format_version: the schema is the parameter names, versioned by
    # the model code that owns them (a core.checkpoint pipeline state
    # carries its version in its meta entry).
    np.savez_compressed(path, **state)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`."""
    if not os.path.exists(path):
        # np.savez appends .npz when missing; accept either form.
        if os.path.exists(path + ".npz"):
            path = path + ".npz"
        else:
            raise FileNotFoundError(path)
    with np.load(path) as archive:
        return {key: archive[key].copy() for key in archive.files}


def load_into(path: str, module: Module, strict: bool = True) -> None:
    """Load a checkpoint file directly into ``module``."""
    module.load_state_dict(load_state(path), strict=strict)
