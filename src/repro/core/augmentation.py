"""The four trajectory augmentation methods of TrajCL (paper §IV-A).

Each augmentation maps an input trajectory to a *view* — a plausible
low-quality variant emphasizing a different kind of trajectory uncertainty:

* :func:`point_shift` — GPS noise (bounded Gaussian offsets, Eq. 4),
* :func:`point_mask` — sampling-rate variation / missing records (Eq. 5),
* :func:`truncate` — partially overlapping trips (Eq. 6),
* :func:`simplify` — shape-preserving Douglas–Peucker reduction (Eq. 7),
* :func:`raw` — the identity (the paper's "Raw" ablation setting).

All functions take an explicit ``numpy.random.Generator`` and return new
arrays (inputs are never mutated). The registry mirrors the ablation grid
of Fig. 8 (Raw / Shift / Mask / Trun. / Simp.).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..trajectory.simplify import douglas_peucker
from ..trajectory.trajectory import TrajectoryLike, as_points
from .config import TrajCLConfig

AugmentationFn = Callable[..., np.ndarray]


def raw(points: TrajectoryLike, rng: np.random.Generator = None) -> np.ndarray:
    """Identity augmentation (a copy): the paper's no-augmentation baseline."""
    return as_points(points).copy()


def point_shift(
    points: TrajectoryLike,
    rng: np.random.Generator,
    radius: float = 100.0,
    sigma: float = 0.5,
) -> np.ndarray:
    """Add bounded Gaussian offsets to every coordinate (Eq. 4).

    Offsets are drawn from N(0, σ²) truncated to [-1, 1] (rejection
    sampling) and scaled by ``radius`` — the paper's bounded Gaussian
    X_n ~ (ρ_m/λ)·N(0, 0.5²) with ρ_m = 100 m: a GPS error cannot be
    arbitrarily large.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    pts = as_points(points)
    offsets = rng.normal(0.0, sigma, size=pts.shape)
    # Re-draw values outside the unit bound (truncated Gaussian).
    out_of_bound = np.abs(offsets) > 1.0
    while out_of_bound.any():
        offsets[out_of_bound] = rng.normal(0.0, sigma, size=int(out_of_bound.sum()))
        out_of_bound = np.abs(offsets) > 1.0
    return pts + offsets * radius


def point_mask(
    points: TrajectoryLike,
    rng: np.random.Generator,
    ratio: float = 0.3,
    min_keep: int = 2,
) -> np.ndarray:
    """Remove a uniformly random subset of points (Eq. 5).

    Keeps ``floor((1 - ratio) * n)`` points (at least ``min_keep``) in their
    original order — the paper's i.i.d.-uniform masking that simulates
    lower sampling rates and incomplete records.
    """
    if not 0 <= ratio < 1:
        raise ValueError("ratio must be in [0, 1)")
    pts = as_points(points)
    n = len(pts)
    keep = max(min_keep, int(np.floor((1.0 - ratio) * n)))
    keep = min(keep, n)
    kept_idx = np.sort(rng.choice(n, size=keep, replace=False))
    return pts[kept_idx].copy()


def truncate(
    points: TrajectoryLike,
    rng: np.random.Generator,
    keep: float = 0.7,
) -> np.ndarray:
    """Cut a random prefix/suffix, keeping a contiguous ``keep`` fraction (Eq. 6).

    ``T̃ = [p_i, ..., p_⌊i + ρ_b·|T|⌋]`` with ``i`` uniform in
    ``[1, ⌈(1-ρ_b)·|T|⌉]`` — the carpooling-style partial-overlap view.
    """
    if not 0 < keep < 1:
        raise ValueError("keep must be in (0, 1)")
    pts = as_points(points)
    n = len(pts)
    span = max(2, int(np.floor(keep * n)))
    if span >= n:
        return pts.copy()
    start = int(rng.integers(0, n - span + 1))
    return pts[start:start + span].copy()


def simplify(
    points: TrajectoryLike,
    rng: np.random.Generator = None,
    epsilon: float = 100.0,
) -> np.ndarray:
    """Douglas–Peucker simplification with threshold ρ_p (Eq. 7).

    Deterministic given the input; the ``rng`` argument exists only for
    interface uniformity.
    """
    pts = as_points(points)
    simplified = douglas_peucker(pts, epsilon)
    if len(simplified) < 2:  # degenerate single-point input
        return pts.copy()
    return simplified


#: name -> (augmentation, {its keyword: the TrajCLConfig field it reads})
_REGISTRY: Dict[str, Tuple[AugmentationFn, Dict[str, str]]] = {
    "raw": (raw, {}),
    "shift": (point_shift, {"radius": "shift_radius", "sigma": "shift_sigma"}),
    "mask": (point_mask, {"ratio": "mask_ratio"}),
    "truncate": (truncate, {"keep": "truncate_keep"}),
    "simplify": (simplify, {"epsilon": "simplify_epsilon"}),
}


def available_augmentations() -> List[str]:
    """Names usable with :func:`get_augmentation` (the Fig. 8 grid axes)."""
    return sorted(_REGISTRY)


def _entry(name: str) -> Tuple[AugmentationFn, Dict[str, str]]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown augmentation {name!r}; available: {available_augmentations()}"
        ) from None


def get_augmentation(name: str) -> AugmentationFn:
    """Look up an augmentation function by registry name."""
    return _entry(name)[0]


def make_view(
    points: TrajectoryLike,
    name: str,
    rng: np.random.Generator,
    config=None,
) -> np.ndarray:
    """Apply the named augmentation with parameters taken from ``config``.

    ``config`` is a :class:`~repro.core.config.TrajCLConfig` (or None for
    the paper defaults); this is the single entry point the trainer and the
    Fig. 8 / Fig. 9 benchmarks use.
    """
    augmentation, fields = _entry(name)
    config = config or TrajCLConfig()
    return augmentation(points, rng, **{keyword: getattr(config, field)
                                        for keyword, field in fields.items()})
