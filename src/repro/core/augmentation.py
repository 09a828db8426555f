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

from typing import Callable, Dict, List

import numpy as np

from ..trajectory.simplify import douglas_peucker
from ..trajectory.trajectory import TrajectoryLike, as_points

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


def simplify_vw(
    points: TrajectoryLike,
    rng: np.random.Generator = None,
    min_area: float = 5000.0,
) -> np.ndarray:
    """Visvalingam–Whyatt simplification — the paper's "other simplification
    methods also apply" extension point. ``min_area`` (m²) plays the role of
    ρ_p; 5000 m² ≈ a 100 m × 100 m triangle's area, matching the DP default
    scale."""
    from ..trajectory.visvalingam import visvalingam

    pts = as_points(points)
    simplified = visvalingam(pts, min_area)
    if len(simplified) < 2:
        return pts.copy()
    return simplified


_REGISTRY: Dict[str, AugmentationFn] = {
    "raw": raw,
    "shift": point_shift,
    "mask": point_mask,
    "truncate": truncate,
    "simplify": simplify,
    "simplify_vw": simplify_vw,
}


def available_augmentations() -> List[str]:
    """Names usable with :func:`get_augmentation` (the Fig. 8 grid axes)."""
    return sorted(_REGISTRY)


def get_augmentation(name: str) -> AugmentationFn:
    """Look up an augmentation function by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown augmentation {name!r}; available: {available_augmentations()}"
        ) from None


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
    if name == "raw":
        return raw(points)
    if name == "shift":
        radius = config.shift_radius if config else 100.0
        sigma = config.shift_sigma if config else 0.5
        return point_shift(points, rng, radius=radius, sigma=sigma)
    if name == "mask":
        ratio = config.mask_ratio if config else 0.3
        return point_mask(points, rng, ratio=ratio)
    if name == "truncate":
        keep = config.truncate_keep if config else 0.7
        return truncate(points, rng, keep=keep)
    if name == "simplify":
        epsilon = config.simplify_epsilon if config else 100.0
        return simplify(points, epsilon=epsilon)
    if name == "simplify_vw":
        return simplify_vw(points)
    raise KeyError(f"unknown augmentation {name!r}")
