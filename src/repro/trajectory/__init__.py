"""``repro.trajectory`` — trajectory primitives, grids and preprocessing.

The names load on first use (PEP 562, see :mod:`repro._lazy`): a serving
process that validates points reaches :mod:`.trajectory` alone, never
the simplification and preprocessing code that training runs.
"""

from .._lazy import lazy_exports

#: submodule -> the names ``repro.trajectory`` re-exports from it
_EXPORTS = {
    "grid": ("Grid",),
    "preprocess": ("MAX_POINTS_DEFAULT", "MIN_POINTS_DEFAULT",
                   "filter_trajectories", "pad_point_arrays",
                   "resample_to_length", "within_bbox"),
    "simplify": ("douglas_peucker", "douglas_peucker_mask",
                 "point_segment_distance"),
    "trajectory": ("PointArray", "Trajectory", "TrajectoryLike", "as_points",
                   "as_points_batch", "pack_trajectories",
                   "unpack_trajectories"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
