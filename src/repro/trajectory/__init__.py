"""``repro.trajectory`` — trajectory primitives, grids and preprocessing."""

from .grid import Grid
from .preprocess import (
    MAX_POINTS_DEFAULT,
    MIN_POINTS_DEFAULT,
    filter_trajectories,
    pad_point_arrays,
    resample_to_length,
    within_bbox,
)
from .simplify import douglas_peucker, douglas_peucker_mask, point_segment_distance
from .trajectory import (
    PointArray, Trajectory, TrajectoryLike, as_points, as_points_batch,
)
from .visvalingam import triangle_area, visvalingam, visvalingam_mask

__all__ = [
    "Trajectory",
    "TrajectoryLike",
    "PointArray",
    "as_points",
    "as_points_batch",
    "Grid",
    "douglas_peucker",
    "douglas_peucker_mask",
    "point_segment_distance",
    "visvalingam",
    "visvalingam_mask",
    "triangle_area",
    "filter_trajectories",
    "pad_point_arrays",
    "resample_to_length",
    "within_bbox",
    "MIN_POINTS_DEFAULT",
    "MAX_POINTS_DEFAULT",
]
