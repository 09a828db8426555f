"""Query/database construction and perturbations for the §V-B protocol.

The paper's ground-truth construction (no labelled similar pairs exist):
each sampled test trajectory ``T_q`` is split into its odd points
``T_q^a`` (→ query set Q) and its even points ``T_q^b`` (→ database D);
``T_q^b`` is the known most-similar trajectory of ``T_q^a``, so the *mean
rank* of ``T_q^b`` under a measure quantifies that measure's accuracy.

Tables IV and V additionally perturb **both Q and D** with down-sampling
(drop each point w.p. ρ_s) and distortion (shift each point w.p. ρ_d using
the bounded-Gaussian offset of Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.augmentation import point_shift
from ..trajectory.trajectory import TrajectoryLike, as_points


def odd_even_split(trajectory: TrajectoryLike) -> Tuple[np.ndarray, np.ndarray]:
    """``(odd-indexed points, even-indexed points)`` — 1-based as in the paper.

    Paper: "one consisting of the odd points of T_q, i.e.,
    T_q^a = [p1, p3, p5, ...], and the other the even points". With 0-based
    arrays that is indices 0,2,4,... and 1,3,5,... respectively.
    """
    points = as_points(trajectory)
    if len(points) < 4:
        raise ValueError("trajectory too short to split into meaningful halves")
    return points[0::2].copy(), points[1::2].copy()


@dataclass
class QueryDatabase:
    """A materialized Q/D evaluation instance."""

    queries: List[np.ndarray]
    database: List[np.ndarray]
    #: ground_truth[i] = index in ``database`` of queries[i]'s true match
    ground_truth: np.ndarray


def build_query_database(
    trajectories: Sequence[TrajectoryLike],
    n_queries: int,
    database_size: int,
    rng: Optional[np.random.Generator] = None,
) -> QueryDatabase:
    """Sample the §V-B evaluation instance.

    ``n_queries`` trajectories are odd/even-split into (Q, ground-truth D
    entries); the database is then filled up to ``database_size`` with
    other trajectories from the pool. The ground-truth entries are placed
    at random positions within D.
    """
    if n_queries < 1:
        raise ValueError("need at least one query")
    if database_size < n_queries:
        raise ValueError("database must hold at least the ground-truth entries")
    if len(trajectories) < database_size:  # fillers share the pool with queries
        raise ValueError(
            f"pool of {len(trajectories)} trajectories cannot fill a database "
            f"of {database_size}"
        )
    rng = rng if rng is not None else np.random.default_rng()

    chosen = rng.choice(len(trajectories), size=n_queries, replace=False)
    queries, truths = [], []
    for index in chosen:
        odd, even = odd_even_split(trajectories[index])
        queries.append(odd)
        truths.append(even)

    filler_pool = np.setdiff1d(np.arange(len(trajectories)), chosen)
    n_fill = database_size - n_queries
    fillers = rng.choice(filler_pool, size=n_fill, replace=False)
    database: List[np.ndarray] = [as_points(trajectories[i]).copy() for i in fillers]
    database.extend(truths)

    order = rng.permutation(len(database))
    database = [database[i] for i in order]
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    ground_truth = position[np.arange(n_fill, n_fill + n_queries)]
    return QueryDatabase(queries=queries, database=database, ground_truth=ground_truth)


def downsample(
    trajectory: TrajectoryLike,
    rate: float,
    rng: np.random.Generator,
    min_keep: int = 2,
) -> np.ndarray:
    """Drop each point independently w.p. ``rate`` (Table IV's ρ_s)."""
    if not 0 <= rate < 1:
        raise ValueError("rate must be in [0, 1)")
    points = as_points(trajectory)
    keep = rng.random(len(points)) >= rate
    if keep.sum() < min_keep:
        keep_idx = rng.choice(len(points), size=min_keep, replace=False)
        keep = np.zeros(len(points), dtype=bool)
        keep[np.sort(keep_idx)] = True
    return points[keep].copy()


def distort(
    trajectory: TrajectoryLike,
    rate: float,
    rng: np.random.Generator,
    radius: float = 100.0,
    sigma: float = 0.5,
) -> np.ndarray:
    """Shift each point w.p. ``rate`` by the Eq. 4 bounded-Gaussian offset
    (Table V's ρ_d)."""
    if not 0 <= rate <= 1:
        raise ValueError("rate must be in [0, 1]")
    points = as_points(trajectory).copy()
    hit = rng.random(len(points)) < rate
    if hit.any():
        shifted = point_shift(points[hit], rng, radius=radius, sigma=sigma)
        points[hit] = shifted
    return points


def perturb_instance(
    instance: QueryDatabase,
    kind: str,
    rate: float,
    rng: np.random.Generator,
) -> QueryDatabase:
    """Apply ``downsample`` or ``distort`` to every trajectory in Q and D."""
    if kind == "downsample":
        transform = lambda t: downsample(t, rate, rng)  # noqa: E731
    elif kind == "distort":
        transform = lambda t: distort(t, rate, rng)  # noqa: E731
    else:
        raise KeyError(f"unknown perturbation {kind!r}")
    return QueryDatabase(
        queries=[transform(q) for q in instance.queries],
        database=[transform(d) for d in instance.database],
        ground_truth=instance.ground_truth.copy(),
    )
