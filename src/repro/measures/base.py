"""Common interface and registry for trajectory similarity measures.

The paper compares two families (§II): *heuristic* measures (Hausdorff,
Fréchet, EDR, EDwP — point-matching rules, O(n·m) per pair) and *learned*
measures (embedding distance, linear in the embedding dimension). This
module defines the shared distance interface; the registry gives the
benchmark harnesses a single lookup point.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Callable, Dict, Sequence

import numpy as np

from ..trajectory.trajectory import TrajectoryLike, as_points


@functools.cache
def _cdist():
    """scipy's ``cdist``, imported by the first distance a process computes
    (so importing the measures, and everything that registers them, is
    free) and kept: an ``import`` statement per call costs 1.5 us of a 9 us
    ``cdist``, and a Hausdorff scan makes one call per candidate."""
    from scipy.spatial.distance import cdist

    return cdist


def point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean ``(len(a), len(b))`` point-distance matrix."""
    return _cdist()(a, b)


class TrajectorySimilarityMeasure(ABC):
    """A dissimilarity function on pairs of trajectories (lower = more similar)."""

    #: short registry name, e.g. ``"hausdorff"``
    name: str = "abstract"

    @abstractmethod
    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        """The dissimilarity between two trajectories."""

    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        """Dense ``(|Q|, |D|)`` distance matrix.

        The default implementation evaluates every pair, which is exactly
        the quadratic query cost the paper attributes to heuristic measures
        (Table VIII); learned measures override this with batched
        embedding-space computation.
        """
        query_points = [as_points(q) for q in queries]
        database_points = [as_points(d) for d in database]
        out = np.empty((len(query_points), len(database_points)), dtype=np.float64)
        for i, q in enumerate(query_points):
            for j, d in enumerate(database_points):
                out[i, j] = self.distance(q, d)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[[], TrajectorySimilarityMeasure]] = {}


def register_measure(name: str):
    """Class decorator adding a zero-argument constructor to the registry."""

    def decorate(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_measure(name: str, **kwargs) -> TrajectorySimilarityMeasure:
    """Instantiate a registered measure by name (e.g. ``"hausdorff"``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown measure {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_measures() -> list:
    """Names of all registered heuristic measures."""
    return sorted(_REGISTRY)
