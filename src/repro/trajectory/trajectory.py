"""The :class:`Trajectory` primitive.

The paper models a trajectory ``T = [p_1, ..., p_|T|]`` as a sequence of
points in a Euclidean space (§III). Internally every algorithm in this
repository operates on ``(N, 2)`` float arrays for speed; ``Trajectory``
is a thin, validated wrapper that carries derived geometry (length, bounding
box, segment lengths) and supports slicing. :func:`as_points` lets public
APIs accept either form; :func:`as_points_batch` is the same check for a
whole chunk at once. :func:`pack_trajectories` and
:func:`unpack_trajectories` are the one way trajectories sit in an
``.npz``: two arrays, whatever their number. :class:`Ragged` is the one
way they sit in memory once they arrived packed: the blocks as they
came, no per-item object.
"""

from __future__ import annotations

import bisect
import collections.abc
import operator
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

PointArray = np.ndarray  # (N, 2) float64
TrajectoryLike = Union["Trajectory", np.ndarray, Sequence[Sequence[float]]]


def as_points(trajectory: TrajectoryLike) -> PointArray:
    """Coerce a trajectory-like object to a validated ``(N, 2)`` float array."""
    if isinstance(trajectory, Trajectory):
        return trajectory.points
    points = np.asarray(trajectory, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"trajectory must have shape (N, 2), got {points.shape}")
    if len(points) < 1:
        raise ValueError("trajectory must contain at least one point")
    if not np.isfinite(points).all():
        raise ValueError("trajectory contains non-finite coordinates")
    return points


class Ragged(collections.abc.Sequence):
    """A sequence of like arrays kept as the blocks they arrived in.

    A block is a ``(base, offsets)`` pair — item ``i`` is the view
    ``base[offsets[i]:offsets[i + 1]]``, made only when it is read — or a
    list of arrays, held by reference. The wire decodes a list of like
    arrays to one packed block and encodes a :class:`Ragged` exactly as
    its list form, so a store that appends each block as it came copies
    nothing and keeps no per-item object for what arrived packed.
    """

    __slots__ = ("blocks", "_ends", "_checked")

    def __init__(self, blocks: Iterable = ()):
        self.blocks: List = []
        self._ends: List[int] = []  # items up to and including each block
        #: leading blocks :func:`as_points_batch` validated (it built them,
        #: or :meth:`take` cut them from such blocks); blocks are only ever
        #: appended, so an append leaves this count behind
        self._checked = 0
        for block in blocks:
            self.append(block)

    def append(self, block) -> None:
        """Append one block (each block of a :class:`Ragged`); an empty
        block is dropped."""
        if isinstance(block, Ragged):
            for inner in block.blocks:
                self.append(inner)
            return
        count = len(block[1]) - 1 if type(block) is tuple else len(block)
        if count > 0:
            self.blocks.append(block)
            self._ends.append(len(self) + count)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("Ragged index out of range")
        at = bisect.bisect_right(self._ends, position)
        local = position - (self._ends[at - 1] if at else 0)
        block = self.blocks[at]
        if type(block) is list:
            return block[local]
        base, offsets = block
        return base[int(offsets[local]):int(offsets[local + 1])]

    def __iter__(self):
        for block in self.blocks:
            if type(block) is list:
                yield from block
                continue
            base, offsets = block
            bounds = offsets.tolist()
            for low, high in zip(bounds, bounds[1:]):
                yield base[low:high]

    def arrays(self) -> List[np.ndarray]:
        """Arrays whose rows, in order, are every item's rows: the used
        slice of each packed block, the items of each list block."""
        out: List[np.ndarray] = []
        for block in self.blocks:
            if type(block) is list:
                out.extend(block)
            else:
                base, offsets = block
                out.append(base[int(offsets[0]):int(offsets[-1])])
        return out

    def lengths(self) -> np.ndarray:
        """Every item's length along axis 0, ``int64``."""
        return np.concatenate([np.zeros(0, np.int64)] + [
            np.fromiter(map(len, block), np.int64, len(block))
            if type(block) is list else np.diff(block[1]).astype(np.int64)
            for block in self.blocks])

    def pack(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every item as one packed block ``(base, offsets)``, offsets
        from 0: a view of the block when there is one packed block, else
        the blocks' arrays joined."""
        if len(self.blocks) == 1 and type(self.blocks[0]) is tuple:
            base, offsets = self.blocks[0]
            low = int(offsets[0])
            return (base[low:int(offsets[-1])],
                    offsets.astype(np.int64) - low)
        offsets = np.zeros(len(self) + 1, np.int64)
        np.cumsum(self.lengths(), out=offsets[1:])
        arrays = self.arrays()
        return (arrays[0] if len(arrays) == 1
                else np.concatenate(arrays)), offsets

    def take(self, rows, limit: Optional[int] = None) -> "Ragged":
        """Items ``rows``, each cut to its first ``limit`` rows, as a
        :class:`Ragged` of one block. A store holding list blocks gives
        the items themselves, by reference. A packed store gives one
        packed block: a view when the items lie back to back, else one
        gather from the base (:meth:`pack` joins several blocks first).
        """
        out = self._take(np.asarray(rows, dtype=np.int64), limit)
        if self._checked == len(self.blocks) and (limit is None or limit > 0):
            out._checked = len(out.blocks)  # items of valid items
        return out

    def _take(self, rows: np.ndarray, limit: Optional[int]) -> "Ragged":
        if any(type(block) is list for block in self.blocks):
            items = self.blocks[0] if len(self.blocks) == 1 else list(self)
            return Ragged([[items[row][:limit] for row in rows.tolist()]])
        base, offsets = self.pack()
        starts = offsets[rows]
        lengths = offsets[rows + 1] - starts
        if limit is not None:
            np.minimum(lengths, limit, out=lengths)
        bounds = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(lengths, out=bounds[1:])
        if (starts[1:] == starts[:-1] + lengths[:-1]).all():
            low = int(starts[0]) if len(rows) else 0
            return Ragged([(base[low:low + int(bounds[-1])], bounds)])
        return Ragged([(base[np.repeat(starts - bounds[:-1], lengths)
                             + np.arange(bounds[-1])], bounds)])


def _packed_points(block) -> bool:
    """Whether ``block`` is a packed block of valid trajectories: float64
    ``(P, 2)`` rows, every item at least one point, all finite — checked
    in one pass over its base."""
    if type(block) is not tuple:
        return False
    base, offsets = block
    return (base.dtype == np.float64 and base.ndim == 2
            and base.shape[1] == 2 and bool((np.diff(offsets) >= 1).all())
            and bool(np.isfinite(
                base[int(offsets[0]):int(offsets[-1])]).all()))


def as_points_batch(trajectories: Sequence[TrajectoryLike]) -> Ragged:
    """:func:`as_points` of every item as a :class:`Ragged`, paying one
    finiteness reduction for the whole batch instead of one per item.

    A bare ``(L, 2)`` array is one trajectory, not ``L`` of them. A
    :class:`Ragged` this function built (or :meth:`Ragged.take` cut from
    one) comes back as it is, unchecked: each layer a chunk passes
    through calls this, and the first one's pass stands for them all. A
    :class:`Ragged` of packed blocks is checked in one pass over each
    base and comes back as it is, marked checked, so the layers after
    the first pass it through too. Otherwise items are coerced and
    shape-checked one by one, then all their points are checked in one
    pass, and come back as one list block. Anything short of a clean
    batch re-runs the per-item loop, so the error raised is exactly the
    one :func:`as_points` raises for the first offending item.
    """
    if isinstance(trajectories, Ragged):
        if (trajectories._checked == len(trajectories.blocks)
                or all(map(_packed_points, trajectories.blocks))):
            trajectories._checked = len(trajectories.blocks)
            return trajectories
    elif isinstance(trajectories, np.ndarray) and trajectories.ndim == 2:
        trajectories = [trajectories]
    trajectories = list(trajectories)
    try:
        batch = [
            t.points if isinstance(t, Trajectory)
            else np.asarray(t, dtype=np.float64)
            for t in trajectories
        ]
    except (TypeError, ValueError):
        batch = None  # numpy refused an item; as_points says which, below
    if (batch is None
            or not all(p.ndim == 2 and p.shape[1] == 2 and len(p)
                       for p in batch)
            or (batch and not np.isfinite(np.concatenate(batch)).all())):
        batch = [as_points(t) for t in trajectories]
    checked = Ragged([batch])
    checked._checked = len(checked.blocks)
    return checked


def pack_trajectories(batch: Sequence[TrajectoryLike],
                      prefix: str = "") -> Dict[str, np.ndarray]:
    """A batch as two arrays: ``prefix + "points"``, every point in order
    (``(P, 2)`` float64), and ``prefix + "offsets"`` (``(N + 1,)`` int64),
    where trajectory ``i`` is ``points[offsets[i]:offsets[i + 1]]``.

    The inverse is :func:`unpack_trajectories`; a file's member count no
    longer depends on how many trajectories it holds.
    """
    batch = as_points_batch(batch)
    if not batch:
        points, offsets = np.empty((0, 2)), np.zeros(1, np.int64)
    else:
        points, offsets = batch.pack()
    return {prefix + "points": points, prefix + "offsets": offsets}


def unpack_trajectories(arrays: Mapping[str, np.ndarray],
                        prefix: str = "") -> Ragged:
    """The trajectories :func:`pack_trajectories` wrote under ``prefix``,
    as a :class:`Ragged` of the one packed block the two arrays are.

    Raises ``ValueError`` before building anything when the two arrays do
    not describe a valid batch: a missing array, the wrong rank or dtype,
    offsets that do not tile the points exactly (first 0, every step at
    least 1, last ``len(points)``), or a non-finite point — the rule
    :func:`as_points_batch` applies to added data.
    """
    names = (prefix + "points", prefix + "offsets")
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ValueError(f"no trajectory array {missing[0]!r}")
    points, offsets = (np.asarray(arrays[name]) for name in names)
    if (points.ndim != 2 or points.shape[1] != 2
            or points.dtype != np.float64):
        raise ValueError(
            f"{names[0]!r} must be a (P, 2) float64 array, got "
            f"{points.dtype} {points.shape}")
    if offsets.ndim != 1 or offsets.dtype != np.int64 or not len(offsets):
        raise ValueError(
            f"{names[1]!r} must be a non-empty 1-D int64 array, got "
            f"{offsets.dtype} {offsets.shape}")
    if (offsets[0] != 0 or offsets[-1] != len(points)
            or (np.diff(offsets) < 1).any()):
        raise ValueError(
            f"{names[1]!r} do not tile the {len(points)} points: they must "
            "start at 0, step by at least 1 and end at the point count")
    if not np.isfinite(points).all():
        raise ValueError(f"{names[0]!r} holds non-finite coordinates")
    return Ragged([(points, offsets)])


class Trajectory:
    """An immutable sequence of 2-D points describing a movement.

    Coordinates are planar (metres in the synthetic city datasets); the
    measures and models in this repository are agnostic to the unit as long
    as it is consistent with the grid cell size and augmentation radii.
    """

    __slots__ = ("points",)

    def __init__(self, points: TrajectoryLike):
        object.__setattr__(self, "points", as_points(points))
        self.points.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self.points[index].copy())
        return self.points[index]

    def __iter__(self) -> Iterable[np.ndarray]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.allclose(self.points, other.points)
        )

    def __hash__(self):
        return hash((self.points.shape, self.points.tobytes()))

    def __repr__(self) -> str:
        return f"Trajectory(n_points={len(self)}, length={self.length():.1f})"

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def segment_lengths(self) -> np.ndarray:
        """Euclidean length of each consecutive segment, shape ``(N-1,)``."""
        diffs = np.diff(self.points, axis=0)
        return np.hypot(diffs[:, 0], diffs[:, 1])

    def length(self) -> float:
        """Total travelled length (sum of segment lengths)."""
        if len(self) < 2:
            return 0.0
        return float(self.segment_lengths().sum())

    def bbox(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
        mins = self.points.min(axis=0)
        maxs = self.points.max(axis=0)
        return float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])

    def centroid(self) -> np.ndarray:
        """Mean point, shape ``(2,)``."""
        return self.points.mean(axis=0)

    def reversed(self) -> "Trajectory":
        """The same path traversed in the opposite direction."""
        return Trajectory(self.points[::-1].copy())

    def turning_radians(self) -> np.ndarray:
        """Interior angle at each internal point, shape ``(N,)``.

        The paper's spatial features use ``r_i = ∠ p_{i-1} p_i p_{i+1}``
        (Eq. 8). Endpoints, where the angle is undefined, get π (a straight
        continuation), matching the feature-enrichment convention in
        :mod:`repro.core.features`.
        """
        points = self.points
        n = len(points)
        radians = np.full(n, np.pi)
        if n < 3:
            return radians
        before = points[:-2] - points[1:-1]
        after = points[2:] - points[1:-1]
        norm_b = np.linalg.norm(before, axis=1)
        norm_a = np.linalg.norm(after, axis=1)
        denom = np.maximum(norm_b * norm_a, 1e-12)
        cos = np.clip((before * after).sum(axis=1) / denom, -1.0, 1.0)
        radians[1:-1] = np.arccos(cos)
        return radians
