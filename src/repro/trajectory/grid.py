"""Regular grid partitioning of the data space.

TrajCL's structural features (paper §IV-B) represent each trajectory point
by the grid cell enclosing it: "we partition the data space with a regular
grid where the cell side length is a system parameter" (100 m in the
experiments). The grid also defines the 8-neighbour cell graph on which
node2vec learns the structural cell embeddings (:mod:`repro.graph`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .trajectory import TrajectoryLike, as_points


class Grid:
    """A regular grid over the rectangle ``[min_x, max_x] × [min_y, max_y]``.

    Cells are indexed row-major: ``cell_id = row * n_cols + col`` with
    ``col`` along x and ``row`` along y. Points outside the rectangle are
    clamped to the border cells, mirroring the common preprocessing choice
    of clipping city datasets to the city bounding box.
    """

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float,
                 cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if max_x <= min_x or max_y <= min_y:
            raise ValueError("empty spatial extent")
        self.min_x, self.min_y = float(min_x), float(min_y)
        self.max_x, self.max_y = float(max_x), float(max_y)
        self.cell_size = float(cell_size)
        self.n_cols = max(1, int(np.ceil((self.max_x - self.min_x) / self.cell_size)))
        self.n_rows = max(1, int(np.ceil((self.max_y - self.min_y) / self.cell_size)))

    @property
    def n_cells(self) -> int:
        return self.n_cols * self.n_rows

    # ------------------------------------------------------------------
    # Point <-> cell mapping
    # ------------------------------------------------------------------
    def cell_of(self, points: TrajectoryLike) -> np.ndarray:
        """Map ``(N, 2)`` points to ``(N,)`` integer cell ids (clamped)."""
        return self.cell_of_validated(as_points(points))

    def cell_of_validated(self, pts: np.ndarray) -> np.ndarray:
        """:meth:`cell_of` for points :func:`as_points` already returned."""
        cols = np.clip(
            ((pts[:, 0] - self.min_x) / self.cell_size).astype(np.int64), 0, self.n_cols - 1
        )
        rows = np.clip(
            ((pts[:, 1] - self.min_y) / self.cell_size).astype(np.int64), 0, self.n_rows - 1
        )
        return rows * self.n_cols + cols

    def rowcol_of_cell(self, cell_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse indexing: ``(rows, cols)`` of each cell id."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        self._check_ids(cell_ids)
        return cell_ids // self.n_cols, cell_ids % self.n_cols

    def cell_center(self, cell_ids: np.ndarray) -> np.ndarray:
        """``(N, 2)`` coordinates of cell centres."""
        rows, cols = self.rowcol_of_cell(cell_ids)
        x = self.min_x + (cols + 0.5) * self.cell_size
        y = self.min_y + (rows + 0.5) * self.cell_size
        return np.stack([x, y], axis=-1)

    def neighbors(self, cell_id: int) -> List[int]:
        """The up-to-8 surrounding cells (the paper's cell-graph edges)."""
        self._check_ids(np.array([cell_id]))
        row, col = divmod(int(cell_id), self.n_cols)
        result = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                r, c = row + dr, col + dc
                if 0 <= r < self.n_rows and 0 <= c < self.n_cols:
                    result.append(r * self.n_cols + c)
        return result

    def _check_ids(self, cell_ids: np.ndarray) -> None:
        if cell_ids.size and (cell_ids.min() < 0 or cell_ids.max() >= self.n_cells):
            raise IndexError(f"cell id out of range [0, {self.n_cells})")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def covering(cls, trajectories, cell_size: float, margin: float = 0.0) -> "Grid":
        """Build the smallest grid covering every point of ``trajectories``."""
        mins = np.full(2, np.inf)
        maxs = np.full(2, -np.inf)
        for trajectory in trajectories:
            pts = as_points(trajectory)
            mins = np.minimum(mins, pts.min(axis=0))
            maxs = np.maximum(maxs, pts.max(axis=0))
        if not np.isfinite(mins).all():
            raise ValueError("no trajectories provided")
        return cls(
            mins[0] - margin, mins[1] - margin,
            maxs[0] + margin + 1e-9, maxs[1] + margin + 1e-9,
            cell_size,
        )

    def __repr__(self) -> str:
        return (
            f"Grid({self.n_rows}x{self.n_cols} cells of {self.cell_size}m, "
            f"x=[{self.min_x:.0f},{self.max_x:.0f}], y=[{self.min_y:.0f},{self.max_y:.0f}])"
        )
