"""The 8-neighbour grid-cell graph used for structural cell embeddings.

Paper §IV-B: "We construct a graph where each vertex represents a grid
cell. A vertex corresponding to a cell is connected by an edge to each of
the eight vertices that correspond to the eight cells surrounding the given
cell." node2vec is then run on this graph to obtain cell embeddings.

Because the graph is a regular grid, adjacency between two cells can be
decided arithmetically from their ids, which lets the random-walk sampler
in :mod:`repro.graph.walks` vectorize the p/q bias across thousands of
simultaneous walks without alias tables.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..trajectory import Grid


class GridGraph:
    """8-neighbourhood graph over the cells of a :class:`~repro.trajectory.Grid`."""

    #: padding value in ``neighbors_padded`` rows
    PAD = -1

    def __init__(self, grid: Grid):
        self.grid = grid
        self.n_nodes = grid.n_cells
        self._n_cols = grid.n_cols
        self._n_rows = grid.n_rows
        self.neighbors_padded, self.degrees = self._build_neighbor_table()

    def _build_neighbor_table(self) -> Tuple[np.ndarray, np.ndarray]:
        n_cols, n_rows = self._n_cols, self._n_rows
        ids = np.arange(self.n_nodes, dtype=np.int64)
        rows, cols = ids // n_cols, ids % n_cols
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        table = np.full((self.n_nodes, 8), self.PAD, dtype=np.int64)
        degrees = np.zeros(self.n_nodes, dtype=np.int64)
        for dr, dc in offsets:
            r, c = rows + dr, cols + dc
            valid = (r >= 0) & (r < n_rows) & (c >= 0) & (c < n_cols)
            slot = degrees.copy()
            targets = r * n_cols + c
            table[ids[valid], slot[valid]] = targets[valid]
            degrees += valid
        return table, degrees

    def are_adjacent(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test between cell-id arrays ``a`` and ``b``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        row_diff = np.abs(a // self._n_cols - b // self._n_cols)
        col_diff = np.abs(a % self._n_cols - b % self._n_cols)
        return (row_diff <= 1) & (col_diff <= 1) & (a != b)

    def to_networkx(self) -> "networkx.Graph":
        """Materialize as a networkx graph (analysis / visualization)."""
        try:
            import networkx as nx
        except ImportError as error:
            raise ImportError(
                "GridGraph.to_networkx needs the 'networkx' package, which "
                "is not installed; nothing else in repro uses it"
            ) from error
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_nodes))
        for node in range(self.n_nodes):
            for neighbor in self.neighbors_padded[node]:
                if neighbor != self.PAD and neighbor > node:
                    graph.add_edge(node, int(neighbor))
        return graph

    def __repr__(self) -> str:
        return f"GridGraph(n_nodes={self.n_nodes}, grid={self.grid!r})"
