"""Pointwise trajectory feature enrichment (paper §IV-B).

For every point of an (augmented) trajectory view this module produces:

* a **structural feature embedding** — the node2vec embedding of the grid
  cell enclosing the point (coarse-grained shape / connectivity signal);
* a **spatial feature embedding** — the 4-tuple ``(x, y, r, l)`` of Eq. 8:
  coordinates, the turning radian at the point, and the mean length of its
  two incident segments (fine-grained location signal);
* a shared **sinusoidal position encoding** added to both (Eq. 9).

Outputs are padded to the model's maximum length ``l`` with a boolean
key-padding mask, ready for the DualSTB encoder. Coordinates and lengths
are normalized by the grid extent / cell size respectively — an
implementation-level choice for optimization stability that does not alter
the information content of the features.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..trajectory.grid import Grid
from ..trajectory.trajectory import (
    Ragged, TrajectoryLike, as_points, as_points_batch,
)


def sinusoidal_position_encoding(length: int, dim: int) -> np.ndarray:
    """The Transformer sine/cosine table ``(length, dim)`` (Eq. 9)."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    js = np.arange(dim, dtype=np.float64)[None, :]
    # even dims use sin(i / 10000^(j/d)); odd dims cos(i / 10000^((j-1)/d))
    exponents = np.where(js % 2 == 0, js, js - 1) / max(dim, 1)
    angles = positions / np.power(10000.0, exponents)
    table = np.where(js % 2 == 0, np.sin(angles), np.cos(angles))
    return table


def spatial_features(points: np.ndarray, grid: Grid) -> np.ndarray:
    """Eq. 8 features per point, normalized: ``(N, 4)``.

    ``x, y`` are scaled to [0, 1] over the grid extent; the radian is
    scaled by 1/π; segment mean length is scaled by the cell size. For the
    first/last point (no angle defined) the radian defaults to π (straight
    continuation) and the missing segment is ignored in the mean.
    """
    n = len(points)
    x = (points[:, 0] - grid.min_x) / (grid.max_x - grid.min_x)
    y = (points[:, 1] - grid.min_y) / (grid.max_y - grid.min_y)

    radians = np.full(n, np.pi)
    mean_len = np.zeros(n)
    if n >= 2:
        seg = np.linalg.norm(np.diff(points, axis=0), axis=1)  # (N-1,)
        mean_len[0] = seg[0]
        mean_len[-1] = seg[-1]
        if n >= 3:
            mean_len[1:-1] = 0.5 * (seg[:-1] + seg[1:])
            before = points[:-2] - points[1:-1]
            after = points[2:] - points[1:-1]
            # |before| and |after| are the segment lengths: ``before`` is
            # a segment negated, exactly
            denom = np.maximum(seg[:-1] * seg[1:], 1e-12)
            cos = np.clip((before * after).sum(axis=1) / denom, -1.0, 1.0)
            radians[1:-1] = np.arccos(cos)
    return np.stack(
        [x, y, radians / np.pi, mean_len / grid.cell_size], axis=1
    )


class FeatureEnrichment:
    """Stateless-per-call feature pipeline bound to a grid and cell table.

    Parameters
    ----------
    grid:
        The space partitioning (cell side = the paper's 100 m parameter).
    cell_embeddings:
        ``(n_cells, d_t)`` array, normally from
        :func:`repro.graph.node2vec_embeddings`.
    max_len:
        Model maximum trajectory length ``l``; longer inputs are truncated.
    dtype:
        Dtype of the cell table, the position encodings and every padded
        batch built from them (training keeps the float64 default).
    """

    def __init__(self, grid: Grid, cell_embeddings: np.ndarray,
                 max_len: int = 64, dtype=np.float64):
        cell_embeddings = np.asarray(cell_embeddings, dtype=dtype)
        if cell_embeddings.ndim != 2 or len(cell_embeddings) != grid.n_cells:
            raise ValueError(
                f"cell_embeddings must be (n_cells={grid.n_cells}, d_t), "
                f"got {cell_embeddings.shape}"
            )
        if max_len < 2:
            raise ValueError("max_len must be at least 2")
        self.grid = grid
        self.cell_embeddings = cell_embeddings
        self.dtype = cell_embeddings.dtype
        self.max_len = int(max_len)
        self.structural_dim = cell_embeddings.shape[1]
        self.spatial_dim = 4
        self._pe_structural = sinusoidal_position_encoding(
            self.max_len, self.structural_dim).astype(dtype, copy=False)
        self._pe_spatial = sinusoidal_position_encoding(
            self.max_len, self.spatial_dim).astype(dtype, copy=False)

    def astype(self, dtype) -> "FeatureEnrichment":
        """This pipeline with its tables in ``dtype`` (itself if they are)."""
        if self.dtype == dtype:
            return self
        return FeatureEnrichment(self.grid, self.cell_embeddings,
                                 self.max_len, dtype)

    def projected(self, weight: np.ndarray, dtype) -> "FeatureEnrichment":
        """This pipeline in ``dtype``, each structural row followed by its
        product with ``weight`` (formed in float64): one gather and one
        add give a padded row and its projection. The cell table grows
        ``weight.shape[1] / d_t``-fold."""
        def widen(table):
            table = np.asarray(table, np.float64)
            wide = np.empty((len(table), table.shape[1] + weight.shape[1]),
                            dtype)
            wide[:, :table.shape[1]] = table
            wide[:, table.shape[1]:] = table @ weight
            return wide

        wide = FeatureEnrichment(self.grid, widen(self.cell_embeddings),
                                 self.max_len, dtype)
        wide._pe_structural = widen(sinusoidal_position_encoding(
            self.max_len, self.structural_dim))
        return wide

    def encode_one(self, trajectory: TrajectoryLike) -> Tuple[np.ndarray, np.ndarray]:
        """Unpadded ``(T, S)`` matrices for a single trajectory."""
        points = as_points(trajectory)[: self.max_len]
        cells = self.grid.cell_of(points)
        structural = self.cell_embeddings[cells] + self._pe_structural[: len(points)]
        spatial = spatial_features(points, self.grid) + self._pe_spatial[: len(points)]
        return structural, spatial

    def prepare(self, trajectories: Sequence[TrajectoryLike]) -> Ragged:
        """The batch as a validated :class:`~repro.trajectory.Ragged`:
        :func:`~repro.trajectory.as_points_batch` on the whole items (a
        non-finite point beyond ``max_len`` is refused too), so the fast
        and reference paths accept exactly the same inputs. Items are cut
        to ``max_len`` when gathered (``take(rows, max_len)``)."""
        if len(trajectories) == 0:
            raise ValueError("empty batch")
        return as_points_batch(trajectories)

    def _flat_spatial_features(
        self, flat: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Eq. 8 features of concatenated trajectories, ``(sum(n), 4)``.

        Identical per-element arithmetic to :func:`spatial_features`, on
        shifted slices of the packed points; each trajectory's two ends
        are then overwritten (what straddles a boundary is never kept).
        """
        total = len(flat)
        grid = self.grid
        xs, ys = np.ascontiguousarray(flat.T)
        x = (xs - grid.min_x) / (grid.max_x - grid.min_x)
        y = (ys - grid.min_y) / (grid.max_y - grid.min_y)
        radians = np.full(total, np.pi)
        mean_len = np.zeros(total)
        if total > 1:
            # np.linalg.norm's and .sum(axis=1)'s sums of two, by column
            dx, dy = xs[1:] - xs[:-1], ys[1:] - ys[:-1]
            seg = np.sqrt(dx * dx + dy * dy)
            if total > 2:
                mean_len[1:-1] = 0.5 * (seg[:-1] + seg[1:])
                # (before · after) / (|before| |after|): ``before`` is a
                # segment negated, exactly
                dot = ((xs[:-2] - xs[1:-1]) * (xs[2:] - xs[1:-1])
                       + (ys[:-2] - ys[1:-1]) * (ys[2:] - ys[1:-1]))
                dot /= np.maximum(seg[:-1] * seg[1:], 1e-12)
                radians[1:-1] = np.arccos(np.clip(dot, -1.0, 1.0, out=dot))
            starts, ends = offsets[:-1], offsets[1:] - 1
            radians[starts] = radians[ends] = np.pi
            mean_len[starts] = mean_len[ends] = 0.0
            multi = lengths >= 2
            mean_len[starts[multi]] = seg[starts[multi]]
            mean_len[ends[multi]] = seg[ends[multi] - 1]
        return np.stack(
            [x, y, radians / np.pi, mean_len / grid.cell_size], axis=1,
            dtype=self.dtype, casting="same_kind",
        )

    def point_features(
        self, batch: Ragged
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-point features of :meth:`prepare`-d trajectories, in the
        order of their packed points (:meth:`Ragged.pack
        <repro.trajectory.Ragged.pack>`): cell ids ``(P,)``, Eq. 8 spatial
        features ``(P, 4)`` and the ``(B,)`` lengths that cut them into
        trajectories. No padding: :meth:`pad_features` lays any run of
        whole trajectories out as a batch.
        """
        flat, offsets = batch.pack()
        lengths = np.diff(offsets)
        return (self.grid.cell_of_validated(flat),
                self._flat_spatial_features(flat, offsets, lengths), lengths)

    def pad_features(
        self, cells: np.ndarray, spatial: np.ndarray, lengths: np.ndarray,
        pad_len: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`point_features` output as a padded batch ``(T, S,
        padding_mask)``. ``pad_len`` overrides the padded length (default:
        ``max_len``); it must cover the longest trajectory in the batch.
        The inference engine uses this for length-bucketed batching.
        """
        batch = len(lengths)
        longest = int(lengths.max())
        pad_len = self.max_len if pad_len is None else int(pad_len)
        if pad_len < longest or pad_len > self.max_len:
            raise ValueError(
                f"pad_len={pad_len} must be in [{longest}, {self.max_len}]"
            )
        mask = np.arange(pad_len) >= lengths[:, None]
        if int(lengths.min()) == pad_len:  # no padded slot: no scatter
            structural = self.cell_embeddings[cells.reshape(batch, pad_len)]
            structural += self._pe_structural[:pad_len]
            padded = np.empty((batch, pad_len, self.spatial_dim), self.dtype)
            np.add(spatial.reshape(padded.shape), self._pe_spatial[:pad_len],
                   out=padded)
            return structural, padded, mask
        valid = ~mask  # row-major True positions are the flat point order

        # One gather per stream, straight into the padded layout (padded
        # slots read cell 0); the position encoding is added to whole
        # rows and the padded slots are zeroed afterwards.
        padded_cells = np.zeros((batch, pad_len), dtype=np.int64)
        padded_cells[valid] = cells
        structural = self.cell_embeddings[padded_cells]
        structural += self._pe_structural[:pad_len]
        structural[mask] = 0.0
        padded = np.zeros((batch, pad_len, self.spatial_dim), self.dtype)
        padded[valid] = spatial
        padded += self._pe_spatial[:pad_len]
        padded[mask] = 0.0
        return structural, padded, mask

    def encode_batch(
        self,
        trajectories: Sequence[TrajectoryLike],
        pad_len: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Padded batch: ``(T, S, padding_mask, lengths)``.

        ``T``: ``(B, l, d_t)``; ``S``: ``(B, l, 4)``; ``padding_mask``:
        boolean ``(B, l)`` with True at padded positions; ``lengths``:
        ``(B,)`` true lengths. ``l`` is ``max_len`` unless ``pad_len``
        narrows it (length-bucketed inference batches).

        The whole batch is featurized in one vectorized pass — cell lookup
        and Eq. 8 geometry are computed over the concatenated points and
        land in the padded layout directly; the position encodings are
        added to whole rows.
        """
        batch = self.prepare(trajectories)
        cells, spatial, lengths = self.point_features(
            batch.take(np.arange(len(batch)), self.max_len))
        return (*self.pad_features(cells, spatial, lengths, pad_len), lengths)
