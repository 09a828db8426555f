"""Lloyd's k-means with k-means++ seeding — the IVF coarse quantizer.

Faiss's IVF index partitions the vector space with a k-means Voronoi
diagram; this module provides that quantizer for
:class:`repro.index.ivf.IVFFlatIndex` and the per-subspace codebooks of
:class:`repro.index.pq.ProductQuantizer`.

It computes in the dtype it is handed (float32 stays float32; anything
but float32/float64 becomes float64). Both steps lean on the expanded
form ``|x|² - 2 x·c + |c|²`` — seeding directly, assignment through
:func:`repro.index.distance.assign` — whose round-off scales with
``|x|²``, so the data is centred on its mean first and the centres are
shifted back at the end.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .distance import as_floats, assign


def _seed_rows(centred: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row numbers of ``k`` k-means++ seeds (D² sampling) of centred data.

    One uniform draw per seed after the first, inverted through the
    cumulative D² mass — the draws ``rng.choice(n, p=...)`` would make.
    """
    n = len(centred)
    norms = np.einsum("ij,ij->i", centred, centred)
    # A distance below the expanded form's round-off is a copy of the
    # seed: flushed to zero, so a seed's duplicates are never drawn again
    # and "every point is a seed already" is an exact test.
    round_off = 16.0 * np.finfo(centred.dtype).eps

    def squared_distances_to(seed: int) -> np.ndarray:
        dist_sq = norms - 2.0 * (centred @ centred[seed]) + norms[seed]
        dist_sq[dist_sq <= round_off * (norms + norms[seed])] = 0.0
        return dist_sq

    rows = np.empty(k, dtype=np.int64)
    rows[0] = rng.integers(0, n)
    closest_sq = squared_distances_to(rows[0])
    for i in range(1, k):
        mass = np.cumsum(closest_sq, dtype=np.float64)
        if mass[-1] <= 1e-18:  # all points identical to chosen centres
            rows[i:] = rows[0]
            break
        drawn = mass.searchsorted(rng.random() * mass[-1], side="right")
        rows[i] = min(drawn, n - 1)
        np.minimum(closest_sq, squared_distances_to(rows[i]), out=closest_sq)
    return rows


def kmeans_plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centres by D² sampling."""
    data = as_floats(data)
    return data[_seed_rows(data - data.mean(axis=0), k, rng)]


def kmeans(
    data: np.ndarray,
    k: int,
    iterations: int = 25,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster ``data`` into ``k`` centres; returns ``(centers, assignment)``.

    Empty clusters are re-seeded with the point farthest from its centre.
    Centres come back in the dtype of ``data`` (float32 or float64).
    """
    data = as_floats(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D")
    if not 1 <= k <= len(data):
        raise ValueError(f"k must be in [1, {len(data)}], got {k}")
    rng = rng if rng is not None else np.random.default_rng()

    offset = data.mean(axis=0)
    data = data - offset
    centers = data[_seed_rows(data, k, rng)]
    assignment = np.zeros(len(data), dtype=np.int64)
    sums = np.empty((k, data.shape[1]), dtype=np.float64)  # as bincount sums
    for _iteration in range(iterations):
        assignment = assign(data, centers, "l2")
        counts = np.bincount(assignment, minlength=k)
        for column in range(data.shape[1]):
            sums[:, column] = np.bincount(
                assignment, weights=data[:, column], minlength=k
            )
        updated = (sums / np.maximum(counts, 1)[:, None]).astype(
            data.dtype, copy=False)
        empty = counts == 0
        if empty.any():
            gap = data - centers[assignment]
            updated[empty] = data[np.einsum("ij,ij->i", gap, gap).argmax()]
        moved = float(np.abs(updated - centers).max())
        centers = updated
        if moved < tolerance:
            break
    return centers + offset, assignment
