"""Lloyd's k-means with k-means++ seeding — IVF's coarse quantizer and
PQ's codebooks, every sub-space in one call.

Faiss's IVF index partitions the vector space with a k-means Voronoi
diagram; this module provides that quantizer for
:class:`repro.index.ivf.IVFFlatIndex` and the per-subspace codebooks of
:class:`repro.index.pq.ProductQuantizer`. :func:`kmeans` takes stacked
data ``(m, n, s)`` — ``m`` independent problems over the same ``n`` rows,
PQ's sub-spaces — and runs them in lockstep; a 2-D array is the
``m = 1`` case, so there is one implementation. A sub-space's result
does not depend on the others it was stacked with.

It computes in the dtype it is handed (float32 stays float32; anything
but float32/float64 becomes float64). Both steps lean on the expanded
form ``|x|² - 2 x·c + |c|²``, whose round-off scales with ``|x|²``, so
the data is centred on its mean first and the centres are shifted back
at the end. A Lloyd step is one GEMM per row strip: the centred rows sit
in one augmented buffer ``[x, -1]`` beside centres ``[c, |c|²/2]``, and
``argmax [x, -1]·[c, |c|²/2]`` is the nearest centre.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .distance import _strips, as_floats

#: bytes of the ``(m, rows, k)`` score strip one Lloyd step holds, in a
#: scratch it shares with seeding's D² mass and the float64 column the
#: bincounts sum. Beside it live only the augmented rows (the data's one
#: copy) and the assignment, so PQ's set-up peak stays below the
#: encoder's: a first-touched page costs time as well as memory
_STRIP_BYTES = 1 << 19


def _seed_rows(centred: np.ndarray, k: int, rng: np.random.Generator,
               mass: Optional[np.ndarray] = None) -> np.ndarray:
    """Row numbers ``(m, k)`` of ``k`` k-means++ seeds (D² sampling) per
    sub-space of centred ``(m, n, s)`` data.

    One uniform draw per seed after the first, inverted through the
    cumulative D² mass — the draws ``rng.choice(n, p=...)`` would make.
    The draws are taken up front, sub-space by sub-space, in the order a
    loop of single calls takes them (one ``integers``, then ``k - 1``
    ``random``\\ s), so the sub-spaces then advance in lockstep. A
    sub-space with fewer than ``k`` distinct rows runs out of D² mass
    and repeats its first seed from there on (as the loop did), but it
    has still used up all ``k - 1`` of its uniforms, where the loop
    stopped drawing: the rows are the loop's, the generator's state
    after the call is not. ``mass`` is an ``(m, n)`` float64 scratch to
    use.
    """
    m, n, _ = centred.shape
    first = np.empty(m, dtype=np.int64)
    uniforms = np.empty((m, k - 1))
    for j in range(m):
        first[j] = rng.integers(0, n)
        uniforms[j] = rng.random(k - 1)
    norms = np.einsum("mij,mij->mi", centred, centred)
    # A distance below the expanded form's round-off is a copy of the
    # seed: flushed to zero, so a seed's duplicates are never drawn again
    # and "every point is a seed already" is an exact test.
    round_off = 16.0 * np.finfo(centred.dtype).eps
    subspaces = np.arange(m)

    dist_sq = np.empty((m, n, 1), dtype=centred.dtype)
    mass = np.empty((m, n)) if mass is None else mass
    # the flush bound's scratch is the mass buffer, free until the next
    # draw's cumsum rewrites it
    bound = mass.view(centred.dtype)[:, :n]

    def squared_distances_to(seeds: np.ndarray) -> np.ndarray:
        # |x|² - 2 x·x_seed + |x_seed|², in place (-2 scales exactly)
        seed_norms = norms[subspaces, seeds][:, None]
        np.matmul(centred, centred[subspaces, seeds][:, :, None], out=dist_sq)
        out = dist_sq[..., 0]
        out *= -2.0
        out += norms
        out += seed_norms
        np.add(norms, seed_norms, out=bound)
        np.multiply(bound, round_off, out=bound)
        np.copyto(out, 0.0, where=out <= bound)
        return out

    rows = np.empty((m, k), dtype=np.int64)
    rows[:, 0] = first
    closest_sq = squared_distances_to(first).copy()
    for i in range(1, k):
        mass[...] = closest_sq  # cumsum(dtype=float64) would cast a copy
        np.cumsum(mass, axis=1, out=mass)
        total = mass[:, -1]
        # the searchsorted(side="right") of each row's draw in its mass
        drawn = np.count_nonzero(
            mass <= (uniforms[:, i - 1] * total)[:, None], axis=1)
        exhausted = total <= 1e-18  # all points identical to chosen centres
        rows[:, i] = np.where(exhausted, first, np.minimum(drawn, n - 1))
        np.minimum(closest_sq, squared_distances_to(rows[:, i]),
                   out=closest_sq)
    return rows


def kmeans_plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centres by D² sampling."""
    data = as_floats(data)
    return data[_seed_rows((data - data.mean(axis=0))[None], k, rng)[0]]


def kmeans(
    data: np.ndarray,
    k: int,
    iterations: int = 25,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster ``data`` into ``k`` centres; returns ``(centers, assignment)``.

    ``data`` is ``(n, s)``, giving ``(k, s)`` centres and an ``(n,)``
    assignment, or stacked ``(m, n, s)``, giving ``(m, k, s)`` and
    ``(m, n)``: each sub-space clustered as its own ``(n, s)`` call
    would, with the seeding draws taken in sub-space order (see
    :func:`_seed_rows`). Empty clusters are re-seeded with the point
    farthest from its centre; a sub-space stops updating once no centre
    moves by ``tolerance``. Centres come back in the dtype of ``data``
    (float32 or float64).
    """
    data = as_floats(data)
    if data.ndim not in (2, 3):
        raise ValueError("data must be 2-D (n, s) or stacked 3-D (m, n, s)")
    stacked = data if data.ndim == 3 else data[None]
    m, n, dim = stacked.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = rng if rng is not None else np.random.default_rng()
    dtype = stacked.dtype

    offset = stacked.mean(axis=1)
    # rows [x - offset, -1] and centres [c, |c|²/2]: their product is
    # x·c - |c|²/2, largest at the nearest centre
    augmented = np.empty((m, n, dim + 1), dtype=dtype)
    centred = augmented[..., :dim]
    np.subtract(stacked, offset[:, None, :], out=centred)
    augmented[..., dim] = -1.0
    # one scratch serves the phases in turn: seeding's float64 D² mass,
    # then each Lloyd step's score strips (a widened last one too) and,
    # after them, the float64 column its bincounts sum
    budget = _STRIP_BYTES // dtype.itemsize
    scratch = np.empty(-(-max((budget + m * k) * dtype.itemsize, 8 * m * n)
                         // 8), dtype=np.float64)
    column_weights = scratch[:m * n].reshape(m, n)
    books = np.empty((m, k, dim + 1), dtype=dtype)
    centers = books[..., :dim]
    centers[...] = np.take_along_axis(
        centred, _seed_rows(centred, k, rng, column_weights)[..., None],
        axis=1)

    assignment = np.zeros((m, n), dtype=np.int64)
    offsets = (np.arange(m) * k)[:, None]  # sub-space j's bins: j·k + c
    strip = scratch.view(dtype)
    live = np.arange(m)  # sub-spaces still moving
    for _iteration in range(iterations):
        every = len(live) == m
        chosen = slice(None) if every else live  # views while all move
        live_books = books[chosen]
        live_books[..., dim] = 0.5 * np.einsum(
            "mij,mij->mi", live_books[..., :dim], live_books[..., :dim])
        scores_of = live_books.transpose(0, 2, 1)
        for q0, q1 in _strips(n, len(live) * k, budget):
            size = len(live) * (q1 - q0) * k
            if size > len(strip):
                strip = np.empty(size, dtype=dtype)
            scores = strip[:size].reshape(len(live), q1 - q0, k)
            np.matmul(augmented[chosen, q0:q1], scores_of, out=scores)
            assignment[chosen, q0:q1] = scores.argmax(axis=2)

        # one bincount per column over all m·k bins (a stopped sub-space's
        # are summed too, and dropped: cheaper than gathering the live
        # rows); the bin offsets are added in place and taken off again
        assignment += offsets
        counts = np.bincount(assignment.ravel(), minlength=m * k)
        sums = np.empty((m * k, dim))
        for column in range(dim):
            column_weights[...] = centred[..., column]
            sums[:, column] = np.bincount(
                assignment.ravel(), weights=column_weights.ravel(),
                minlength=m * k)
        assignment -= offsets
        counts = counts.reshape(m, k)[chosen]
        updated = (sums.reshape(m, k, dim)[chosen]
                   / np.maximum(counts, 1)[..., None]).astype(dtype,
                                                               copy=False)
        for j in np.flatnonzero((counts == 0).any(axis=1)):
            sub = live[j]
            gap = centred[sub] - centers[sub][assignment[sub]]
            updated[j, counts[j] == 0] = centred[
                sub, np.einsum("ij,ij->i", gap, gap).argmax()]
        moved = np.abs(updated - centers[chosen]).max(axis=(1, 2))
        centers[chosen] = updated
        live = live[~(moved < tolerance)]
        if not len(live):
            break
    centers = centers + offset[:, None, :]
    if data.ndim == 2:
        return centers[0], assignment[0]
    return centers, assignment
