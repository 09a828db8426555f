"""The one L1 distance kernel :mod:`repro.index` scans with.

TrajCL's similarity is an L1 distance between embeddings, the only
embedding distance this package serves. Brute force, IVF, PQ's codes,
LUTs and re-rank, the int8 code scan, HNSW's neighbour pruning and the
service's pairwise matrix call into this module, and none materialises
a ``(q, n, d)`` cube. :func:`pairwise` and :func:`assign` also take PQ's
sub-spaces stacked, ``(|Q|, m, s)`` against ``(m, k, s)``; a 2-D pair is
``m = 1``, so there is one fill and one summation order. k-means ranks
centres with its own L2 GEMM (``[x, -1]·[c, |c|²/2]``, the Lloyd
objective), and HNSW's graph walk sums its own rows, to this kernel's
bits (``tests/index/test_distance_bits.py``).

Three rules hold for every entry point:

* **dtype-preserving** — float32 operands give float32 distances
  (a float16 refine tail against float32 queries included), float64 give
  float64, and anything else is computed in float64
  (:func:`float_dtype`, the one statement of that rule: the indexes and
  k-means store by it too). A float32 encoder keeps a float32 scan;
  nothing is upcast on the way.
* **blocked on both axes** — the difference cube lives in one scratch
  of :data:`_CUBE_ELEMENTS` scalars cut along the query *and* the data
  axis (never across sub-spaces), so a ``16 x 5000 x 64`` scan and a
  ``3500 x 16 x 128 x 4`` stacked assignment both stay cache-sized. A
  block spans every sub-space, so the scratch is at least ``m * s``: PQ's
  re-rank stacks its queries as sub-spaces, ``|Q| * d`` scalars.
* **split-invariant** — every distance :func:`pairwise` and
  :func:`topk` return is one left-to-right/pairwise sum over the ``d``
  terms of its own ``(i, j)`` pair (or sub-space pair), so its bits
  depend on the two vectors alone, never on the batch they arrived in
  or on where a block boundary fell. Sharded kNN being bit-identical to
  single-service kNN rests on that.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["pairwise", "assign", "topk", "topk_rows", "float_dtype",
           "as_floats"]

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
#: scalars in the (query, sub-space, data row, dim) difference scratch
_CUBE_ELEMENTS = 1 << 15
#: most data rows one block spans (the rest of the scratch goes to queries)
_DATA_BLOCK = 256
#: scalars in the (query strip, N) distance strip ``assign``/``topk`` hold
_STRIP_ELEMENTS = 1 << 18
#: numpy sums fewer than this many contiguous terms left to right, so
#: below it a reduction over the *leading* axis of a ``(dim, q, m, n)``
#: cube gives the same bits as one over the trailing axis of ``(q, m, n, dim)``
#: — without running every inner loop over a handful of elements
_PLANE_DIMS = 8


def float_dtype(*dtypes) -> np.dtype:
    """The dtype vectors of ``dtypes`` are stored and compared in: their
    promotion if that is float32 or float64, else float64."""
    dtype = np.result_type(*dtypes)
    return dtype if dtype in _FLOATS else _FLOATS[1]


def as_floats(array) -> np.ndarray:
    """``array`` in its :func:`float_dtype` (no copy if it already is)."""
    array = np.asarray(array)
    return array.astype(float_dtype(array.dtype), copy=False)


def _operands(queries, data,
              cast: bool = True) -> Tuple[np.ndarray, np.ndarray, bool]:
    """``(|Q|, m, s)`` queries and ``(m, N, s)`` data (a 2-D pair as the
    ``m = 1`` view) in the dtype their distances come back in, unless not
    ``cast``, and whether they came stacked."""
    queries = np.atleast_2d(np.asarray(queries))
    data = np.atleast_2d(np.asarray(data))
    stacked = queries.ndim == 3
    if queries.ndim == data.ndim == 2:
        queries, data = queries[:, None], data[None]
    elif not queries.ndim == data.ndim == 3:
        raise ValueError("distance operands must be (|Q|, d) and (N, d), or "
                         "sub-spaces stacked as (|Q|, m, s) and (m, N, s)")
    mine, theirs = queries.shape[1:], (len(data), data.shape[2])
    if mine != theirs:
        raise ValueError(f"sub-space mismatch: (m, s) {mine} vs {theirs}"
                         if stacked else
                         f"dimension mismatch: {mine[1]} vs {theirs[1]}")
    if not cast:
        return queries, data, stacked
    dtype = float_dtype(queries.dtype, data.dtype)
    return (queries.astype(dtype, copy=False), data.astype(dtype, copy=False),
            stacked)


def _blocks(n_queries: int, n: int,
            width: int) -> Iterator[Tuple[int, int, int, int]]:
    """``(q0, q1, n0, n1)`` tiles whose cube, ``width`` scalars a pair
    (every sub-space's), fits :data:`_CUBE_ELEMENTS`."""
    data_step = max(1, min(n, _DATA_BLOCK, _CUBE_ELEMENTS // width))
    query_step = max(1, _CUBE_ELEMENTS // (data_step * width))
    for q0 in range(0, n_queries, query_step):
        q1 = min(q0 + query_step, n_queries)
        for n0 in range(0, n, data_step):
            yield q0, q1, n0, min(n0 + data_step, n)


def _strips(n_queries: int, n: int,
            budget: int = _STRIP_ELEMENTS) -> Iterator[Tuple[int, int]]:
    """Query ranges whose ``(rows, n)`` strip fits ``budget`` scalars.

    A range never holds one row alone unless there is only one: a
    one-row matrix product is a matrix-vector call, whose bits differ
    from GEMM's, so the last row's argmin would depend on where a strip
    ended (a two-row last strip may overshoot ``budget`` by a row).
    """
    step = max(2, budget // max(n, 1))
    for q0 in range(0, n_queries, step):
        q1 = min(q0 + step, n_queries)
        if q1 == n_queries - 1:
            q1 = n_queries
        yield q0, q1
        if q1 == n_queries:
            return


def _fill(queries: np.ndarray, data: np.ndarray, out: np.ndarray,
          weights: Optional[np.ndarray] = None) -> None:
    """Write the ``(|Q|, m, N)`` distances of same-dtype ``(|Q|, m, s)``
    queries and ``(m, N, s)`` data into ``out``: each query's sub-vector
    ``j`` against every row of data ``j``.

    With ``weights`` (one per dimension) the differences are formed in
    the operands' dtype — int16 codes — and weighted and summed in the
    dtype of ``weights``.
    """
    n_queries, n_subspaces, dim = queries.shape
    if dim == 0 or out.size == 0:
        out[...] = 0
        return
    planes = dim < _PLANE_DIMS and weights is None
    if planes:
        queries = np.ascontiguousarray(queries.transpose(2, 0, 1))
        data = np.ascontiguousarray(data.transpose(2, 0, 1))
    width = n_subspaces * dim
    scratch = np.empty(min(max(_CUBE_ELEMENTS, width), out.size * dim),
                       dtype=queries.dtype)
    if weights is not None:
        floats = np.empty(scratch.shape, dtype=weights.dtype)
    for q0, q1, n0, n1 in _blocks(n_queries, out.shape[2], width):
        block = out[q0:q1, :, n0:n1]
        size = block.size * dim
        if planes:
            shape, axis = (dim,) + block.shape, 0
            left, right = queries[:, q0:q1, :, None], data[:, None, :, n0:n1]
        else:
            shape, axis = block.shape + (dim,), 3
            left, right = queries[q0:q1, :, None, :], data[None, :, n0:n1, :]
        cube = scratch[:size].reshape(shape)
        np.subtract(left, right, out=cube)
        if weights is not None:
            # a code difference is exact in the code dtype; from here on
            # the block is floating, and the weighted sum is one
            # matrix-vector product (nothing downstream of quantized
            # codes needs the split-invariant reduction below)
            terms = floats[:size].reshape(shape)
            np.copyto(terms, cube)
            np.abs(terms, out=terms)
            np.matmul(terms, weights, out=block)
            continue
        np.abs(cube, out=cube)
        np.add.reduce(cube, axis=axis, out=block)


def pairwise(queries, data,
             weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense ``(|Q|, |D|)`` L1 distances.

    Stacked operands ``(|Q|, m, s)`` and ``(m, N, s)`` give ``(|Q|, m,
    N)``: entry ``(i, j, c)`` is ``pairwise(queries[:, j], data[j])[i, c]``.

    ``weights`` turns the sum into ``sum_d w_d |a_d - b_d|`` over
    operands taken *as they are* — the int8 index passes int16 codes and
    its float32 grid steps — and the result has the dtype of ``weights``.
    """
    queries, data, stacked = _operands(queries, data, cast=weights is None)
    out = np.empty((len(queries),) + data.shape[:2],
                   dtype=queries.dtype if weights is None else weights.dtype)
    _fill(queries, data, out, weights)
    return out if stacked else out[:, 0]


def assign(queries, data) -> np.ndarray:
    """Index of the nearest ``data`` row per query (ties to the lowest);
    for stacked operands (as :func:`pairwise` takes them) ``(|Q|, m)``
    of them, one per sub-space."""
    queries, data, stacked = _operands(queries, data)
    n_subspaces, n, _ = data.shape
    if n == 0:
        raise ValueError("nothing to assign to: data has no rows")
    nearest = np.empty((len(queries), n_subspaces), dtype=np.int64)
    strip = None
    for q0, q1 in _strips(len(queries), n_subspaces * n):
        if strip is None or len(strip) < q1 - q0:  # or a widened last one
            strip = np.empty((q1 - q0, n_subspaces, n), dtype=queries.dtype)
        rows = strip[:q1 - q0]
        _fill(queries[q0:q1], data, rows)
        np.argmin(rows, axis=2, out=nearest[q0:q1])
    return nearest if stacked else nearest[:, 0]


def topk(queries, data, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest ``data`` rows per query: ``(distances, indices)``.

    Ranked and padded as :func:`topk_rows` does; the ``(|Q|, N)`` matrix
    exists only one query strip at a time.
    """
    queries, data, _ = _operands(queries, data)
    n = data.shape[1]
    out_distances = np.full((len(queries), k), np.inf, dtype=queries.dtype)
    out_indices = np.full((len(queries), k), -1, dtype=np.int64)
    strip = None
    for q0, q1 in _strips(len(queries), n):
        if strip is None or len(strip) < q1 - q0:  # or a widened last one
            strip = np.empty((q1 - q0, n), dtype=queries.dtype)
        rows = strip[:q1 - q0]
        _fill(queries[q0:q1], data, rows[:, None])
        out_distances[q0:q1], out_indices[q0:q1] = topk_rows(rows, k)
    return out_distances, out_indices


def topk_rows(distances: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-k over a dense ``(|Q|, N)`` distance matrix.

    ``argpartition`` keeps this ``O(n + t log t)`` but picks an arbitrary
    subset of equal-distance ties at the k boundary, so the candidates
    are widened to *all* rows tied with the k-th distance and ranked by
    ``(distance, id)`` — the convention shared by the brute-force
    reference, the service scan path and the sharded merge. Rows are
    padded with ``inf``/``-1`` when ``N < k``; output distances keep the
    input dtype.
    """
    n_queries, n = distances.shape
    take = min(k, n)
    out_distances = np.full((n_queries, k), np.inf, dtype=distances.dtype)
    out_indices = np.full((n_queries, k), -1, dtype=np.int64)
    if take <= 0:
        return out_distances, out_indices
    for row, row_distances in enumerate(distances):
        if take < n:
            kth = row_distances[
                np.argpartition(row_distances, take - 1)[:take]
            ].max()
            candidates = np.flatnonzero(row_distances <= kth)
        else:
            candidates = np.arange(n)
        order = np.lexsort((candidates, row_distances[candidates]))[:take]
        chosen = candidates[order]
        out_distances[row, :take] = row_distances[chosen]
        out_indices[row, :take] = chosen
    return out_distances, out_indices
