"""The one L1 distance kernel every index in :mod:`repro.index` scans with.

TrajCL's similarity is an L1 distance between embeddings, the only
embedding distance this package serves, so brute force, the IVF list
scans, PQ's sub-space assignment and re-rank, the int8 code scan,
k-means assignment and the service's pairwise matrix all call into this
module instead of each writing
``abs(a[:, None, :] - b[None, :, :]).sum(2)`` and materialising a
``(q, n, d)`` cube of their own.

Three rules hold for every entry point:

* **dtype-preserving** — float32 operands give float32 distances
  (a float16 refine tail against float32 queries included), float64 give
  float64, and anything else is computed in float64
  (:func:`float_dtype`, the one statement of that rule: the indexes and
  k-means store by it too). A float32 encoder keeps a float32 scan;
  nothing is upcast on the way.
* **blocked on both axes** — the difference cube lives in one scratch
  of :data:`_CUBE_ELEMENTS` scalars cut along the query *and* the data
  axis, so a ``16 x 5000 x 64`` scan and a ``3500 x 128 x 4`` sub-space
  assignment both stay cache-sized.
* **split-invariant** — every distance :func:`pairwise` and
  :func:`topk` return is one left-to-right/pairwise sum over the ``d``
  terms of its own ``(i, j)`` pair, so its bits depend on the two
  vectors alone, never on the batch they arrived in or on where a block
  boundary fell. Sharded kNN being bit-identical to single-service kNN
  rests on that.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["pairwise", "assign", "topk", "topk_rows", "float_dtype",
           "as_floats"]

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
#: scalars in the (query block, data block, dim) difference scratch
_CUBE_ELEMENTS = 1 << 15
#: most data rows one block spans (the rest of the scratch goes to queries)
_DATA_BLOCK = 256
#: scalars in the (query strip, N) distance strip ``assign``/``topk`` hold
_STRIP_ELEMENTS = 1 << 18
#: numpy sums fewer than this many contiguous terms left to right, so
#: below it a reduction over the *leading* axis of a ``(dim, q, n)`` cube
#: gives the same bits as one over the trailing axis of ``(q, n, dim)``
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


def _operands(queries, data) -> Tuple[np.ndarray, np.ndarray]:
    """Both operands 2-D, in the one dtype their distances come back in."""
    queries = np.atleast_2d(np.asarray(queries))
    data = np.atleast_2d(np.asarray(data))
    if queries.ndim != 2 or data.ndim != 2:
        raise ValueError("distance operands must be 2-D")
    if queries.shape[1] != data.shape[1]:
        raise ValueError(
            f"dimension mismatch: {queries.shape[1]} vs {data.shape[1]}"
        )
    dtype = float_dtype(queries.dtype, data.dtype)
    return queries.astype(dtype, copy=False), data.astype(dtype, copy=False)


def _blocks(n_queries: int, n: int, dim: int) -> Iterator[Tuple[int, int, int, int]]:
    """``(q0, q1, n0, n1)`` tiles whose cube fits :data:`_CUBE_ELEMENTS`."""
    data_step = max(1, min(n, _DATA_BLOCK, _CUBE_ELEMENTS // dim))
    query_step = max(1, _CUBE_ELEMENTS // (data_step * dim))
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
    """Write the ``(|Q|, N)`` distances of same-dtype operands into ``out``.

    With ``weights`` (one per dimension) the differences are formed in
    the operands' dtype — int16 codes — and weighted and summed in the
    dtype of ``weights``.
    """
    n_queries, dim = queries.shape
    if dim == 0 or out.size == 0:
        out[...] = 0
        return
    planes = dim < _PLANE_DIMS and weights is None
    if planes:
        queries = np.ascontiguousarray(queries.T)
        data = np.ascontiguousarray(data.T)
    scratch = np.empty(min(max(_CUBE_ELEMENTS, dim), out.size * dim),
                       dtype=queries.dtype)
    if weights is not None:
        floats = np.empty(scratch.shape, dtype=weights.dtype)
    for q0, q1, n0, n1 in _blocks(n_queries, out.shape[1], dim):
        size = (q1 - q0) * (n1 - n0) * dim
        if planes:
            shape, axis = (dim, q1 - q0, n1 - n0), 0
            left, right = queries[:, q0:q1, None], data[:, None, n0:n1]
        else:
            shape, axis = (q1 - q0, n1 - n0, dim), 2
            left, right = queries[q0:q1, None, :], data[None, n0:n1, :]
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
            np.matmul(terms, weights, out=out[q0:q1, n0:n1])
            continue
        np.abs(cube, out=cube)
        np.add.reduce(cube, axis=axis, out=out[q0:q1, n0:n1])


def pairwise(queries, data,
             weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense ``(|Q|, |D|)`` L1 distances.

    ``weights`` turns the sum into ``sum_d w_d |a_d - b_d|`` over
    operands taken *as they are* — the int8 index passes int16 codes and
    its float32 grid steps — and the result has the dtype of ``weights``.
    """
    if weights is None:
        queries, data = _operands(queries, data)
        out = np.empty((len(queries), len(data)), dtype=queries.dtype)
    else:
        out = np.empty((len(queries), len(data)), dtype=weights.dtype)
    _fill(queries, data, out, weights)
    return out


def assign(queries, data) -> np.ndarray:
    """Index of the nearest ``data`` row per query (ties to the lowest)."""
    queries, data = _operands(queries, data)
    if len(data) == 0:
        raise ValueError("nothing to assign to: data has no rows")
    nearest = np.empty(len(queries), dtype=np.int64)
    strip = None
    for q0, q1 in _strips(len(queries), len(data)):
        if strip is None or len(strip) < q1 - q0:  # or a widened last one
            strip = np.empty((q1 - q0, len(data)), dtype=queries.dtype)
        rows = strip[:q1 - q0]
        _fill(queries[q0:q1], data, rows)
        np.argmin(rows, axis=1, out=nearest[q0:q1])
    return nearest


def topk(queries, data, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest ``data`` rows per query: ``(distances, indices)``.

    Ranked and padded as :func:`topk_rows` does; the ``(|Q|, N)`` matrix
    exists only one query strip at a time.
    """
    queries, data = _operands(queries, data)
    out_distances = np.full((len(queries), k), np.inf, dtype=queries.dtype)
    out_indices = np.full((len(queries), k), -1, dtype=np.int64)
    strip = None
    for q0, q1 in _strips(len(queries), len(data)):
        if strip is None or len(strip) < q1 - q0:  # or a widened last one
            strip = np.empty((q1 - q0, len(data)), dtype=queries.dtype)
        rows = strip[:q1 - q0]
        _fill(queries[q0:q1], data, rows)
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
