"""The shared L1 kernel (``repro.index.distance``): equal to the naive
broadcast, dtype-preserving, bit-for-bit invariant to how the operands
are split into batches and blocks, and small in memory.

The generated cases are derandomized and bounded, so the suite is the
same every run; arrays come from a seeded ``numpy`` generator (hypothesis
draws the shapes, layouts and the seed, not 10^5 floats one by one).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import distance

FLOATS = (np.float32, np.float64)


def naive(queries, data):
    """The textbook broadcast, in float64."""
    diff = (queries.astype(np.float64)[:, None, :]
            - data.astype(np.float64)[None, :, :])
    return np.abs(diff).sum(axis=2)


def laid_out(array, layout):
    """The same values as a C, Fortran or strided (every other row and
    column of a larger buffer) array."""
    if layout == "F":
        return np.asfortranarray(array)
    if layout == "strided":
        wide = np.zeros((2 * array.shape[0], 2 * array.shape[1]),
                        dtype=array.dtype)
        wide[::2, ::2] = array
        return wide[::2, ::2]
    return np.ascontiguousarray(array)


@st.composite
def operands(draw, max_rows=300):
    n_queries = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_rows))
    dim = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    queries = rng.normal(size=(n_queries, dim)).astype(
        draw(st.sampled_from(FLOATS)))
    data = rng.normal(size=(n, dim)).astype(draw(st.sampled_from(FLOATS)))
    layouts = st.sampled_from(("C", "F", "strided"))
    return laid_out(queries, draw(layouts)), laid_out(data, draw(layouts))


def tolerance(dtype, dim):
    return 8 * dim * np.finfo(dtype).eps


# ----------------------------------------------------------------------
# Equal to the naive broadcast, in the promoted input dtype
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, derandomize=True)
@given(operands())
def test_pairwise_equals_naive_broadcast(pair):
    queries, data = pair
    out = distance.pairwise(queries, data)
    promoted = np.result_type(queries.dtype, data.dtype)
    assert out.dtype == promoted
    assert out.shape == (len(queries), len(data))
    expected = naive(queries, data)
    scale = max(1.0, float(expected.max(initial=0.0)))
    np.testing.assert_allclose(
        out, expected, rtol=0, atol=scale * tolerance(promoted, queries.shape[1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(operands(max_rows=120), st.integers(1, 12))
def test_topk_and_assign_agree_with_pairwise(pair, k):
    queries, data = pair
    full = distance.pairwise(queries, data)
    got_d, got_i = distance.topk(queries, data, k)
    want_d, want_i = distance.topk_rows(full, k)
    np.testing.assert_array_equal(got_i, want_i)
    np.testing.assert_array_equal(got_d, want_d)
    if len(data) == 0:
        with pytest.raises(ValueError):
            distance.assign(queries, data)
        return
    nearest = distance.assign(queries, data)
    assert nearest.dtype == np.int64 and nearest.shape == (len(queries),)
    np.testing.assert_array_equal(nearest, full.argmin(axis=1))


# ----------------------------------------------------------------------
# Split invariance, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, derandomize=True)
@given(operands(), st.randoms(use_true_random=False))
def test_batches_and_blocks_do_not_move_a_bit(pair, random):
    """One row at a time, one column at a time, or cut anywhere: the
    same bits as the whole matrix."""
    queries, data = pair
    full = distance.pairwise(queries, data)
    for i in range(len(queries)):
        np.testing.assert_array_equal(
            distance.pairwise(queries[i:i + 1], data)[0], full[i])
    for j in range(len(data)):
        np.testing.assert_array_equal(
            distance.pairwise(queries, data[j:j + 1])[:, 0],
            full[:, j])
    q_cut = random.randint(0, len(queries))
    d_cut = random.randint(0, len(data))
    for rows in (slice(0, q_cut), slice(q_cut, None)):
        for columns in (slice(0, d_cut), slice(d_cut, None)):
            np.testing.assert_array_equal(
                distance.pairwise(queries[rows], data[columns]),
                full[rows, columns])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(operands(max_rows=24), st.sampled_from((1, 64, 1 << 15)),
       st.sampled_from((1, 3, 256)))
def test_every_pair_alone_equals_its_cell(pair, cube, data_block):
    """``pairwise(Q, D)[i, j] == pairwise(Q[i:i+1], D[j:j+1])[0, 0]`` for
    every pair, wherever the block boundaries fall (the constants are
    shrunk so they fall inside these small operands)."""
    queries, data = pair
    saved = distance._CUBE_ELEMENTS, distance._DATA_BLOCK
    distance._CUBE_ELEMENTS, distance._DATA_BLOCK = cube, data_block
    try:
        full = distance.pairwise(queries, data)
    finally:
        distance._CUBE_ELEMENTS, distance._DATA_BLOCK = saved
    for i in range(len(queries)):
        for j in range(len(data)):
            alone = distance.pairwise(queries[i:i + 1], data[j:j + 1])
            assert alone[0, 0] == full[i, j]


def test_l1_bits_are_those_of_the_contiguous_broadcast():
    """What the previous per-index implementations returned, to the bit
    (both cube layouts: below and above ``_PLANE_DIMS`` dimensions)."""
    rng = np.random.default_rng(5)
    for dim in (1, 4, 7, 8, 9, 64, 130):
        for dtype in FLOATS:
            queries = rng.normal(size=(9, dim)).astype(dtype)
            data = rng.normal(size=(301, dim)).astype(dtype)
            expected = np.abs(queries[:, None, :] - data[None, :, :]).sum(axis=2)
            np.testing.assert_array_equal(
                distance.pairwise(queries, data), expected)


def test_topk_strips_do_not_change_the_answer(monkeypatch):
    rng = np.random.default_rng(8)
    queries, data = rng.normal(size=(23, 16)), rng.normal(size=(200, 16))
    whole = distance.topk(queries, data, 7)
    monkeypatch.setattr(distance, "_STRIP_ELEMENTS", 450)  # two rows a strip
    for got, want in zip(distance.topk(queries, data, 7), whole):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        distance.assign(queries, data), whole[1][:, 0])


# ----------------------------------------------------------------------
# Memory: a count, not a timer
# ----------------------------------------------------------------------
def test_a_scan_allocates_a_cache_sized_scratch_not_a_cube():
    rng = np.random.default_rng(2)
    queries, data = rng.normal(size=(16, 64)), rng.normal(size=(20000, 64))
    distance.pairwise(queries[:1], data[:10])  # imports, caches
    budget = 4 * 2 ** 20  # the (16, 20000, 64) cube would be 164 MB

    tracemalloc.start()
    try:
        out = distance.pairwise(queries, data)
        pairwise_peak = tracemalloc.get_traced_memory()[1]
        del out
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        distance.topk(queries, data, 10)
        topk_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert pairwise_peak - 16 * 20000 * 8 < budget
    assert topk_peak < budget


# ----------------------------------------------------------------------
# dtype rule, weights, edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q_dtype,d_dtype,expected", [
    (np.float32, np.float32, np.float32),
    (np.float32, np.float64, np.float64),
    (np.float64, np.float64, np.float64),
    (np.float32, np.float16, np.float32),   # a float16 refine tail
    (np.float16, np.float16, np.float64),
    (np.int16, np.uint8, np.float64),
    (np.int64, np.float32, np.float64),
])
def test_result_dtype(q_dtype, d_dtype, expected):
    queries = np.arange(12).reshape(3, 4).astype(q_dtype)
    data = np.arange(20).reshape(5, 4).astype(d_dtype)
    out = distance.pairwise(queries, data)
    assert out.dtype == expected
    np.testing.assert_allclose(out, naive(queries, data), rtol=1e-6)
    assert distance.topk(queries, data, 2)[0].dtype == expected


@pytest.mark.parametrize("dim", [3, 64])
def test_weighted_code_distances(dim):
    """The int8 index's form: integer codes as they are, float32 weights."""
    rng = np.random.default_rng(dim)
    q_codes = rng.integers(0, 256, size=(5, dim)).astype(np.int16)
    codes = rng.integers(0, 256, size=(700, dim)).astype(np.uint8)
    weights = rng.uniform(0.01, 0.1, size=dim).astype(np.float32)
    out = distance.pairwise(q_codes, codes, weights)
    assert out.dtype == np.float32
    gap = np.abs(q_codes.astype(np.float64)[:, None, :]
                 - codes.astype(np.float64)[None, :, :])
    np.testing.assert_allclose(out, (gap * weights).sum(axis=2), rtol=1e-5)


def test_empty_operands_keep_shape_and_dtype():
    empty_q = np.empty((0, 4), dtype=np.float32)
    data = np.ones((6, 4), dtype=np.float32)
    assert distance.pairwise(empty_q, data).shape == (0, 6)
    assert distance.pairwise(data, empty_q).shape == (6, 0)
    assert distance.pairwise(data, empty_q).dtype == np.float32
    got_d, got_i = distance.topk(data, empty_q, 3)
    assert np.isinf(got_d).all() and (got_i == -1).all()
    assert distance.assign(empty_q, data).shape == (0,)


def test_one_dimensional_query_is_one_row():
    data = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(
        distance.pairwise(data[2], data), distance.pairwise(data[2:3], data))


def test_bad_arguments():
    with pytest.raises(ValueError, match="dimension mismatch"):
        distance.pairwise(np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="nothing to assign to"):
        distance.assign(np.zeros((2, 2)), np.zeros((0, 2)))
