"""Every L1 sum in ``repro.index`` has the bits of a 2-D
:func:`~repro.index.distance.pairwise` call.

``loop_*`` below is one :func:`~repro.index.distance.assign` /
:func:`~repro.index.distance.pairwise` call per sub-space. One stacked
call over ``(|Q|, m, s)`` sub-vectors and ``(m, k, s)`` books — what
:class:`~repro.index.pq.ProductQuantizer` codes and builds LUTs with —
must give the same bits (codes, tables, decoded rows), whatever the
sub-space width (both of ``_fill``'s summation orders), padding, dtype,
row count or block boundary — a last block of one row included.

HNSW sums its own rows (a 32-id call through the kernel costs more than
twice as much); its distances must still be the kernel's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import HNSWIndex, ProductQuantizer, distance


def loop_assign(queries, books):
    return np.stack([distance.assign(queries[:, j], books[j])
                     for j in range(len(books))], axis=1)


def loop_pairwise(queries, books):
    return np.stack([distance.pairwise(queries[:, j], books[j])
                     for j in range(len(books))], axis=1)


@st.composite
def subspace_problem(draw):
    m = draw(st.integers(1, 6))
    sub_dim = draw(st.sampled_from([1, 2, 4, 7, 8, 9, 13]))
    k = draw(st.sampled_from([1, 2, 17, 40, 256]))
    n = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    books = rng.normal(size=(m, k, sub_dim)).astype(dtype)
    queries = rng.normal(size=(n, m, sub_dim)).astype(dtype)
    # some queries sit exactly on a book row: exact ties and zeros
    hits = rng.integers(0, n, size=min(n, 5))
    queries[hits] = books[np.arange(m), rng.integers(0, k, size=m)]
    return queries, books


@settings(max_examples=120, deadline=None, derandomize=True)
@given(subspace_problem(), st.sampled_from((1 << 10, 1 << 15)),
       st.sampled_from((3, 256)))
def test_one_stacked_call_is_the_per_subspace_loop(problem, cube,
                                                   data_block):
    """The kernel's constants are shrunk in some examples, so tiles cut
    the book rows of every sub-space at once."""
    queries, books = problem
    saved = distance._CUBE_ELEMENTS, distance._DATA_BLOCK
    distance._CUBE_ELEMENTS, distance._DATA_BLOCK = cube, data_block
    try:
        codes = distance.assign(queries, books)
        tables = distance.pairwise(queries, books)
    finally:
        distance._CUBE_ELEMENTS, distance._DATA_BLOCK = saved
    assert codes.shape == (len(queries), len(books))
    np.testing.assert_array_equal(codes, loop_assign(queries, books))
    assert tables.dtype == queries.dtype
    np.testing.assert_array_equal(tables, loop_pairwise(queries, books))


@pytest.mark.parametrize("rows", [2, 129, 257, 2049])
def test_strip_boundaries_move_no_code(rows):
    """Tiles of 4 rows and strips of 128 in the stacked call (16 books of
    128 rows of 4: 16 x 128 x 4 differences a row), strips of 2048 rows
    in each per-sub-space ``distance.assign``: a row count one past
    either boundary moves no code."""
    rng = np.random.default_rng(rows)
    books = rng.normal(size=(16, 128, 4)).astype(np.float32)
    queries = rng.normal(size=(rows, 16, 4)).astype(np.float32)
    np.testing.assert_array_equal(
        distance.assign(queries, books),
        loop_assign(queries, books))


@pytest.mark.parametrize("dim,m", [(64, 16), (64, 8), (60, 7), (5, 8)])
def test_quantizer_codes_tables_and_rows_are_the_loops(dim, m):
    rng = np.random.default_rng(dim + m)
    data = rng.normal(size=(400, dim)).astype(np.float32)
    quantizer = ProductQuantizer(dim, n_subspaces=m, n_centroids=32)
    quantizer.train(data, rng=np.random.default_rng(0))
    padded = np.zeros((400, quantizer.padded_dim), dtype=np.float32)
    padded[:, :dim] = data
    split = padded.reshape(400, quantizer.n_subspaces, quantizer.sub_dim)
    books = quantizer.codebooks

    codes = quantizer.encode(data)
    assert codes.dtype == np.uint8
    np.testing.assert_array_equal(codes, loop_assign(split, books))

    want = loop_pairwise(split[:9], books)
    np.testing.assert_array_equal(quantizer.lut(data[:9]), want)
    np.testing.assert_array_equal(quantizer.lut(data[3:4]), want[3:4])

    decoded = np.concatenate(
        [books[j][codes[:, j]] for j in range(quantizer.n_subspaces)],
        axis=1)[:, :dim]
    np.testing.assert_array_equal(quantizer.decode(codes), decoded)
    assert quantizer.decode(codes[:0]).shape == (0, dim)


def test_mismatched_subspaces_are_refused():
    with pytest.raises(ValueError, match="sub-space"):
        distance.pairwise(np.zeros((3, 4, 2)), np.zeros((4, 5, 3)))
    with pytest.raises(ValueError, match="sub-space"):
        distance.assign(np.zeros((3, 8)), np.zeros((4, 5, 2)))
    quantizer = ProductQuantizer(8, n_subspaces=4)
    quantizer.codebooks = np.zeros((4, 257, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="256"):
        quantizer.encode(np.zeros((3, 8), dtype=np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 3, 7, 8, 9, 64])
def test_hnsw_row_sum_is_the_kernels_bits(dim, dtype):
    rng = np.random.default_rng(dim)
    data = rng.normal(size=(301, dim)).astype(dtype)
    index = HNSWIndex(dim)
    index._data = data  # the row sum computes in what it holds
    for count in (1, 32, 301):
        ids = rng.integers(0, len(data), size=count)
        query = rng.normal(size=dim).astype(dtype)
        got = index._distances_to(query, ids)
        assert got.dtype == dtype
        np.testing.assert_array_equal(
            got, distance.pairwise(query[None], data[ids])[0])
