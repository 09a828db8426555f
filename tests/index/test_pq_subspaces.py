"""PQ's one-pass sub-space kernels against the per-sub-space loop.

``loop_*`` below is how :class:`~repro.index.pq.ProductQuantizer` coded
and built LUTs before: one :func:`~repro.index.distance.assign` /
:func:`~repro.index.distance.pairwise` call per sub-space. The stacked
kernels (``repro.index.pq.assign_subspaces`` / ``pairwise_subspaces``)
must give the same bits (codes, tables, decoded rows), whatever the
sub-space width (both of ``_fill``'s summation orders), padding, dtype
or row count — a last cube of one row included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import ProductQuantizer, distance
from repro.index.pq import assign_subspaces, pairwise_subspaces


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
@given(subspace_problem())
def test_one_pass_is_the_per_subspace_loop(problem):
    queries, books = problem
    codes = assign_subspaces(queries, books)
    assert codes.dtype == np.uint8
    np.testing.assert_array_equal(codes, loop_assign(queries, books))
    tables = pairwise_subspaces(queries, books)
    assert tables.dtype == queries.dtype
    np.testing.assert_array_equal(tables,
                                  loop_pairwise(queries, books))


@pytest.mark.parametrize("rows", [2, 129, 257, 2049])
def test_strip_boundaries_move_no_code(rows):
    """Cubes of 16 rows in the one pass (16 x 128 x 4 differences a row
    in 2^17) and strips of 2048 rows in each per-sub-space
    ``distance.assign``: a row count one past either boundary moves no
    code."""
    rng = np.random.default_rng(rows)
    books = rng.normal(size=(16, 128, 4)).astype(np.float32)
    queries = rng.normal(size=(rows, 16, 4)).astype(np.float32)
    np.testing.assert_array_equal(
        assign_subspaces(queries, books),
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
        pairwise_subspaces(np.zeros((3, 4, 2)), np.zeros((4, 5, 3)))
    with pytest.raises(ValueError, match="sub-space"):
        assign_subspaces(np.zeros((3, 8)), np.zeros((4, 5, 2)))
    with pytest.raises(ValueError, match="256"):
        assign_subspaces(np.zeros((3, 4, 2)), np.zeros((4, 257, 2)))
