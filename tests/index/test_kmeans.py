"""k-means on the shared kernel against the loop it replaced.

``reference_*`` below is the previous implementation, kept verbatim (a
Python loop over the ``k`` centroids, float64 throughout) so the
vectorised one can be held to it: same seeds for the same ``rng``, same
centres and assignment after Lloyd's iterations.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BruteForceIndex, PQIndex, kmeans, kmeans_plus_plus_init

# ``repro.index.kmeans`` the attribute is the function; this is the module
kmeans_module = importlib.import_module("repro.index.kmeans")


def reference_init(data, k, rng):
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(0, n)]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-18:
            centers[i:] = centers[0]
            break
        probabilities = closest_sq / total
        centers[i] = data[rng.choice(n, p=probabilities)]
        dist_sq = ((data - centers[i]) ** 2).sum(axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def reference_lloyd(data, centers, iterations=25, tolerance=1e-6):
    centers = centers.copy()
    k = len(centers)
    assignment = np.zeros(len(data), dtype=np.int64)
    for _iteration in range(iterations):
        distances = (
            (data ** 2).sum(axis=1)[:, None]
            - 2.0 * data @ centers.T
            + (centers ** 2).sum(axis=1)[None, :]
        )
        assignment = distances.argmin(axis=1)
        moved = 0.0
        for j in range(k):
            members = data[assignment == j]
            if len(members) == 0:
                farthest = distances.min(axis=1).argmax()
                new_center = data[farthest]
            else:
                new_center = members.mean(axis=0)
            moved = max(moved, float(np.abs(new_center - centers[j]).max()))
            centers[j] = new_center
        if moved < tolerance:
            break
    return centers, assignment


@st.composite
def clusterable(draw):
    """Distinct gaussian rows plus copies of some of them."""
    k = draw(st.integers(1, 12))
    distinct = draw(st.integers(k, 150))
    copies = draw(st.integers(0, 60))
    dim = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(distinct, dim)) + rng.normal(size=dim) * 3.0
    data = np.concatenate([rows, rows[rng.integers(0, distinct, size=copies)]])
    return rng.permutation(data), k, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(clusterable())
def test_same_seeds_centres_and_assignment_as_the_loop(case):
    data, k, seed = case
    seeds = kmeans_plus_plus_init(data, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(
        seeds, reference_init(data, k, np.random.default_rng(seed)))

    centers, assignment = kmeans(data, k, rng=np.random.default_rng(seed))
    want_centers, want_assignment = reference_lloyd(data, seeds)
    assert centers.dtype == np.float64
    np.testing.assert_allclose(centers, want_centers, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(assignment, want_assignment)


def test_empty_cluster_is_reseeded_like_the_loop(monkeypatch):
    """Two seeds on one row: the later one wins no point, so its cluster
    is empty and takes the point farthest from its centre."""
    rng = np.random.default_rng(4)
    data = np.concatenate([rng.normal(size=(40, 3)),
                           rng.normal(size=(40, 3)) + 9.0,
                           [[40.0, -40.0, 40.0]]])
    rows = np.array([3, 50, 50])
    # the seam answers (m, k) rows, one row of seeds per sub-space
    monkeypatch.setattr(kmeans_module, "_seed_rows", lambda *_: rows[None])
    for iterations in (1, 25):
        centers, assignment = kmeans(data, 3, iterations=iterations)
        want_centers, want_assignment = reference_lloyd(
            data, data[rows], iterations=iterations)
        np.testing.assert_allclose(centers, want_centers, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(assignment, want_assignment)
    first, _ = kmeans(data, 3, iterations=1)
    np.testing.assert_allclose(first[2], data[-1], atol=1e-9)  # the outlier


def test_more_centres_than_distinct_points():
    data = np.repeat(np.arange(12.0).reshape(4, 3), 5, axis=0)  # 4 distinct
    seeds = kmeans_plus_plus_init(data, 7, np.random.default_rng(0))
    np.testing.assert_array_equal(
        seeds, reference_init(data, 7, np.random.default_rng(0)))
    centers, assignment = kmeans(data, 7, rng=np.random.default_rng(0))
    assert np.isfinite(centers).all()
    np.testing.assert_allclose(centers[assignment], data, atol=1e-12)


def test_float32_in_float32_out():
    rng = np.random.default_rng(1)
    data = (rng.normal(size=(600, 4)) + 5.0).astype(np.float32)
    centers, assignment = kmeans(data, 16, rng=np.random.default_rng(2))
    assert centers.dtype == np.float32
    assert kmeans_plus_plus_init(
        data, 4, np.random.default_rng(2)).dtype == np.float32
    wide, wide_assignment = kmeans(data.astype(np.float64), 16,
                                   rng=np.random.default_rng(2))
    error = ((data - centers[assignment]) ** 2).sum()
    wide_error = ((data - wide[wide_assignment]) ** 2).sum()
    assert error == pytest.approx(wide_error, rel=1e-3)


def test_uncentred_float32_data_still_clusters():
    """The expanded form loses ``|x|^2 * eps``; centring keeps that small
    even when the cloud sits far from the origin."""
    rng = np.random.default_rng(3)
    blobs = np.concatenate([rng.normal(size=(100, 2)) * 0.05 + offset
                            for offset in ((0, 0), (1, 0), (0, 1))])
    data = (blobs + 3000.0).astype(np.float32)
    centers, assignment = kmeans(data, 3, rng=np.random.default_rng(0))
    assert len(set(assignment.tolist())) == 3
    for group in range(3):
        labels = assignment[group * 100:(group + 1) * 100]
        assert np.bincount(labels, minlength=3).max() == 100


def test_integer_input_becomes_float64():
    data = np.arange(40).reshape(20, 2)
    centers, _ = kmeans(data, 2, rng=np.random.default_rng(0))
    assert centers.dtype == np.float64


def test_pq_recall_is_where_the_loop_left_it():
    """A PQ trained on a fixed seed: recall@10 0.727 with the per-centroid
    float64 loop on this data; float32 codebooks may move it by round-off
    only."""
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(24, 32))
    mix = rng.normal(size=(6, 32))
    pool = (centers[rng.integers(0, 24, size=2100)]
            + (rng.normal(size=(2100, 6)) @ mix) * 0.5)
    data, queries = pool[:2000], pool[2000:]
    exact = BruteForceIndex(32)
    exact.add(data)
    truth = exact.search(queries, 10)[1]
    index = PQIndex(32, n_subspaces=8, n_centroids=64)
    index.train(data, rng=np.random.default_rng(3))
    index.add(data)
    found = index.search(queries, 10)[1]
    hits = sum(len(set(t) & set(f)) for t, f in zip(truth, found))
    assert hits / truth.size == pytest.approx(0.727, abs=0.01)


# ----------------------------------------------------------------------
# m sub-spaces in one call ≡ m single calls, draws taken in order
# ----------------------------------------------------------------------
def subspace(kind, n, dim, k, rng):
    """One sub-space's ``(n, dim)`` rows: ``gaussian`` keeps moving for
    many Lloyd steps; ``copies`` holds exactly ``k`` distinct rows, so
    its seeds are those rows and it converges after one step; ``few``
    holds fewer than ``k``, so its D² mass runs out, seeds repeat and
    the repeats' clusters are empty."""
    if kind == "gaussian":
        return rng.normal(size=(n, dim)) + rng.normal(size=dim) * 3.0
    distinct = k if kind == "copies" else max(1, k // 2)
    rows = rng.normal(size=(distinct, dim)) * 4.0
    return rows[np.arange(n) % distinct]


def single_calls(stacked, k, iterations, seed, tolerance=1e-6):
    rng = np.random.default_rng(seed)
    runs = [kmeans(sub, k, iterations=iterations, rng=rng,
                   tolerance=tolerance) for sub in stacked]
    return np.stack([c for c, _ in runs]), np.stack([a for _, a in runs])


def assert_one_call_is_the_loop(stacked, k, iterations, seed,
                                tolerance=1e-6):
    centers, assignment = kmeans(stacked, k, iterations=iterations,
                                 rng=np.random.default_rng(seed),
                                 tolerance=tolerance)
    want_centers, want_assignment = single_calls(stacked, k, iterations,
                                                 seed, tolerance)
    assert centers.dtype == stacked.dtype
    np.testing.assert_array_equal(centers, want_centers)
    np.testing.assert_array_equal(assignment, want_assignment)


@st.composite
def stacked_subspaces(draw):
    k = draw(st.integers(2, 9))
    n = draw(st.integers(k, 120))
    dim = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(["gaussian", "copies", "few"]),
                          min_size=1, max_size=5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    stacked = np.stack([subspace(kind, n, dim, k, rng) for kind in kinds])
    # a coarse tolerance stops a sub-space while its centres still move,
    # so one updated past its stop would show
    tolerance = draw(st.sampled_from([1e-6, 0.05, 0.5]))
    return (stacked.astype(dtype), k, draw(st.sampled_from([1, 3, 25])),
            seed, tolerance)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(stacked_subspaces())
def test_one_stacked_call_is_a_loop_of_single_calls(case):
    stacked, k, iterations, seed, tolerance = case
    assert_one_call_is_the_loop(stacked, k, iterations, seed, tolerance)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_law_covers_empty_clusters_and_early_convergence(dtype):
    """The generated law's two hard cases, pinned: a sub-space whose
    seeds repeat (so clusters start empty) beside one that converges
    after one step and one that keeps moving."""
    k, n = 6, 90
    rng = np.random.default_rng(8)
    stacked = np.stack([subspace(kind, n, 3, k, rng)
                        for kind in ("gaussian", "few", "copies")]
                       ).astype(dtype)
    centred = stacked - stacked.mean(axis=1, keepdims=True)
    seeds = kmeans_module._seed_rows(centred, k, np.random.default_rng(1))
    assert len(set(seeds[1].tolist())) < k       # repeated seeds: empty
    assert len(set(seeds[2].tolist())) == k
    one_step = kmeans(stacked, k, iterations=1, rng=np.random.default_rng(1))
    many = kmeans(stacked, k, iterations=25, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(one_step[0][2], many[0][2])  # converged
    assert not np.array_equal(one_step[0][0], many[0][0])      # still moving
    for iterations in (1, 2, 25):
        assert_one_call_is_the_loop(stacked, k, iterations, 1)


def test_fewer_distinct_rows_than_k_spend_every_draw():
    """The documented difference from the per-sub-space loop: a
    sub-space that runs out of D² mass repeats its first seed (the
    loop's rows) but still spends all ``k - 1`` uniforms, so the next
    sub-space's draws are the ones after them — deterministically."""
    k = 5
    few = np.repeat(np.arange(6.0).reshape(2, 3), 10, axis=0)  # 2 distinct
    rng = np.random.default_rng(3)
    data = np.stack([few, rng.normal(size=(20, 3))])
    rows = kmeans_module._seed_rows(data - data.mean(axis=1, keepdims=True),
                                    k, np.random.default_rng(0))
    np.testing.assert_array_equal(
        data[0][rows[0]],
        reference_init(few, k, np.random.default_rng(0)))
    draws = np.random.default_rng(0)
    draws.integers(0, 20)
    draws.random(k - 1)  # all k - 1, where the loop drew only one
    assert rows[1, 0] == draws.integers(0, 20)
    again = kmeans_module._seed_rows(
        data - data.mean(axis=1, keepdims=True), k, np.random.default_rng(0))
    np.testing.assert_array_equal(rows, again)


def test_product_quantizer_trains_in_one_kmeans_call(monkeypatch):
    """PQ hands every sub-space to one ``kmeans`` call, through the
    module name the benchmark's span shim patches, and its codebooks are
    the per-sub-space loop's bits on the served shape (float32, 16 x 4
    sub-spaces, 128 centres)."""
    pq_module = importlib.import_module("repro.index.pq")
    rng = np.random.default_rng(5)
    base = rng.normal(size=(40, 64)).astype(np.float32)
    data = (base[rng.integers(0, 40, 1200)]
            + 0.3 * rng.normal(size=(1200, 64))).astype(np.float32)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(pq_module, "kmeans", counted)
    quantizer = pq_module.ProductQuantizer(64, n_subspaces=16,
                                           n_centroids=128)
    quantizer.train(data, rng=np.random.default_rng(2))
    assert calls == [(16, 1200, 4)]
    want, _ = single_calls(data.reshape(1200, 16, 4).transpose(1, 0, 2),
                           128, quantizer.iterations, 2)
    assert quantizer.codebooks.dtype == np.float32
    np.testing.assert_array_equal(quantizer.codebooks, want)
