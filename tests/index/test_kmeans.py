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
    monkeypatch.setattr(kmeans_module, "_seed_rows", lambda *_: rows)
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
    exact = BruteForceIndex(32, metric="l1")
    exact.add(data)
    truth = exact.search(queries, 10)[1]
    index = PQIndex(32, n_subspaces=8, n_centroids=64, metric="l1")
    index.train(data, rng=np.random.default_rng(3))
    index.add(data)
    found = index.search(queries, 10)[1]
    hits = sum(len(set(t) & set(f)) for t, f in zip(truth, found))
    assert hits / truth.size == pytest.approx(0.727, abs=0.01)
