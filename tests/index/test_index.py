"""Tests for brute-force / IVF vector indexes and the segment Hausdorff index."""

import tracemalloc

import numpy as np
import pytest

from repro.index import (
    BruteForceIndex,
    IVFFlatIndex,
    SegmentHausdorffIndex,
    distance,
    kmeans,
)
from repro.measures import hausdorff_distance

RNG = np.random.default_rng(97)


class TestPairwiseDistances:
    def test_l1_matches_direct(self):
        q, d = RNG.standard_normal((5, 8)), RNG.standard_normal((7, 8))
        expected = np.abs(q[:, None] - d[None]).sum(axis=2)
        np.testing.assert_allclose(distance.pairwise(q, d), expected)


class TestKMeans:
    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(0)
        data = np.concatenate([
            rng.standard_normal((50, 2)) + offset
            for offset in [(0, 0), (20, 0), (0, 20)]
        ])
        centers, assignment = kmeans(data, 3, rng=rng)
        assert centers.shape == (3, 2)
        # Every cluster should be nearly pure.
        for group in range(3):
            labels = assignment[group * 50:(group + 1) * 50]
            counts = np.bincount(labels, minlength=3)
            assert counts.max() >= 48

    def test_k_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 6)
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 0)

    def test_duplicate_points_handled(self):
        data = np.ones((20, 3))
        centers, assignment = kmeans(data, 3, rng=np.random.default_rng(1))
        assert np.isfinite(centers).all()


class TestBruteForceIndex:
    def test_exact_nearest(self):
        index = BruteForceIndex(4)
        data = RNG.standard_normal((50, 4))
        index.add(data)
        query = data[17] + 0.001
        distances, indices = index.search(query, k=1)
        assert indices[0, 0] == 17

    def test_sorted_results(self):
        index = BruteForceIndex(4)
        index.add(RNG.standard_normal((30, 4)))
        distances, _ = index.search(RNG.standard_normal((3, 4)), k=10)
        assert (np.diff(distances, axis=1) >= 0).all()

    def test_k_capped_at_size(self):
        index = BruteForceIndex(2)
        index.add(RNG.standard_normal((3, 2)))
        distances, indices = index.search(np.zeros(2), k=10)
        assert indices.shape == (1, 3)

    def test_k_zero_returns_empty(self):
        index = BruteForceIndex(2)
        index.add(RNG.standard_normal((3, 2)))
        distances, indices = index.search(np.zeros((2, 2)), k=0)
        assert distances.shape == (2, 0)
        assert indices.shape == (2, 0)

    def test_empty_search_raises(self):
        with pytest.raises(RuntimeError):
            BruteForceIndex(2).search(np.zeros(2), 1)

    def test_tie_break_by_id(self):
        index = BruteForceIndex(3)
        index.add(np.tile(np.ones(3), (5, 1)))  # five identical vectors
        _, indices = index.search(np.ones(3), k=3)
        np.testing.assert_array_equal(indices[0], [0, 1, 2])

    def test_tie_break_spans_k_boundary(self):
        # Ties straddling the k boundary must resolve by id over the whole
        # ranking, matching the service's stable scan path: here ids 4..7
        # are all at distance 0 and only the three smallest ids may win.
        index = BruteForceIndex(1)
        index.add(np.array([[2.0], [2.0], [1.0], [1.0],
                            [0.0], [0.0], [0.0], [0.0]]))
        _, indices = index.search(np.zeros(1), k=3)
        np.testing.assert_array_equal(indices[0], [4, 5, 6])

    def test_dim_validation(self):
        index = BruteForceIndex(3)
        with pytest.raises(ValueError):
            index.add(np.zeros((2, 4)))

    @pytest.mark.parametrize("given,stored", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int32, np.float64),
    ])
    def test_stores_the_dtype_of_the_first_add(self, given, stored):
        index = BruteForceIndex(4)
        index.add(np.arange(8).reshape(2, 4).astype(given))
        index.add(np.ones((3, 4)))  # later adds are cast to the store
        assert index._data.dtype == stored
        assert index.memory_bytes == 5 * 4 * np.dtype(stored).itemsize
        distances, _ = index.search(np.zeros(4, dtype=np.float64), k=2)
        assert distances.dtype == stored

    def test_many_small_adds_equal_one_big_add(self):
        """Capacity doubles; only used rows count, and they are the rows."""
        vectors = RNG.standard_normal((300, 6)).astype(np.float32)
        whole, pieces = BruteForceIndex(6), BruteForceIndex(6)
        whole.add(vectors)
        for start in range(0, 300, 7):
            pieces.add(vectors[start:start + 7])
        assert len(pieces) == 300
        assert pieces.memory_bytes == whole.memory_bytes == 300 * 6 * 4
        np.testing.assert_array_equal(pieces._data, vectors)
        for got, want in zip(pieces.search(vectors[:5], 4),
                             whole.search(vectors[:5], 4)):
            np.testing.assert_array_equal(got, want)


class TestIVFFlatIndex:
    def build(self, n=400, dim=8, n_lists=8, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim))
        index = IVFFlatIndex(dim, n_lists=n_lists, n_probe=2)
        index.train(data, rng=rng)
        index.add(data)
        return index, data

    def test_add_before_train_raises(self):
        index = IVFFlatIndex(4)
        with pytest.raises(RuntimeError):
            index.add(np.zeros((2, 4)))

    def test_train_needs_enough_vectors(self):
        index = IVFFlatIndex(4, n_lists=16)
        with pytest.raises(ValueError):
            index.train(np.zeros((4, 4)))

    def test_search_shapes(self):
        index, data = self.build()
        distances, indices = index.search(data[:5], k=3)
        assert distances.shape == (5, 3)
        assert indices.shape == (5, 3)

    def test_self_query_finds_self_with_full_probe(self):
        index, data = self.build()
        _, indices = index.search(data[:20], k=1, n_probe=index.n_lists)
        np.testing.assert_array_equal(indices[:, 0], np.arange(20))

    def test_recall_improves_with_probe(self):
        index, data = self.build(n=600, n_lists=12, seed=1)
        truth = BruteForceIndex(8)
        truth.add(data)
        queries = np.random.default_rng(2).standard_normal((40, 8))
        _, exact = truth.search(queries, k=5)

        def recall(n_probe):
            _, approx = index.search(queries, k=5, n_probe=n_probe)
            hits = sum(
                len(set(approx[i]) & set(exact[i])) for i in range(len(queries))
            )
            return hits / exact.size

        low = recall(1)
        high = recall(12)
        assert high >= low
        assert high > 0.95, f"full probe recall {high}"

    def test_memory_accounting(self):
        index, data = self.build()
        assert index.memory_bytes >= data.nbytes

    def test_incremental_add(self):
        index, data = self.build(n=100)
        more = np.random.default_rng(3).standard_normal((50, 8))
        index.add(more)
        assert len(index) == 150
        _, indices = index.search(more[:3], k=1, n_probe=index.n_lists)
        np.testing.assert_array_equal(indices[:, 0], [100, 101, 102])

    def test_train_counts_and_resets_contents(self):
        index, data = self.build(n=100)
        assert index.train_count == 1
        # Re-training empties the inverted lists and restarts the ids, so
        # re-added vectors get ids from zero (no ghost entries).
        index.train(data, rng=np.random.default_rng(5))
        assert index.train_count == 2
        assert len(index) == 0
        index.add(data[:40])
        assert len(index) == 40
        _, indices = index.search(data[:3], k=1, n_probe=index.n_lists)
        np.testing.assert_array_equal(indices[:, 0], [0, 1, 2])

    def test_tie_break_by_id(self):
        index = IVFFlatIndex(4, n_lists=1, n_probe=1)
        data = np.tile(np.arange(4.0), (6, 1))  # six identical vectors
        index.train(data, rng=np.random.default_rng(0))
        index.add(data)
        _, indices = index.search(data[:1], k=3)
        np.testing.assert_array_equal(indices[0], [0, 1, 2])


@pytest.mark.parametrize("factory", [
    lambda dim: BruteForceIndex(dim),
    lambda dim: IVFFlatIndex(dim, n_lists=2, n_probe=2),
], ids=["bruteforce", "ivf"])
def test_search_allocates_no_difference_cube(factory):
    """Distances come from the blocked kernel, so a search holds its
    result rows and a cache-sized scratch: less than half of one query's
    (n, d) differences, where a (q, n, d) cube is 2q times that."""
    rng = np.random.default_rng(6)
    n, dim = 16384, 64
    data = rng.standard_normal((n, dim)).astype(np.float32)
    queries = rng.standard_normal((8, dim)).astype(np.float32)
    index = factory(dim)
    if hasattr(index, "train"):
        index.train(data[:2048], rng=rng)
    index.add(data)
    index.search(queries[:1], 10)  # imports, caches

    tracemalloc.start()
    try:
        index.search(queries, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * dim * data.itemsize // 2


class TestIVFBackendIndex:
    """Incremental updates through the service-facing IVF adapter."""

    def build(self, n=120, dim=8, seed=0):
        from repro.api import IVFBackendIndex

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim))
        index = IVFBackendIndex(n_lists=8, n_probe=8, seed=0)
        index.add(data)
        return index, data, rng

    def test_append_does_not_retrain(self):
        index, data, rng = self.build()
        index.search(data[:2], k=3)
        assert index.train_count == 1
        more = rng.standard_normal((20, 8))
        index.add(more)
        index.search(data[:2], k=3)
        index.search(more[:2], k=3)
        assert index.train_count == 1, (
            "a small append must assign to existing centroids, not re-run "
            "k-means over the whole database"
        )
        assert len(index) == 140

    def test_appended_vectors_are_searchable(self):
        index, data, rng = self.build()
        index.search(data[:2], k=3)
        more = rng.standard_normal((20, 8)) + 0.1
        index.add(more)
        _, indices = index.search(more[:4], k=1)
        np.testing.assert_array_equal(indices[:, 0], [120, 121, 122, 123])

    def test_retrains_after_growth_threshold(self):
        index, data, rng = self.build()
        index.search(data[:2], k=3)
        assert index.train_count == 1
        index.add(rng.standard_normal((150, 8)))  # 270 > 2 * 120
        index.search(data[:2], k=3)
        assert index.train_count == 2

    def test_incremental_recall_close_to_rebuild(self):
        from repro.api import IVFBackendIndex

        rng = np.random.default_rng(7)
        data = rng.standard_normal((200, 8))
        extra = rng.standard_normal((60, 8))
        queries = rng.standard_normal((30, 8))
        truth = BruteForceIndex(8)
        truth.add(np.concatenate([data, extra]))
        _, exact = truth.search(queries, k=5)

        def recall(index):
            _, approx = index.search(queries, k=5)
            return sum(
                len(set(approx[i]) & set(exact[i]))
                for i in range(len(queries))
            ) / exact.size

        incremental = IVFBackendIndex(n_lists=8, n_probe=4, seed=0)
        incremental.add(data)
        incremental.search(queries[:1], k=1)  # trains on the initial 200
        incremental.add(extra)                # assigned, not re-trained
        rebuilt = IVFBackendIndex(n_lists=8, n_probe=4, seed=0)
        rebuilt.add(np.concatenate([data, extra]))
        assert incremental.train_count == 1
        assert recall(incremental) >= recall(rebuilt) - 0.1, (
            "incremental assignment should cost little recall vs a full "
            "rebuild"
        )

    def test_retrain_factor_validation_and_state(self):
        from repro.api import IVFBackendIndex, get_index

        with pytest.raises(ValueError, match="retrain_factor"):
            IVFBackendIndex(retrain_factor=0.5)
        index, data, _ = self.build()
        index.search(data[:1], k=1)
        meta, arrays = index.state()
        restored = get_index("ivf").restore(meta, arrays)
        assert restored.retrain_factor == index.retrain_factor
        assert len(restored) == len(index)


def random_trajectories(n=60, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(10, 30))
        start = rng.uniform(0, 5000, size=2)
        out.append(start + np.cumsum(rng.standard_normal((length, 2)) * 40, axis=0))
    return out


class TestSegmentHausdorffIndex:
    def test_knn_matches_bruteforce(self):
        trajs = random_trajectories()
        index = SegmentHausdorffIndex()
        index.build(trajs)
        query = trajs[7]
        distances, indices = index.knn(query, k=5)
        exact = np.array([hausdorff_distance(query, t) for t in trajs])
        expected = np.argsort(exact)[:5]
        np.testing.assert_array_equal(np.sort(indices), np.sort(expected))
        np.testing.assert_allclose(distances, np.sort(exact)[:5], atol=1e-9)

    def test_self_is_nearest(self):
        trajs = random_trajectories(seed=1)
        index = SegmentHausdorffIndex()
        index.build(trajs)
        _, indices = index.knn(trajs[3], k=1)
        assert indices[0] == 3

    def test_pruning_skips_evaluations(self):
        trajs = random_trajectories(n=200, seed=2)
        index = SegmentHausdorffIndex()
        index.build(trajs)
        index.knn(trajs[0], k=3)
        assert index.last_exact_evaluations < len(trajs), (
            "lower-bound pruning should avoid scanning every trajectory"
        )

    def test_lower_bound_is_valid(self):
        trajs = random_trajectories(n=40, seed=3)
        index = SegmentHausdorffIndex()
        index.build(trajs)
        query = trajs[11]
        bounds = index.lower_bound(np.asarray(query))
        exact = np.array([hausdorff_distance(query, t) for t in trajs])
        assert (bounds <= exact + 1e-9).all()

    def test_memory_grows_with_segments(self):
        small = SegmentHausdorffIndex()
        small.build(random_trajectories(n=10, seed=4))
        large = SegmentHausdorffIndex()
        large.build(random_trajectories(n=100, seed=4))
        assert large.memory_bytes > small.memory_bytes

    def test_build_validation(self):
        with pytest.raises(ValueError):
            SegmentHausdorffIndex().build([])
        index = SegmentHausdorffIndex()
        with pytest.raises(RuntimeError):
            index.knn(np.zeros((3, 2)), 1)
        with pytest.raises(RuntimeError):
            index.knn_batch([np.zeros((3, 2))], 1)

    def test_batched_lower_bounds_match_single(self):
        """One vectorized pass over all queries must reproduce the
        per-query bound exactly (same pruning decisions)."""
        trajs = random_trajectories(n=50, seed=5)
        index = SegmentHausdorffIndex()
        index.build(trajs)
        queries = [trajs[0], trajs[7][:3], trajs[20]]
        batched = index.lower_bounds_batch(queries)
        assert batched.shape == (3, 50)
        for row, query in enumerate(queries):
            np.testing.assert_array_equal(
                batched[row], index.lower_bound(np.asarray(query))
            )
        # Chunked query blocks must not change the result.
        np.testing.assert_array_equal(
            index.lower_bounds_batch(queries, max_elements=64), batched
        )

    def test_knn_batch_matches_per_query_knn(self):
        trajs = random_trajectories(n=60, seed=6)
        index = SegmentHausdorffIndex()
        index.build(trajs)
        queries = [trajs[2], trajs[11], trajs[33][:5]]
        batch_d, batch_i = index.knn_batch(queries, k=4)
        assert batch_d.shape == (3, 4) and batch_i.shape == (3, 4)
        for row, query in enumerate(queries):
            single_d, single_i = index.knn(query, k=4)
            np.testing.assert_array_equal(batch_i[row], single_i)
            np.testing.assert_allclose(batch_d[row], single_d, atol=1e-12)

    def test_knn_batch_pads_small_database(self):
        trajs = random_trajectories(n=3, seed=7)
        index = SegmentHausdorffIndex()
        index.build(trajs)
        distances, indices = index.knn_batch([trajs[0]], k=5)
        assert distances.shape == (1, 5) and indices.shape == (1, 5)
        assert (indices[0, 3:] == -1).all()
        assert np.isinf(distances[0, 3:]).all()
