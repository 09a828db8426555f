"""Tests for repro.api.SimilarityService: composition, kNN semantics,
embedding cache, and save/load round-trips."""

import numpy as np
import pytest

from repro.api import (
    SimilarityService,
    as_backend,
    available_indexes,
    get_backend,
    get_index,
)
from repro.api.service import CachedEncoder
from repro.trajectory import pack_trajectories, unpack_trajectories

from ..trajectory.test_trajectory import bad_batches, first_error
from .test_registry import make_trajectories


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=16, seed=3)


@pytest.fixture(scope="module")
def trajcl_backend(trajectories):
    return get_backend("trajcl", trajectories=trajectories, dim=8, max_len=16,
                       epochs=1, seed=0)


@pytest.fixture()
def trajcl_service(trajcl_backend, trajectories):
    return SimilarityService(backend=trajcl_backend).add(trajectories)


class TestComposition:
    def test_index_registry(self):
        assert {"bruteforce", "ivf", "segment"} <= set(available_indexes())
        with pytest.raises(KeyError, match="unknown index"):
            get_index("no-such-index")

    def test_defaults_by_backend_kind(self, trajcl_backend):
        assert SimilarityService(backend=trajcl_backend).index.name == "bruteforce"
        assert SimilarityService(backend="hausdorff").index.name == "segment"
        assert SimilarityService(backend="edr").index is None

    def test_rejects_mismatched_pairs(self, trajcl_backend):
        with pytest.raises(ValueError, match="distance backend"):
            SimilarityService(backend="edr", index="ivf")
        with pytest.raises(ValueError, match="compose it with a distance"):
            SimilarityService(backend=trajcl_backend, index="segment")

    def test_rejects_segment_index_for_other_measures(self):
        # The segment index answers Hausdorff kNN; composing it with EDR
        # would silently return neighbours under the wrong measure.
        with pytest.raises(ValueError, match="wrong measure"):
            SimilarityService(backend="edr", index="segment")


class TestKnn:
    def test_exclude_keeps_k_results(self, trajcl_service, trajectories):
        distances, ids = trajcl_service.knn(trajectories[3], k=3, exclude=3)
        assert ids.shape == (1, 3)
        assert 3 not in ids[0]
        assert (ids[0] >= 0).all()
        assert np.isfinite(distances).all()
        assert (np.diff(distances[0]) >= 0).all()

    def test_dedupe_eps_drops_copy_matches(self, trajcl_service, trajectories):
        # Query is a *copy* of a database member: not excludable by id,
        # but its zero-distance self-match must not eat a result slot.
        _, with_exclude = trajcl_service.knn(trajectories[3], k=3, exclude=3)
        _, with_eps = trajcl_service.knn(trajectories[3].copy(), k=3,
                                         dedupe_eps=1e-9)
        np.testing.assert_array_equal(with_exclude, with_eps)

    def test_without_filtering_self_ranks_first(self, trajcl_service,
                                                trajectories):
        distances, ids = trajcl_service.knn(trajectories[3], k=3)
        assert ids[0, 0] == 3
        assert distances[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_small_database_pads(self, trajcl_backend, trajectories):
        service = SimilarityService(backend=trajcl_backend).add(trajectories[:2])
        distances, ids = service.knn(trajectories[0], k=5, exclude=0)
        assert ids.shape == (1, 5)
        assert (ids[0, 1:] == -1).all()
        assert np.isinf(distances[0, 1:]).all()

    def test_distance_backend_scan_matches_pairwise(self, trajectories):
        service = SimilarityService(backend="edr").add(trajectories)
        matrix = service.pairwise([trajectories[5]])
        matrix[0, 5] = np.inf
        _, ids = service.knn(trajectories[5], k=3, exclude=5)
        np.testing.assert_array_equal(ids[0], np.argsort(matrix[0])[:3])

    def test_segment_index_agrees_with_bruteforce_hausdorff(self, trajectories):
        indexed = SimilarityService(backend="hausdorff", index="segment")
        scanned = SimilarityService(backend="hausdorff", index=None)
        indexed.add(trajectories)
        scanned.add(trajectories)
        _, ids_indexed = indexed.knn(trajectories[1], k=3, exclude=1)
        _, ids_scanned = scanned.knn(trajectories[1], k=3, exclude=1)
        np.testing.assert_array_equal(ids_indexed, ids_scanned)

    def test_empty_service_raises(self, trajcl_backend):
        with pytest.raises(RuntimeError, match="empty"):
            SimilarityService(backend=trajcl_backend).knn(np.zeros((4, 2)), k=1)


class TestEmptyBatches:
    def test_encode_batch_empty_has_embedding_dim(self, trajcl_backend):
        service = SimilarityService(backend=trajcl_backend)
        empty = service.encode_batch([])
        assert empty.shape == (0, trajcl_backend.output_dim)

    def test_knn_empty_queries_well_shaped(self, trajcl_service):
        distances, ids = trajcl_service.knn([], k=4)
        assert distances.shape == (0, 4)
        assert ids.shape == (0, 4)
        assert ids.dtype == np.int64

    def test_pairwise_empty_queries_and_database(self, trajcl_service,
                                                 trajectories):
        assert trajcl_service.pairwise([]).shape == (0, len(trajectories))
        assert trajcl_service.pairwise(trajectories[:3], []).shape == (3, 0)

    def test_distance_backend_pairwise_empty(self, trajectories):
        service = SimilarityService(backend="edr").add(trajectories)
        assert service.pairwise([]).shape == (0, len(trajectories))


class TestStableTies:
    def test_scan_path_breaks_ties_by_database_id(self, trajectories):
        class TiedMeasure:
            name = "tied"

            def distance(self, a, b):
                return 1.0

            def pairwise(self, queries, database):
                return np.ones((len(queries), len(database)))

        service = SimilarityService(backend=TiedMeasure()).add(trajectories)
        _, ids = service.knn(trajectories[0], k=5)
        np.testing.assert_array_equal(ids[0], np.arange(5))
        _, ids = service.knn(trajectories[0], k=5, exclude=2)
        np.testing.assert_array_equal(ids[0], [0, 1, 3, 4, 5])

    def test_bruteforce_index_breaks_ties_by_database_id(self, trajcl_backend,
                                                         trajectories):
        # Duplicate trajectories embed identically: the vector-index path
        # must rank the equal-distance copies by database id, agreeing with
        # the scan path.
        service = SimilarityService(backend=trajcl_backend)
        service.add([trajectories[0]] * 4 + [trajectories[1]])
        _, ids = service.knn(trajectories[0], k=4)
        np.testing.assert_array_equal(ids[0], np.arange(4))


class TestCache:
    def test_encode_batch_caches_by_content(self, trajcl_backend, trajectories):
        service = SimilarityService(backend=trajcl_backend, batch_size=4)
        first = service.encode_batch(trajectories)
        misses = service.cache_info().misses
        second = service.encode_batch(list(trajectories))
        np.testing.assert_allclose(first, second)
        info = service.cache_info()
        assert info.misses == misses  # all hits the second time
        assert info.hits >= len(trajectories)

    def test_cache_eviction_bounds_memory(self, trajcl_backend, trajectories):
        service = SimilarityService(backend=trajcl_backend, cache_size=4)
        service.encode_batch(trajectories)
        assert len(service.encoder.cache) <= 4

    def test_cache_key_distinguishes_dtypes(self):
        # Byte-identical buffers under different dtypes must never collide.
        as_float = np.zeros((4, 2), dtype=np.float64)
        as_int = np.zeros((4, 2), dtype=np.int64)
        assert as_float.tobytes() == as_int.tobytes()
        assert (CachedEncoder.key(as_float)
                != CachedEncoder.key(as_int))

    def test_cache_keys_are_the_ones_snapshots_hold(self):
        """Literals from before the dtype tag was memoised: a snapshot's
        warm cache must keep hitting."""
        points = np.arange(10, dtype=np.float64).reshape(5, 2) * 0.5 + 1.25
        assert (CachedEncoder.key(points)
                == "b83989be5787d2125562fbcffad43ae9264ce452")
        assert (CachedEncoder.key(points.reshape(2, 5))
                == "b893f733f99f4e54b0632f5b0a3cb8e699cc562c")
        assert (CachedEncoder.key(points.astype(np.float32))
                == "f30b22029c66abe08a4a0937fc7a38a0faffaf89")
        assert (CachedEncoder.key(points[::2])      # not contiguous
                == "01554a41eceff7ec4a20f5b0a3cb15f50bfcddb7")

    def test_concurrent_encodes_lose_no_update(self, trajectories):
        """The encoder is shared by every thread that calls its owner (a
        stats probe beside a flush, handler threads of a server): its own
        lock keeps the LRU and its counters whole, and two callers that
        miss the same trajectory do not both pay for it."""
        import sys
        import threading
        import time

        class Model:
            output_dim = 2
            rows = 0

            def encode(self, batch):
                self.rows += len(batch)
                time.sleep(0.0005)  # lets every other caller in
                return np.stack([np.asarray(t)[[0, -1], 0] for t in batch])

        model = Model()
        encoder = CachedEncoder(as_backend(model), batch_size=3)
        expected = np.stack([np.asarray(t)[[0, -1], 0] for t in trajectories])
        wrong = []

        def caller(offset):
            for step in range(len(trajectories)):
                rows = [(offset + step + i) % len(trajectories)
                        for i in range(4)]
                got = encoder.encode([trajectories[r] for r in rows])
                if not np.array_equal(got, expected[rows]):
                    wrong.append(rows)

        threads = [threading.Thread(target=caller, args=(offset,))
                   for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        info = encoder.info()
        assert info.hits + info.misses == 6 * len(trajectories) * 4
        assert info.misses == info.size == model.rows == len(trajectories)

    def test_cache_info_counters(self, trajcl_backend, trajectories):
        service = SimilarityService(backend=trajcl_backend)
        info = service.cache_info()
        assert info.hits == info.misses == info.size == 0
        service.encode_batch(trajectories[:4])
        service.encode_batch(trajectories[:4])
        info = service.cache_info()
        assert info == (4, 4, 4, service.encoder.cache_size)

    @pytest.fixture()
    def encode_calls(self, trajcl_backend, monkeypatch):
        """Batch sizes the backend was asked to encode, call by call."""
        calls = []
        encode = trajcl_backend.encode

        def counting(batch):
            calls.append(len(batch))
            return encode(batch)

        monkeypatch.setattr(trajcl_backend, "encode", counting)
        return calls

    @pytest.mark.parametrize("cache_size", [4096, 0])
    def test_duplicates_in_one_call_encode_once(self, trajcl_backend,
                                                trajectories, encode_calls,
                                                cache_size):
        service = SimilarityService(backend=trajcl_backend,
                                    cache_size=cache_size)
        t = trajectories[0]
        service.add([t, t, t.copy()])
        assert encode_calls == [1]
        info = service.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        assert info.size == min(1, cache_size)
        distances, ids = service.knn(t, k=3)
        np.testing.assert_array_equal(ids[0], [0, 1, 2])
        assert distances[0, 0] == distances[0, 1] == distances[0, 2]

    def test_duplicates_keep_row_order(self, trajcl_backend, trajectories,
                                       encode_calls):
        a, b, c = trajectories[:3]
        service = SimilarityService(backend=trajcl_backend)
        rows = service.encode_batch([a, b, a, c, b])
        assert encode_calls == [3]
        expected = trajcl_backend.encode([a, b, c])
        np.testing.assert_array_equal(rows, expected[[0, 1, 0, 2, 1]])


class TestValidationParity:
    """A chunk is validated in one pass; what a bad one raises, and that it
    leaves nothing behind, is what the per-trajectory loop did."""

    @pytest.mark.parametrize("name", sorted(bad_batches()))
    def test_add_and_knn_refuse_like_as_points(self, trajcl_backend,
                                               trajectories, name):
        batch = bad_batches(max_len=16, good=trajectories[:6])[name]
        expected = first_error(batch)
        service = SimilarityService(backend=trajcl_backend).add(trajectories)
        before = service.stats()
        for call in (service.add, lambda b: service.knn(b, k=3),
                     service.encode_batch):
            with pytest.raises(ValueError) as raised:
                call(batch)
            assert str(raised.value) == expected
        # nothing stored, indexed, cached or even looked up
        assert service.stats() == before
        assert len(service) == len(service.index) == len(trajectories)


    @pytest.mark.parametrize("index", [None, "bruteforce"])
    def test_a_list_add_checks_finiteness_once(self, trajcl_backend,
                                               trajectories, index,
                                               monkeypatch):
        """The service, the cache and the engine each take a chunk through
        ``as_points_batch``; the batch the first one built passes the
        others unchecked: one finiteness pass over the points per add."""
        service = SimilarityService(backend=trajcl_backend, index=index)
        calls = []
        isfinite = np.isfinite

        def counted(array, *args, **kwargs):
            if np.ndim(array) == 2 and np.shape(array)[1] == 2:
                calls.append(len(array))
            return isfinite(array, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        service.add(list(trajectories))
        assert calls == [sum(map(len, trajectories))]
        assert len(service) == len(trajectories)

    def test_a_packed_add_checks_finiteness_once(self, trajcl_backend,
                                                 trajectories, monkeypatch):
        """What ``wire.decode`` hands a remote or sharded add — a
        ``Ragged`` of one packed block — is checked in one pass over its
        base, and that pass is marked: the cache's ``take`` and the
        engine pass it on unchecked."""
        service = SimilarityService(backend=trajcl_backend)
        batch = unpack_trajectories(pack_trajectories(trajectories))
        calls = []
        isfinite = np.isfinite

        def counted(array, *args, **kwargs):
            if np.ndim(array) == 2 and np.shape(array)[1] == 2:
                calls.append(len(array))
            return isfinite(array, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        service.add(batch)
        assert calls == [sum(map(len, trajectories))]
        assert len(service) == len(trajectories)


class TestSaveLoad:
    def test_trajcl_roundtrip_knn_identical(self, trajcl_service, trajectories,
                                            tmp_path):
        path = str(tmp_path / "service.npz")
        # A query neither side holds warm: the original would answer a
        # database member from the vector its 16-row add encoded, the
        # restored one (saved without its cache) from a 1-row encode —
        # one float32 ulp apart, by BLAS tiling, not by the snapshot.
        query = trajectories[2] + 0.5
        before_d, before_i = trajcl_service.knn(query, k=4, exclude=2)
        trajcl_service.save(path)
        restored = SimilarityService.load(path)
        after_d, after_i = restored.knn(query, k=4, exclude=2)
        np.testing.assert_array_equal(before_i, after_i)
        np.testing.assert_allclose(before_d, after_d)
        assert len(restored) == len(trajcl_service)

    def test_heuristic_roundtrip(self, trajectories, tmp_path):
        path = str(tmp_path / "hausdorff.npz")
        service = SimilarityService(backend="hausdorff").add(trajectories)
        before = service.knn(trajectories[0], k=3, exclude=0)
        service.save(path)
        restored = SimilarityService.load(path)
        after = restored.knn(trajectories[0], k=3, exclude=0)
        np.testing.assert_array_equal(before[1], after[1])
        np.testing.assert_allclose(before[0], after[0])

    def test_baseline_roundtrip_preserves_embeddings(self, trajectories,
                                                     tmp_path):
        path = str(tmp_path / "t2vec.npz")
        backend = get_backend("t2vec", trajectories=trajectories, dim=8,
                              max_len=16, epochs=1, seed=0)
        service = SimilarityService(backend=backend, index="ivf",
                                    index_kwargs={"seed": 0})
        service.add(trajectories)
        before = service.knn(trajectories[4], k=3, exclude=4)
        service.save(path)
        restored = SimilarityService.load(path)
        np.testing.assert_allclose(
            backend.encode(trajectories[:4]),
            restored.backend.encode(trajectories[:4]),
        )
        after = restored.knn(trajectories[4], k=3, exclude=4)
        np.testing.assert_array_equal(before[1], after[1])

    def test_load_rejects_wrong_files(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a SimilarityService"):
            SimilarityService.load(path)

    def test_include_cache_restores_warm(self, trajcl_backend, trajectories,
                                         tmp_path):
        path = str(tmp_path / "warm.npz")
        service = SimilarityService(backend=trajcl_backend).add(trajectories)
        before = service.encode_batch(trajectories)
        service.save(path, include_cache=True)
        restored = SimilarityService.load(path)
        after = restored.encode_batch(trajectories)
        info = restored.cache_info()
        assert info.misses == 0 and info.hits == len(trajectories)
        np.testing.assert_allclose(before, after)

    def test_cache_not_saved_by_default(self, trajcl_backend, trajectories,
                                        tmp_path):
        path = str(tmp_path / "cold.npz")
        service = SimilarityService(backend=trajcl_backend).add(trajectories)
        service.save(path)
        restored = SimilarityService.load(path)
        assert restored.cache_info().size == 0
