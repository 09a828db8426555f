"""Tests for the ANN indexes behind the service stack: registration and
stats, SimilarityService composition (exclude/dedupe, stats), snapshot
round-trips for all three compressed indexes, the embedding distance a
snapshot's meta names, incremental add after training, the sharded
service over every approximate index, and a cluster snapshot restored
onto a different worker count."""

import json
import os

import numpy as np
import pytest

from repro.api import (
    ClusterCoordinator,
    RetiredOptionError,
    ShardWorker,
    ShardedSimilarityService,
    SimilarityService,
    available_indexes,
    get_backend,
    get_index,
)

from .test_registry import make_trajectories

ANN_NAMES = ["pq", "int8", "hnsw"]


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=20, seed=5)


@pytest.fixture(scope="module")
def backend(trajectories):
    return get_backend("trajcl", trajectories=trajectories, dim=8,
                       max_len=16, epochs=1, seed=0)


def make_service(backend, name):
    # Tiny-corpus knobs: codebooks clamp to the corpus size anyway, and a
    # small train_sample keeps the lazy k-means fast.
    kwargs = {
        "bruteforce": {},
        "ivf": {"n_lists": 4, "seed": 0},
        "pq": {"n_subspaces": 8, "seed": 0},
        "int8": {},
        "hnsw": {"seed": 0},
    }[name]
    return SimilarityService(backend=backend, index=name,
                             index_kwargs=kwargs)


class TestRegistration:
    def test_ann_indexes_registered(self):
        assert set(ANN_NAMES) <= set(available_indexes())

    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_stats_shape(self, name):
        index = get_index(name)
        stats = index.stats()
        assert stats["name"] == name
        assert stats["exact"] is False
        assert stats["size"] == 0


class TestServiceComposition:
    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_knn_with_exclude_and_dedupe(self, backend, trajectories, name):
        service = make_service(backend, name).add(trajectories)
        distances, ids = service.knn(trajectories[:3], k=5, exclude=1)
        assert ids.shape == (3, 5)
        # exclude drops that database id from every row; the service
        # over-fetches from the ANN structure so rows stay k wide.
        assert 1 not in ids
        assert (ids >= 0).all() and (ids < len(trajectories)).all()
        deduped_d, deduped_i = service.knn(trajectories[:3], k=5,
                                           dedupe_eps=1e-9)
        assert deduped_i.shape == (3, 5)
        assert (deduped_d > 1e-9).all()  # self-matches filtered

    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_matches_bruteforce_on_tiny_corpus(self, backend, trajectories,
                                               name):
        # With 20 vectors the codebooks memorize the corpus and the graph
        # beam covers it entirely: ANN results must equal the exact scan.
        exact = SimilarityService(backend=backend).add(trajectories)
        approx = make_service(backend, name).add(trajectories)
        _, want = exact.knn(trajectories[:4], k=3, exclude=1)
        _, got = approx.knn(trajectories[:4], k=3, exclude=1)
        np.testing.assert_array_equal(want, got)

    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_index_stats_exposed(self, backend, trajectories, name):
        service = make_service(backend, name).add(trajectories)
        service.knn(trajectories[:1], k=1)  # force the lazy build
        stats = service.stats()
        info = stats["index_stats"]
        assert info["name"] == name
        assert info["exact"] is False
        assert info["size"] == len(trajectories)
        assert info["memory_bytes"] > 0


class TestSnapshots:
    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_round_trip_is_bit_identical(self, backend, trajectories,
                                         tmp_path, name):
        path = str(tmp_path / f"{name}.npz")
        service = make_service(backend, name).add(trajectories)
        want_d, want_i = service.knn(trajectories[:4], k=5)
        service.save(path)
        restored = SimilarityService.load(path)
        assert restored.index.name == name
        got_d, got_i = restored.knn(trajectories[:4], k=5)
        assert want_d.tobytes() == got_d.tobytes()
        assert want_i.tobytes() == got_i.tobytes()

    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_untrained_buffer_survives_the_round_trip(self, backend,
                                                      trajectories, tmp_path,
                                                      name):
        # Save before any search: the compressed indexes still hold their
        # raw float buffer, and the snapshot must carry it.
        path = str(tmp_path / f"{name}-cold.npz")
        service = make_service(backend, name).add(trajectories)
        service.save(path)
        restored = SimilarityService.load(path)
        _, ids = restored.knn(trajectories[:2], k=3)
        assert ids.shape == (2, 3)
        assert len(restored) == len(trajectories)


class TestSnapshotMetric:
    """Snapshot meta is input from outside the program. Every snapshot
    written while the embedding distance was a choice names its
    ``"metric"`` — in the backend meta and in a vector index's meta of a
    service snapshot, in the backend meta of a cluster manifest. ``"l1"``
    loads and answers as before; any other is refused, never served as
    L1. Every vector index kind wrote the key, each into its own layout,
    so the index case runs over all five, saved after a search: the
    trained structure is what the snapshot carries."""

    @pytest.fixture()
    def workers(self):
        pair = [ShardWorker(), ShardWorker()]
        yield [w.address for w in pair]
        for worker in pair:
            worker.close()

    @staticmethod
    def service_snapshot(backend, trajectories, tmp_path, where, name, metric,
                         _workers):
        path = str(tmp_path / "service.npz")
        service = make_service(backend, name).add(trajectories)
        service.knn(trajectories[:1], k=1)  # train / build the structure
        service.save(path)
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(state["__service__"]).decode("utf-8"))
        meta[where]["metric"] = metric
        state["__service__"] = np.frombuffer(json.dumps(meta).encode(),
                                             dtype=np.uint8)
        np.savez_compressed(path, **state)
        return service, lambda: SimilarityService.load(path)

    @staticmethod
    def cluster_snapshot(backend, trajectories, tmp_path, where, _name,
                         metric, workers):
        snapshot = str(tmp_path / "cluster")
        with ClusterCoordinator(workers, backend=backend,
                                heartbeat_interval=0) as cluster:
            cluster.add(trajectories)
            cluster.save(snapshot)
        manifest_path = os.path.join(snapshot, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest[where]["metric"] = metric
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        # the exact single service the cluster's answers are bit-identical to
        single = SimilarityService(backend=backend).add(trajectories)
        return single, lambda: ClusterCoordinator.load(
            snapshot, workers, heartbeat_interval=0)

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    @pytest.mark.parametrize("kind,where,name", [
        ("service", "backend", "bruteforce"),
        *[("service", "index", name)
          for name in ["bruteforce", "ivf", *ANN_NAMES]],
        ("cluster", "backend", "bruteforce")])
    def test_l1_loads_bit_identically_and_any_other_is_refused(
            self, backend, trajectories, tmp_path, workers, kind, where,
            name, metric):
        make = getattr(self, f"{kind}_snapshot")
        reference, load = make(backend, trajectories, tmp_path, where, name,
                               metric, workers)
        queries = [points + 0.5 for points in trajectories[:3]]  # cold both
        if metric != "l1":
            with pytest.raises(ValueError, match=repr(metric)):
                load()
            return
        restored = load()
        try:
            got = restored.knn(queries, k=4)
        finally:
            getattr(restored, "close", lambda: None)()
        want = reference.knn(queries, k=4)
        assert want[0].tobytes() == got[0].tobytes()
        assert want[1].tobytes() == got[1].tobytes()


class TestDtypeResidency:
    """An index stores what it was given: 4 bytes per dimension for a
    float32 encoder, 8 for float64 — through a snapshot as well."""

    @pytest.mark.parametrize("name", ["bruteforce", "pq", "int8"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_buffers_keep_their_dtype(self, name, dtype):
        vectors = np.random.default_rng(0).normal(size=(50, 16)).astype(dtype)
        index = get_index(name)
        index.add(vectors[:20])
        index.add(vectors[20:])
        per_vector = 16 * np.dtype(dtype).itemsize
        assert index.stats()["bytes_per_vector"] == per_vector
        meta, arrays = index.state()
        restored = type(index).restore(meta, arrays)
        assert restored.stats()["bytes_per_vector"] == per_vector
        assert len(restored) == 50

    def test_bruteforce_answers_in_the_stored_dtype(self):
        vectors = np.random.default_rng(1).normal(size=(30, 8)).astype(
            np.float32)
        index = get_index("bruteforce")
        index.add(vectors)
        distances, ids = index.search(vectors[:3].astype(np.float64), 4)
        assert distances.dtype == np.float32
        np.testing.assert_array_equal(ids[:, 0], [0, 1, 2])


class TestIncrementalAdd:
    @pytest.mark.parametrize("name", ANN_NAMES)
    def test_add_after_first_search_stays_queryable(self, backend,
                                                    trajectories, name):
        service = make_service(backend, name).add(trajectories[:12])
        service.knn(trajectories[:1], k=2)  # train/build on the first 12
        service.add(trajectories[12:])
        assert len(service) == len(trajectories)
        _, ids = service.knn(trajectories[12:14], k=1)
        # The newly added trajectories are their own nearest neighbours.
        np.testing.assert_array_equal(ids[:, 0], [12, 13])

    @pytest.mark.parametrize("name,kwargs", [
        ("int8", {}),
        ("pq", {"n_subspaces": 4, "n_centroids": 16, "seed": 0}),
        ("pq", {"n_subspaces": 4, "n_centroids": 16, "seed": 0,
                "refine_dtype": "float16"}),
    ], ids=["int8", "pq", "pq-refine"])
    def test_many_small_adds_equal_one_big_add(self, name, kwargs):
        """Code storage doubles its capacity; state, bytes and answers
        only ever see the used rows."""
        rng = np.random.default_rng(3)
        first = rng.standard_normal((256, 8))
        rows = rng.standard_normal((3200, 8))
        whole, pieces = get_index(name, **kwargs), get_index(name, **kwargs)
        for index in (whole, pieces):
            index.add(first)
            index.search(first[:1], 1)  # trains; later adds are incremental
        whole.add(rows)
        for start in range(0, len(rows), 16):
            pieces.add(rows[start:start + 16])
        (want_meta, want_arrays), (got_meta, got_arrays) = (
            whole.state(), pieces.state())
        assert got_meta == want_meta
        assert got_arrays.keys() == want_arrays.keys()
        for key, want in want_arrays.items():
            assert len(got_arrays[key]) == len(want), key
            np.testing.assert_array_equal(got_arrays[key], want, err_msg=key)
        assert len(pieces) == len(whole) == 256 + 3200
        assert (pieces.stats()["memory_bytes"]
                == whole.stats()["memory_bytes"])
        for got, want in zip(pieces.search(rows[:8], 5),
                             whole.search(rows[:8], 5)):
            np.testing.assert_array_equal(got, want)


class TestIVFPQIsRefused:
    """IVF-PQ (a coarse layer over pq's codes) is gone. A caller, service
    snapshot or cluster manifest that asks for it gets a typed error naming
    flat pq, never a flat index in its place; a flat pq snapshot from
    before, whose meta still carries ``coarse_lists`` 0 and ``n_probe``,
    restores and answers bit-identically."""

    REPLACEMENT = "flat `pq`: more `n_subspaces` for recall"

    @staticmethod
    def rewritten_snapshot(backend, trajectories, tmp_path, trained,
                           rewrite):
        path = str(tmp_path / "service.npz")
        service = make_service(backend, "pq").add(trajectories)
        if trained:
            service.knn(trajectories[:1], k=1)
        service.save(path)
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(state["__service__"]).decode("utf-8"))
        rewrite(meta["index"], state)
        state["__service__"] = np.frombuffer(json.dumps(meta).encode(),
                                             dtype=np.uint8)
        np.savez_compressed(path, **state)
        return service, path

    @pytest.mark.parametrize("options", [
        {"coarse_lists": 4}, {"coarse_lists": 4, "n_probe": 2},
        {"n_probe": 8}])
    def test_a_coarse_keyword_is_refused(self, options):
        with pytest.raises(RetiredOptionError, match=self.REPLACEMENT):
            get_index("pq", **options)

    def test_the_old_flat_keywords_build_flat_pq(self):
        index = get_index("pq", coarse_lists=0, n_probe=8, n_subspaces=4)
        assert index.state()[0] == get_index("pq", n_subspaces=4).state()[0]

    @pytest.mark.parametrize("trained", [False, True],
                             ids=["cold", "trained"])
    def test_a_snapshot_with_coarse_lists_is_refused(
            self, backend, trajectories, tmp_path, trained):
        _, path = self.rewritten_snapshot(
            backend, trajectories, tmp_path, trained,
            lambda meta, state: meta.update(coarse_lists=4))
        with pytest.raises(RetiredOptionError, match=self.REPLACEMENT):
            SimilarityService.load(path)

    @pytest.mark.parametrize("array", ["assign", "centers"])
    def test_snapshot_arrays_of_a_coarse_layer_are_refused(
            self, backend, trajectories, tmp_path, array):
        def add_array(meta, state):
            state[f"index/{array}"] = np.zeros(len(trajectories),
                                               dtype=np.int32)
        _, path = self.rewritten_snapshot(backend, trajectories, tmp_path,
                                          True, add_array)
        with pytest.raises(RetiredOptionError, match=self.REPLACEMENT):
            SimilarityService.load(path)

    @pytest.mark.parametrize("old", [
        {"coarse_lists": 4}, {"coarse_lists": 0, "n_probe": 8}],
        ids=["ivf-pq", "flat"])
    def test_a_manifest_with_coarse_lists_is_refused_unless_flat(
            self, backend, trajectories, tmp_path, old):
        """An IVF-PQ manifest fails at the owner, before any worker builds
        an index; the flat manifest the old CLI wrote (``coarse_lists`` 0
        and ``n_probe``) loads as flat pq and answers bit-identically."""
        snapshot = str(tmp_path / "cluster")
        workers = [ShardWorker(), ShardWorker()]
        addresses = [worker.address for worker in workers]
        queries = [points + 0.5 for points in trajectories[:3]]
        try:
            with ClusterCoordinator(
                    addresses, backend=backend, index="pq",
                    index_kwargs={"n_subspaces": 8, "seed": 0},
                    heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                want = cluster.knn(queries, k=4)
                cluster.save(snapshot)
            manifest_path = os.path.join(snapshot, "manifest.json")
            with open(manifest_path) as handle:
                manifest = json.load(handle)
            manifest["index_kwargs"].update(old)
            with open(manifest_path, "w") as handle:
                json.dump(manifest, handle)
            if old["coarse_lists"]:
                with pytest.raises(RetiredOptionError,
                                   match=self.REPLACEMENT):
                    ClusterCoordinator.load(snapshot, addresses,
                                            heartbeat_interval=0)
                return
            with ClusterCoordinator.load(snapshot, addresses,
                                         heartbeat_interval=0) as cluster:
                got = cluster.knn(queries, k=4)
            for left, right in zip(got, want):
                assert left.tobytes() == right.tobytes()
        finally:
            for worker in workers:
                worker.close()

    @pytest.mark.parametrize("trained", [False, True],
                             ids=["cold", "trained"])
    def test_a_flat_snapshot_with_the_old_meta_answers_bit_identically(
            self, backend, trajectories, tmp_path, trained):
        service, path = self.rewritten_snapshot(
            backend, trajectories, tmp_path, trained,
            lambda meta, state: meta.update(coarse_lists=0, n_probe=8))
        restored = SimilarityService.load(path)
        queries = [points + 0.5 for points in trajectories[:3]]
        for got, want in zip(restored.knn(queries, k=4),
                             service.knn(queries, k=4)):
            assert got.tobytes() == want.tobytes()


#: knobs small enough that each approximate index misses neighbours on
#: a 120-trajectory corpus, and the recall floor of each: the recall the
#: re-fetching merge measured there (ivf 0.85, pq 0.68, int8 1.0, hnsw
#: 0.98; the one-round merge reads the same) minus a margin of 0.1
APPROXIMATE = {
    "ivf": ({"n_lists": 8, "n_probe": 1}, 0.75),
    "pq": ({"n_subspaces": 4, "n_centroids": 8}, 0.58),
    "int8": ({}, 0.9),
    "hnsw": ({"m": 4, "ef_construction": 8, "ef_search": 4}, 0.88),
}


class TestShardedAndCluster:
    @pytest.mark.parametrize("name", sorted(APPROXIMATE))
    def test_approximate_shards_filter_and_recall(self, backend, name):
        """Each shard drops ``dedupe_eps`` itself and the owner drops
        ``exclude``: k valid, distinct neighbours per row, none filtered
        out, and recall against the exact scan at the index's floor."""
        kwargs, floor = APPROXIMATE[name]
        corpus = make_trajectories(n=120, seed=7)
        queries, k, exclude, eps = corpus[:12], 5, 3, 1e-9
        with ShardedSimilarityService(
                backend=backend, num_workers=2, index=name,
                index_kwargs=kwargs) as sharded:
            sharded.add(corpus)
            distances, ids = sharded.knn(queries, k=k, exclude=exclude,
                                         dedupe_eps=eps)
        assert ids.shape == distances.shape == (len(queries), k)
        assert ((ids >= 0) & (ids < len(corpus))).all()
        assert all(len(set(row)) == k for row in ids)
        assert exclude not in ids
        assert (distances > eps).all()
        exact = SimilarityService(backend=backend).add(corpus)
        _, truth = exact.knn(queries, k=k, exclude=exclude, dedupe_eps=eps)
        recall = np.mean([len(set(got) & set(want)) / k
                          for got, want in zip(ids, truth)])
        assert recall >= floor

    def test_sharded_service_with_hnsw(self, backend, trajectories):
        exact = SimilarityService(backend=backend).add(trajectories)
        with ShardedSimilarityService(
                backend=backend, num_workers=2, index="hnsw",
                index_kwargs={"seed": 0}) as sharded:
            sharded.add(trajectories)
            _, got = sharded.knn(trajectories[:4], k=3, exclude=1)
        _, want = exact.knn(trajectories[:4], k=3, exclude=1)
        np.testing.assert_array_equal(want, got)

    def test_cluster_snapshot_restores_onto_more_workers(self, backend,
                                                         trajectories,
                                                         tmp_path):
        snapshot = str(tmp_path / "cluster-pq")
        exact = SimilarityService(backend=backend).add(trajectories)
        two = [ShardWorker(), ShardWorker()]
        three = [ShardWorker() for _ in range(3)]
        try:
            with ClusterCoordinator(
                    [w.address for w in two], backend=backend, index="pq",
                    index_kwargs={"n_subspaces": 8, "seed": 0},
                    heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                cluster.knn(trajectories[:1], k=1)  # train the shard PQs
                cluster.save(snapshot)
            restored = ClusterCoordinator.load(
                snapshot, [w.address for w in three], heartbeat_interval=0)
            try:
                assert len(restored) == len(trajectories)
                assert restored.stats()["workers"] == 3
                _, got = restored.knn(trajectories[:4], k=3, exclude=1)
            finally:
                restored.close()
        finally:
            for worker in two + three:
                worker.close()
        # Indexes are rebuilt per shard on load; on this corpus the PQ
        # codebooks memorize their shards, so the merged answer matches
        # the exact unsharded scan.
        _, want = exact.knn(trajectories[:4], k=3, exclude=1)
        np.testing.assert_array_equal(want, got)
