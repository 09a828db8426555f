"""The laws the encode/search tier split must keep — generated, one per test.

For an embedding backend the owner of a request (the sharded service, the
cluster coordinator) embeds it once and its shards store and search
vectors. Every case here runs on a tiny deterministic embedding backend
that counts the rows it is asked to embed and snaps them onto a coarse
grid, so distinct trajectories collide and distance ties are the rule:

* sharded and cluster ``knn`` / ``pairwise`` equal a single
  ``SimilarityService`` bit for bit, for any shard count, replication,
  ``k`` / ``exclude`` / ``dedupe_eps`` and chunking of the adds;
* one encoded row per distinct trajectory per ``add`` whatever the
  replication, one per distinct query whatever the shard count, none on
  replay, none while a worker is refilled from a replica;
* a rejoined worker answers like one that never left — from a replica,
  from the catch-up log, from a snapshot;
* restoring a snapshot — ``load`` onto another worker count, a ``rejoin``
  with no replica left — encodes nothing: the shard files keep vectors;
* a vector-fed service refuses malformed vectors, typed, before its index
  sees them, and no weights cross the wire at ``join``.
"""

import contextlib
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import coordinator as coordinator_module
from repro.api import (
    ClusterCoordinator,
    ShardedSimilarityService,
    ShardLostError,
    ShardWorker,
    SimilarityService,
    as_backend,
    get_backend,
)
from repro.api.backends import restore_backend, shard_backend_state
from repro.api.protocols import (
    BackendDescription,
    Embedded,
    EmbeddedInputError,
    NoEncoderError,
)
from repro.api.remote import ThreadedNodeServer
from repro.trajectory import as_points

from .shard_laws import assert_same_bits
from .test_registry import make_trajectories

GENERATED = settings(max_examples=25, deadline=None, derandomize=True)


class CountingModel:
    """``encode`` is a pure function of each trajectory (so batch shape
    cannot matter), coarse (so ties abound), and counted."""

    output_dim = 3

    def __init__(self):
        self.rows = 0

    def encode(self, trajectories):
        self.rows += len(trajectories)
        out = np.empty((len(trajectories), 3))
        for row, trajectory in enumerate(trajectories):
            points = as_points(trajectory)
            out[row] = (points[:, 0].sum(), points[:, 1].max(), len(points))
        return out

    # what ``backend_state`` asks of a saveable baseline (``save`` writes
    # the backend next to the shards; nothing here reads it back)
    def state_dict(self):
        return {}


def counting_backend():
    backend = as_backend(CountingModel(), name="counting")
    backend.rebuild_meta = {"class": "counting"}
    return backend


#: short trajectories on a 3 x 3 integer lattice: few distinct
#: embeddings, many exact duplicates
trajectory = st.integers(1, 3).flatmap(lambda length: arrays(
    np.float64, (length, 2), elements=st.integers(0, 2).map(float)))
databases = st.lists(trajectory, min_size=1, max_size=12)
#: where the adds are cut: uneven chunks, some of them empty
cuts = st.lists(st.integers(0, 12), max_size=3)
knn_arguments = st.fixed_dictionaries({
    "k": st.integers(1, 14),
    "exclude": st.none() | st.integers(0, 11),
    "dedupe_eps": st.none() | st.sampled_from([0.0, 1.0]),
})
#: (shards, replication)
layouts = st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])


def add_in_chunks(service, database, cut_points):
    edges = [0, *sorted(min(cut, len(database)) for cut in cut_points),
             len(database)]
    for start, stop in zip(edges, edges[1:]):
        service.add(database[start:stop])
    return service


def stop(worker):
    """``worker.close()`` less its wait for the accept thread (a daemon
    that ends by itself within its 0.2 s poll): the listener is closed and
    every connection dropped by the time this returns, which is all a
    coordinator can see of a crash — and what keeps 25 examples cheap."""
    ThreadedNodeServer.close(worker, grace=0.0, abort_connections=True)


class Cluster:
    """A coordinator over in-process workers, torn down together."""

    def __init__(self, shards, replication=1, backend=None, **kwargs):
        self.workers = [ShardWorker() for _ in range(shards)]
        self.spares = []
        self.backend = backend if backend is not None else counting_backend()
        self.coordinator = ClusterCoordinator(
            [w.address for w in self.workers], backend=self.backend,
            replication=replication, heartbeat_interval=0, **kwargs)

    def kill(self, worker):
        stop(self.workers[worker])
        # stats() asks every worker it believes alive. A connection the
        # dying accept loop had not listed yet answers once more and ends
        # when it next sits idle through a shutdown-flag poll (0.1 s).
        deadline = time.monotonic() + 10.0
        while self.coordinator.stats()["worker_links"][worker]["alive"]:
            assert time.monotonic() < deadline, "kill went unnoticed"
            time.sleep(0.15)

    def rejoin(self, worker, **kwargs):
        self.spares.append(ShardWorker())
        return self.coordinator.rejoin(
            worker, address=self.spares[-1].address, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.coordinator.close()
        for worker in self.workers + self.spares:
            stop(worker)


# ----------------------------------------------------------------------
# (a) differential oracle: sharded ≡ cluster ≡ single, bit for bit
# ----------------------------------------------------------------------
#: the owner embeds (vectors cross the links), or only names a measure
#: (trajectories do)
backends = st.sampled_from([counting_backend, lambda: "hausdorff"])


@contextlib.contextmanager
def three_ways(backend, shards, database, cut_points):
    """``(single, pipes, tcp)``: the same uneven adds into a single
    service, a process-sharded one and a coordinator over TCP."""
    with ShardedSimilarityService(backend=backend(),
                                  num_workers=shards) as pipes, \
            Cluster(shards, backend=backend()) as cluster:
        tcp = cluster.coordinator
        single = SimilarityService(backend=backend())
        for service in (single, pipes, tcp):
            add_in_chunks(service, database, cut_points)
        # one engine under both link kinds: the same deal, id for id
        assert pipes.shard_sizes == tcp.shard_sizes
        assert ([ids.rows.tolist() for ids in pipes._shard_ids]
                == [ids.rows.tolist() for ids in tcp._shard_ids])
        yield single, pipes, tcp


@GENERATED
@given(backends, databases, cuts, st.integers(1, 3), knn_arguments)
def test_sharded_knn_equals_single_service(backend, database, cut_points,
                                           shards, arguments):
    with three_ways(backend, shards, database, cut_points) as (
            single, pipes, tcp):
        expected = single.knn(database[:4], **arguments)
        assert_same_bits(pipes.knn(database[:4], **arguments), expected)
        assert_same_bits(tcp.knn(database[:4], **arguments), expected)


@GENERATED
@given(backends, databases, cuts, st.integers(1, 3))
def test_sharded_pairwise_equals_single_service(backend, database,
                                                cut_points, shards):
    with three_ways(backend, shards, database, cut_points) as (
            single, pipes, tcp):
        expected = single.pairwise(database[:4])
        assert_same_bits(pipes.pairwise(database[:4]), expected)
        assert_same_bits(tcp.pairwise(database[:4]), expected)


@GENERATED
@given(databases, cuts, layouts, knn_arguments)
def test_cluster_knn_equals_single_service(database, cut_points, layout,
                                           arguments):
    single = add_in_chunks(SimilarityService(backend=counting_backend()),
                           database, cut_points)
    with Cluster(*layout) as cluster:
        add_in_chunks(cluster.coordinator, database, cut_points)
        assert_same_bits(cluster.coordinator.knn(database[:4], **arguments),
                         single.knn(database[:4], **arguments))


@GENERATED
@given(databases, cuts, layouts)
def test_cluster_pairwise_equals_single_service(database, cut_points,
                                                layout):
    single = add_in_chunks(SimilarityService(backend=counting_backend()),
                           database, cut_points)
    with Cluster(*layout) as cluster:
        add_in_chunks(cluster.coordinator, database, cut_points)
        assert_same_bits(cluster.coordinator.pairwise(database[:4]),
                         single.pairwise(database[:4]))


# ----------------------------------------------------------------------
# (b) encode counts
# ----------------------------------------------------------------------
def distinct(trajectories):
    return len({(t.shape, t.tobytes()) for t in trajectories})


@GENERATED
@given(databases, layouts)
def test_add_encodes_each_distinct_trajectory_once_whatever_the_replication(
        database, layout):
    with Cluster(*layout) as cluster:
        cluster.coordinator.add(database)
        assert cluster.backend.model.rows == distinct(database)


@GENERATED
@given(databases, st.integers(1, 3))
def test_query_is_encoded_once_whatever_the_shard_count(database, shards):
    fresh = [points + 100.0 for points in database[:5]]  # never added
    with ShardedSimilarityService(backend=counting_backend(),
                                  num_workers=shards) as sharded:
        sharded.add(database)
        before = sharded.backend.model.rows
        sharded.knn(fresh, k=2, dedupe_eps=0.0)  # over-fetch rounds included
        assert sharded.backend.model.rows - before == distinct(fresh)
        assert sharded.stats()["cache"]["misses"] == (
            distinct(database) + distinct(fresh))


@GENERATED
@given(databases, layouts)
def test_replayed_queries_hit_the_owners_cache(database, layout):
    with Cluster(*layout) as cluster:
        cluster.coordinator.add(database)
        cluster.coordinator.knn(database, k=1)
        before = cluster.coordinator.stats()["cache"]
        cluster.coordinator.knn(database, k=1)
        after = cluster.coordinator.stats()["cache"]
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == len(database)
        assert cluster.backend.model.rows == distinct(database)


@GENERATED
@given(databases)
def test_rejoin_from_a_replica_encodes_nothing(database):
    with Cluster(3, replication=2) as cluster:
        cluster.coordinator.add(database)
        cluster.kill(2)
        before = cluster.backend.model.rows
        restored = cluster.rejoin("worker-2")
        assert set(restored.values()) == {"replica"}
        assert cluster.backend.model.rows == before
        assert cluster.coordinator.stats()["underreplicated"] == []


@GENERATED
@given(databases)
def test_rereplication_encodes_nothing(database):
    with Cluster(3, replication=2) as cluster:
        cluster.coordinator.add(database)
        cluster.kill(0)
        before = cluster.backend.model.rows
        # shards 0 and 2 lived on worker 0; each sweep copies one of them
        assert cluster.coordinator._rereplicate_once()
        assert cluster.coordinator._rereplicate_once()
        assert cluster.backend.model.rows == before
        assert cluster.coordinator.stats()["underreplicated"] == []


# ----------------------------------------------------------------------
# (c) recovery answers like a cluster that was never harmed
# ----------------------------------------------------------------------
@GENERATED
@given(databases, databases, knn_arguments)
def test_kill_add_rejoin_answers_like_an_unharmed_cluster(
        database, later, arguments):
    everything = database + later
    with Cluster(3, replication=2) as unharmed, \
            Cluster(3, replication=2) as cluster:
        unharmed.coordinator.add(database).add(later)
        cluster.coordinator.add(database)
        cluster.kill(1)
        cluster.coordinator.add(later)  # worker 1 misses it: catch-up log
        cluster.rejoin("worker-1")
        # shard 0 lives on workers 0 and 1: with 0 gone, the rejoined
        # worker is the one that answers for it
        cluster.kill(0)
        assert_same_bits(
            cluster.coordinator.knn(everything[:4], **arguments),
            unharmed.coordinator.knn(everything[:4], **arguments))
        assert_same_bits(cluster.coordinator.pairwise(everything[:4]),
                         unharmed.coordinator.pairwise(everything[:4]))


@GENERATED
@given(databases, databases, knn_arguments)
def test_snapshot_plus_log_rejoin_answers_like_an_unharmed_cluster(
        tmp_path_factory, database, later, arguments):
    everything = database + later
    snapshot = str(tmp_path_factory.mktemp("snapshot"))
    with Cluster(3, replication=2) as unharmed, \
            Cluster(3, replication=2) as cluster:
        unharmed.coordinator.add(database).add(later)
        cluster.coordinator.add(database)
        cluster.coordinator.save(snapshot)
        cluster.kill(1)
        cluster.coordinator.add(later)   # logged for worker 1
        cluster.kill(2)                  # shard 1 now has no replica
        with pytest.raises(ShardLostError):
            cluster.coordinator.knn(database[0], k=1)
        restored = cluster.rejoin(1, snapshot=snapshot)
        assert restored[1] in ("snapshot", "catchup")
        assert_same_bits(
            cluster.coordinator.knn(everything[:4], **arguments),
            unharmed.coordinator.knn(everything[:4], **arguments))


# ----------------------------------------------------------------------
# (d) restoring a snapshot encodes nothing: its shard files keep vectors
# ----------------------------------------------------------------------
@contextlib.contextmanager
def loaded(snapshot, shards):
    """``ClusterCoordinator.load`` of ``snapshot`` onto ``shards`` fresh
    workers, with a fresh counting backend (the one ``load`` would
    rebuild, had the counting model a rebuild recipe)."""
    backend = counting_backend()
    workers = [ShardWorker() for _ in range(shards)]
    try:
        with mock.patch.object(coordinator_module, "restore_backend",
                               return_value=backend):
            coordinator = ClusterCoordinator.load(
                snapshot, [w.address for w in workers], heartbeat_interval=0)
        with coordinator:
            yield coordinator, backend
    finally:
        for worker in workers:
            stop(worker)


@GENERATED
@given(databases, cuts, layouts, knn_arguments)
def test_load_onto_another_worker_count_encodes_nothing(
        tmp_path_factory, database, cut_points, layout, arguments):
    snapshot = str(tmp_path_factory.mktemp("snapshot"))
    with Cluster(*layout) as cluster:
        add_in_chunks(cluster.coordinator, database, cut_points)
        expected = (cluster.coordinator.knn(database[:4], **arguments),
                    cluster.coordinator.pairwise(database[:4]))
        cluster.coordinator.save(snapshot)
    with loaded(snapshot, layout[0] % 3 + 1) as (coordinator, backend):
        assert backend.model.rows == 0
        assert coordinator.stats()["cache"]["misses"] == 0
        assert_same_bits(coordinator.knn(database[:4], **arguments),
                         expected[0])
        assert_same_bits(coordinator.pairwise(database[:4]), expected[1])


@GENERATED
@given(databases, databases)
def test_snapshot_rejoin_encodes_nothing(tmp_path_factory, database, later):
    snapshot = str(tmp_path_factory.mktemp("snapshot"))
    # no cache: a warm one would hide an encode behind its hits
    with Cluster(3, replication=2, cache_size=0) as cluster:
        cluster.coordinator.add(database)
        cluster.coordinator.save(snapshot)
        cluster.kill(1)
        cluster.coordinator.add(later)   # logged for worker 1
        cluster.kill(2)                  # shard 1 now has no replica
        before = cluster.backend.model.rows
        restored = cluster.rejoin(1, snapshot=snapshot)
        assert restored[1] in ("snapshot", "catchup")
        assert cluster.backend.model.rows == before


def test_a_cluster_with_an_empty_shard_round_trips_its_snapshot(tmp_path):
    snapshot = str(tmp_path / "snapshot")
    database = make_trajectories(n=2, seed=4)
    with Cluster(3) as cluster:
        cluster.coordinator.add(database)
        assert cluster.coordinator.shard_sizes == [1, 1, 0]
        expected = (cluster.coordinator.knn(database, k=2),
                    cluster.coordinator.pairwise(database))
        cluster.coordinator.save(snapshot)
    with np.load(os.path.join(snapshot, "shard_0002.npz")) as archive:
        # the empty shard exports (0, d) rows of the backend's dtype
        assert archive["vectors"].shape == (0, CountingModel.output_dim)
        assert archive["vectors"].dtype == np.float64
    with loaded(snapshot, 3) as (coordinator, backend):
        assert backend.model.rows == 0
        assert coordinator.shard_sizes == [1, 1, 0]
        assert_same_bits(coordinator.knn(database, k=2), expected[0])
        assert_same_bits(coordinator.pairwise(database), expected[1])


def rewritten(path, **changes):
    """Rewrite one ``.npz`` with members replaced (``None`` drops one)."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays.update(changes)
    np.savez_compressed(path, **{key: value for key, value in arrays.items()
                                 if value is not None})


@pytest.mark.parametrize("vectors", [
    pytest.param(None, id="absent"),
    pytest.param(lambda held: held[:-1], id="one_row_short"),
    pytest.param(lambda held: held[:, :2], id="narrower_than_output_dim"),
    pytest.param(lambda held: held.reshape(-1), id="not_a_matrix"),
])
def test_load_refuses_a_shard_file_without_its_vectors(tmp_path, vectors):
    snapshot = str(tmp_path / "snapshot")
    database = make_trajectories(n=6, seed=2)
    with Cluster(2) as cluster:
        cluster.coordinator.add(database)
        cluster.coordinator.save(snapshot)
    path = os.path.join(snapshot, "shard_0001.npz")
    with np.load(path) as archive:
        held = archive["vectors"]
    assert held.shape == (3, CountingModel.output_dim)
    rewritten(path, vectors=None if vectors is None else vectors(held))
    with pytest.raises(ValueError, match=r"shard_0001\.npz.*vector"):
        with loaded(snapshot, 2):
            pass


# ----------------------------------------------------------------------
# (e) a vector-fed service
# ----------------------------------------------------------------------
def vector_fed_service():
    description = restore_backend(*shard_backend_state(counting_backend()))
    assert isinstance(description, BackendDescription)
    service = SimilarityService(backend=description)
    points = [np.zeros((2, 2)), np.ones((3, 2))]
    service.add(Embedded(np.arange(6.0).reshape(2, 3), points))
    return service


bad_vectors = st.sampled_from([
    np.zeros((3, 3)),                      # one row too many
    np.zeros((2, 4)),                      # wrong dimensionality
    np.zeros((2, 3), dtype=np.int64),      # not floats
    np.zeros((2, 3), dtype=object),
    np.zeros((2, 3), dtype=np.complex128),
    np.zeros(3),                           # not 2-D
])


@GENERATED
@given(bad_vectors)
def test_vector_fed_add_refuses_bad_rows_before_touching_the_index(vectors):
    service = vector_fed_service()
    points = [np.zeros((2, 2)), np.ones((3, 2))]
    with pytest.raises(EmbeddedInputError):
        service.add(Embedded(vectors, points))
    assert (len(service) == len(service.index)
            == len(service.stored_vectors()) == 2)


@GENERATED
@given(bad_vectors.filter(lambda v: v.shape != (3, 3)))
def test_vector_fed_queries_refuse_bad_rows(vectors):
    service = vector_fed_service()
    with pytest.raises(EmbeddedInputError):
        service.knn(Embedded(vectors), k=1)
    with pytest.raises(EmbeddedInputError):
        service.pairwise(Embedded(vectors))


def test_vector_fed_service_answers_like_the_service_that_encodes():
    backend = counting_backend()
    database = make_trajectories(n=9, seed=5)
    whole = SimilarityService(backend=backend).add(database)
    fed = SimilarityService(
        backend=restore_backend(*shard_backend_state(backend)))
    fed.add(Embedded(whole.encode_batch(database), database))
    queries = Embedded(whole.encode_batch(database[:3]))
    assert_same_bits(fed.knn(queries, k=4, exclude=1),
                     whole.knn(database[:3], k=4, exclude=1))
    assert_same_bits(fed.pairwise(queries), whole.pairwise(database[:3]))
    assert "cache" not in fed.stats()


def test_vector_fed_encode_error_names_the_owner():
    service = vector_fed_service()
    for call in (lambda: service.add([np.zeros((2, 2))]),
                 lambda: service.knn([np.zeros((2, 2))], k=1),
                 lambda: service.encode_batch([np.zeros((2, 2))]),
                 lambda: service.save("never-written.npz")):
        with pytest.raises(NoEncoderError, match="ClusterCoordinator"):
            call()
    assert len(service) == 2


def test_distance_backend_refuses_embedded_input():
    service = SimilarityService(backend="hausdorff")
    with pytest.raises(EmbeddedInputError, match="distance backend"):
        service.add(Embedded(np.zeros((1, 3)), [np.zeros((2, 2))]))


# ----------------------------------------------------------------------
# (f) no weights cross the wire
# ----------------------------------------------------------------------
def test_trajcl_join_payload_is_under_4_kib():
    trajectories = make_trajectories(n=12, seed=3)
    backend = get_backend("trajcl", trajectories=trajectories, dim=8,
                          max_len=16, epochs=0, seed=1)
    with Cluster(2, backend=backend) as cluster:
        # each stats() is itself one small round to every worker: two of
        # them isolate what the two join handshakes sent
        first = cluster.coordinator.stats()["transport"]["bytes_sent"]
        second = cluster.coordinator.stats()["transport"]["bytes_sent"]
        joins = first - (second - first)
        assert 0 < joins / 2 < 4096
        worker_stats = cluster.workers[0]  # built from a description
        assert all(shard.service.vector_fed
                   for shard in worker_stats._services.values())
