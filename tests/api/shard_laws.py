"""One law, both link kinds.

The sharding engine is one class; its two services differ only in the
links under it. Each law here is written once, against ``links`` —
``"pipes"``: a :class:`ShardedSimilarityService` over worker processes,
``"tcp"``: a :class:`ClusterCoordinator` over in-process
:class:`ShardWorker`s — and bound, under the test id it has always had,
in ``test_serving.py`` (whose ``links`` fixture says ``"pipes"``) and in
``test_cluster.py`` (``"tcp"``). ``backend`` and ``single_service`` are
those modules' own: the trained ``trajcl`` model behind pipes, the
``hausdorff`` measure over TCP.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.api import (
    ClusterCoordinator,
    RemoteCallError,
    ShardedSimilarityService,
    ShardWorker,
    SimilarityService,
    as_backend,
)
from repro.api.wire import WireError

from ..trajectory.test_trajectory import bad_batches, first_error


class Sharded:
    """A sharded service of one link kind and its workers, torn down
    together."""

    def __init__(self, links, backend, shards=2, **kwargs):
        self.workers = []
        if links == "pipes":
            self.service = ShardedSimilarityService(
                backend=backend, num_workers=shards, **kwargs)
            return
        self.workers = [ShardWorker() for _ in range(shards)]
        try:
            self.service = ClusterCoordinator(
                [w.address for w in self.workers], backend=backend,
                **{"heartbeat_interval": 0, **kwargs})
        except Exception:
            self.close_workers()
            raise

    @property
    def processes(self):
        """The worker processes the service must reap (none over TCP:
        those workers are threads of this process, closed here)."""
        return [link.process for link in self.service._links
                if link.process is not None]

    def kill(self, worker):
        """The worker dies the way its kind dies: SIGTERM to the process,
        or the listener and every connection dropped."""
        if self.workers:
            self.workers[worker].close()
        else:
            self.processes[worker].terminate()
            self.processes[worker].join(timeout=5)
            assert not self.processes[worker].is_alive()

    def close_workers(self):
        for worker in self.workers:
            worker.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.service.close()
        self.close_workers()


def assert_same_bits(got, expected):
    """One array, or a ``(distances, ids)`` pair of them."""
    if not isinstance(expected, tuple):
        got, expected = (got,), (expected,)
    for got_part, expected_part in zip(got, expected):
        assert got_part.dtype == expected_part.dtype
        assert got_part.shape == expected_part.shape
        assert got_part.tobytes() == expected_part.tobytes()


# ----------------------------------------------------------------------
# Parity with the single service
# ----------------------------------------------------------------------
def incremental_add_keeps_parity(links, backend, trajectories):
    single = SimilarityService(backend=backend)
    with Sharded(links, backend) as sharded:
        service = sharded.service
        single.add(trajectories[:7]).add(trajectories[7:12])
        service.add(trajectories[:7]).add(trajectories[7:12])
        single.add(trajectories[12:])
        service.add(trajectories[12:])
        assert len(service) == len(single) == len(trajectories)
        assert sum(service.shard_sizes) == len(trajectories)
        assert_same_bits(service.knn(trajectories[9], k=6, exclude=9),
                         single.knn(trajectories[9], k=6, exclude=9))
        assert_same_bits(service.knn(trajectories[:4], k=5),
                         single.knn(trajectories[:4], k=5))


def pairwise_matches_single_service(links, backend, single_service,
                                    trajectories):
    with Sharded(links, backend, shards=3) as sharded:
        sharded.service.add(trajectories)
        queries = trajectories[:4]
        assert_same_bits(sharded.service.pairwise(queries),
                         single_service.pairwise(queries))
        assert_same_bits(
            sharded.service.pairwise(queries, trajectories[:3]),
            single_service.pairwise(queries, trajectories[:3]))


def knn_parity_with_exclude_and_dedupe(links, backend, single_service,
                                       trajectories):
    with Sharded(links, backend, shards=3) as sharded:
        sharded.service.add(trajectories)
        for kwargs in ({"exclude": 3}, {"dedupe_eps": 1e-9},
                       {"exclude": 3, "dedupe_eps": 1e-9}):
            assert_same_bits(
                sharded.service.knn(trajectories[3], k=4, **kwargs),
                single_service.knn(trajectories[3], k=4, **kwargs))


def knn_is_one_fan_out_round(links, backend, trajectories):
    """A sharded ``knn`` asks each worker once. One shard holds more than
    ``k + 1`` copies of the query and ``dedupe_eps = 0`` removes every one
    of them: the answer is still the single service's, and the round
    costs one request frame per worker."""
    k, workers = 3, 2
    query = trajectories[0]
    database = []
    for other in trajectories[1:k + 3]:
        database += [query, other]  # dealt in turn: every copy on shard 0
    single = SimilarityService(backend=backend).add(database)
    with Sharded(links, backend, shards=workers) as sharded:
        service = sharded.service
        service.add(database)
        assert service._shard_ids[0].rows.tolist() == list(
            range(0, len(database), 2))

        def frames():
            return service.stats()["transport"]["frames_sent"]

        before = frames()
        got = service.knn(query, k=k, dedupe_eps=0.0)
        spent = frames() - before - workers  # less the second stats round
    assert_same_bits(got, single.knn(query, k=k, dedupe_eps=0.0))
    assert spent == workers


def bad_chunk_is_refused_whole(links, backend, single_service, trajectories):
    """A chunk is validated in one pass at the owner: the error is the one
    ``as_points`` raises for its first offending item, and no shard, id
    or cache entry remembers any of it."""
    with Sharded(links, backend) as sharded:
        service = sharded.service
        service.add(trajectories)
        before = service.stats()
        for name, batch in bad_batches(max_len=16,
                                       good=trajectories[:6]).items():
            for call in (service.add, lambda b: service.knn(b, k=3)):
                with pytest.raises(ValueError) as raised:
                    call(batch)
                assert str(raised.value) == first_error(batch), name
        after = service.stats()
        for counter in ("size", "shard_sizes", "cache", "degraded"):
            assert after.get(counter) == before.get(counter), counter
        assert_same_bits(service.knn(trajectories[:3], k=4),
                         single_service.knn(trajectories[:3], k=4))


def more_workers_than_trajectories_pads(links, backend, trajectories):
    with Sharded(links, backend, shards=4) as sharded:
        sharded.service.add(trajectories[:2])
        distances, ids = sharded.service.knn(trajectories[0], k=5, exclude=0)
        assert ids.shape == (1, 5)
        assert (ids[0, 1:] == -1).all()
        assert (distances[0, 1:] == float("inf")).all()


class TiedFloat32Model:
    """A float32 ``encode`` that is a pure function of each trajectory
    and coarse: lattice trajectories collide, so equal distances — at the
    ``k`` boundary too — are the rule, on values no float32 sum rounds
    away (a third, a seventh)."""

    output_dim = 9
    dtype = np.float32

    def encode(self, trajectories):
        rows = [(points[:, 0].sum(), points[:, 1].max(), len(points))
                for points in map(np.asarray, trajectories)]
        coarse = np.array(rows, dtype=np.float32)
        return np.concatenate([coarse / 3, coarse / 7, coarse], axis=1)


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def float32_ties_match_single_service(links, shards):
    """Sharded ≡ single bit for bit in the serving dtype, wherever the
    ties fall and however many shards split them."""
    rng = np.random.default_rng(22)
    database = [rng.integers(0, 3, (rng.integers(1, 4), 2)).astype(float)
                for _ in range(26)]
    queries = database[:5] + [np.array([[1.0, 2.0], [0.0, 1.0]])]
    backend = as_backend(TiedFloat32Model(), name="tied32")
    single = SimilarityService(backend=backend).add(database)
    assert single.pairwise(queries).dtype == np.float32
    distances, _ = single.knn(queries, k=8)
    assert (np.diff(distances, axis=1) == 0).any()  # ties, as promised
    with Sharded(links, backend, shards=shards) as sharded:
        sharded.service.add(database[:9]).add(database[9:])
        for kwargs in ({}, {"exclude": 2}, {"dedupe_eps": 0.0}):
            for k in (1, 8, 30):
                assert_same_bits(sharded.service.knn(queries, k=k, **kwargs),
                                 single.knn(queries, k=k, **kwargs))
        assert_same_bits(sharded.service.pairwise(queries),
                         single.pairwise(queries))


# ----------------------------------------------------------------------
# One lock: frames stay paired, the bookkeeping is never seen torn
# ----------------------------------------------------------------------
def worker_error_keeps_rpc_in_sync(links, backend, single_service,
                                   trajectories):
    """An error *reply* is the request's failure, not a worker's: it
    propagates, degrades nobody, and — every reply of the round having
    been read before it is raised — leaves each link paired with its own
    replies."""
    with pytest.raises(RemoteCallError, match="bogus"):
        # the join handshake's error reply: the worker cannot build this
        Sharded(links, backend, index="bruteforce",
                index_kwargs={"bogus": 1})
    with Sharded(links, backend, shards=3) as sharded:
        service = sharded.service
        service.add(trajectories)
        with pytest.raises(RemoteCallError, match="unknown command"):
            service._shard_query("no-such-command", None)
        stats = service.stats()
        assert stats["degraded"] == [] and stats["alive_workers"] == 3
        assert_same_bits(service.knn(trajectories[:2], k=3),
                         single_service.knn(trajectories[:2], k=3))


class RefusesOnce:
    """A link's transport whose next send is refused before a byte
    leaves, the way the codec refuses a frame it cannot encode."""

    def __init__(self, transport):
        self.transport, self.armed = transport, True

    def send(self, message):
        if self.armed:
            self.armed = False
            raise WireError("frame refused")
        self.transport.send(message)

    def __getattr__(self, name):
        return getattr(self.transport, name)


def refused_send_leaves_every_link_in_step(links, trajectories):
    """A send refused after another worker's went out is raised only
    once that worker's reply is read, so the next call reads its own
    replies. An add refused after a send went out closes the service, as
    a worker's failed add does: the workers it reached hold writes that
    never commit. One refused before any send changes nothing."""
    single = SimilarityService(backend="hausdorff").add(trajectories)
    with Sharded(links, "hausdorff") as sharded:
        service = sharded.service
        service.add(trajectories)
        link = service._links[1]  # sent to after worker 0
        link.transport = refusing = RefusesOnce(link.transport)
        with pytest.raises(WireError, match="refused"):
            service.knn(trajectories[:1], k=3)
        assert_same_bits(service.knn(trajectories[5:7], k=3),
                         single.knn(trajectories[5:7], k=3))
        assert service.stats()["degraded"] == []
        # Refused at the first worker, an add reached nobody: the error
        # is the refusal itself and the service stays open.
        first = service._links[0]
        first.transport = RefusesOnce(first.transport)
        with pytest.raises(WireError, match="refused"):
            service.add(trajectories[:2])
        assert len(service) == len(trajectories)
        assert_same_bits(service.knn(trajectories[5:7], k=3),
                         single.knn(trajectories[5:7], k=3))
        refusing.armed = True
        with pytest.raises(RemoteCallError, match="refused"):
            service.add(trajectories[:2])  # one for each shard
        with pytest.raises(RuntimeError, match="closed"):
            service.knn(trajectories[:1], k=3)


@contextlib.contextmanager
def probing(service, check):
    """A thread calling ``check(service.stats())`` in a loop for the
    length of the block; what it raised fails the block afterwards."""
    errors = []
    stop = threading.Event()

    def probe():
        try:
            while not stop.is_set():
                check(service.stats())
        except Exception as error:  # surfaced below
            errors.append(error)

    thread = threading.Thread(target=probe, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert not errors, errors


def stats_probe_does_not_desync_in_flight_queries(links, backend,
                                                  single_service,
                                                  trajectories):
    """stats() asks every worker over the same links the query path uses;
    the RPC lock must keep a concurrent probe (a server handler thread
    beside a QueryQueue flush thread) from interleaving frames with a kNN
    exchange."""
    expected = single_service.knn(trajectories[:2], k=3)
    with Sharded(links, backend, shards=3) as sharded:
        service = sharded.service
        service.add(trajectories)

        def check(stats):
            assert stats["size"] == len(trajectories)

        with probing(service, check):
            for _ in range(50):
                assert_same_bits(service.knn(trajectories[:2], k=3),
                                 expected)


def stats_never_observes_a_half_committed_add(links, trajectories):
    """The ids and the size commit together, under the lock stats()
    snapshots them under: shard_sizes always sums to size."""
    with Sharded(links, "hausdorff", shards=3) as sharded:
        service = sharded.service
        service.add(trajectories[:3])

        def check(stats):
            assert sum(stats["shard_sizes"]) == stats["size"], \
                (stats["shard_sizes"], stats["size"])

        with probing(service, check):
            for i in range(25):
                service.add([trajectories[i % len(trajectories)]])
        final = service.stats()
        assert final["size"] == 3 + 25
        assert sum(final["shard_sizes"]) == final["size"]


def shard_sizes_snapshot_is_atomic(links, trajectories):
    with Sharded(links, "hausdorff", shards=3) as sharded:
        sharded.service.add(trajectories)
        assert sum(sharded.service.shard_sizes) == len(trajectories)


def stats_expose_transport_counters(links, backend, single_service,
                                    trajectories):
    """The codec and the links are invisible to callers — bit-identical
    answers — and counted in stats()."""
    with Sharded(links, backend) as sharded:
        sharded.service.add(trajectories)
        assert_same_bits(sharded.service.knn(trajectories[:4], k=3),
                         single_service.knn(trajectories[:4], k=3))
        transport = sharded.service.stats()["transport"]
    for key in ("bytes_sent", "frames_sent", "bytes_recv", "frames_recv"):
        assert transport[key] >= 0
    assert transport["shm_hits"] == 0  # a schema key; nothing rides shm
    assert transport["frames_sent"] > 0
    assert transport["bytes_sent"] > transport["frames_sent"] * 8


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def close_survives_a_dead_worker(links, trajectories):
    """close() must stay bounded when a worker already died — reap it,
    never hang on the farewell or the join."""
    with Sharded(links, "hausdorff") as sharded:
        sharded.service.add(trajectories)
        sharded.kill(0)
        start = time.monotonic()
        sharded.service.close()
        assert time.monotonic() - start < 10.0
        sharded.service.close()  # still idempotent afterwards
        assert not any(p.is_alive() for p in sharded.processes)


@pytest.mark.parametrize("shutdown", [False, True], ids=["leave", "shutdown"])
@pytest.mark.parametrize("state", ["healthy", "killed", "refused"])
def close_leaves_nothing_running(links, trajectories, state, shutdown):
    """One teardown for both link kinds, whatever the workers' state —
    all up, one killed, or one whose farewell send is refused: after
    close() no local worker process runs, neither owner channel of any
    link is open and no heartbeat thread is left; over TCP,
    ``shutdown_workers`` stops every worker."""
    heartbeat = {} if links == "pipes" else {"heartbeat_interval": 0.1,
                                             "heartbeat_timeout": 1.0}
    with Sharded(links, "hausdorff", **heartbeat) as sharded:
        service = sharded.service
        service.add(trajectories)
        if state == "killed":
            sharded.kill(0)
        elif state == "refused":
            first = service._links[0]
            first.transport = RefusesOnce(first.transport)
        service.close(shutdown_workers=shutdown)
        assert not any(p.is_alive() for p in sharded.processes)
        for link in service._links:
            for channel in (link.transport, link.heartbeat):
                assert channel is None or channel._closed
        thread = getattr(service, "_heartbeat_thread", None)
        assert thread is None or not thread.is_alive()
        if shutdown and sharded.workers:
            # a worker flips its flag just after it answers ``shutdown``
            deadline = time.monotonic() + 5.0
            while (not all(w.closed for w in sharded.workers)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert [w.closed for w in sharded.workers] == [True, True]
