"""Every service is safe from any thread, and a queue is one more service.

The thread-safety law, over each service a front end may be handed: a
seeded, bounded storm of threads interleaving ``add`` with ``knn`` /
``pairwise`` / ``stats`` raises nothing, stores every row exactly once,
leaves the index as full as the service, and afterwards answers ``knn``
bit for bit like a serial service over the same database. Where a
``SimilarityService`` sits at the bottom its index is a :class:`Witness`
that records a second caller inside ``add`` / ``search`` — so a service
that stopped serializing itself fails here every run, not by luck.

The conformance law: a ``QueryQueue`` answers ``knn`` / ``pairwise``
exactly as the service it wraps, batch in, ``(N, k)`` out."""

import sys
import threading
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from repro.api import (
    ClusterCoordinator,
    Index,
    QueryQueue,
    RemoteSimilarityClient,
    ShardedSimilarityService,
    ShardWorker,
    SimilarityServer,
    SimilarityService,
    get_index,
)


class Summary:
    """A cheap embedding model: first point, last point and mean (d = 6).
    Row by row and float64, so any batching embeds a trajectory alike."""

    output_dim = 6

    def encode(self, batch):
        return np.stack([np.concatenate([t[0], t[-1], t.mean(axis=0)])
                         for t in batch])


MODEL = Summary()


class Witness(Index):
    """An index that records a second caller inside ``add`` / ``search``.

    Once :meth:`arm`-ed, the first caller holds the door open for
    ``window`` seconds: a service that lets a second thread in is caught
    on every run, one that serializes pays the window once."""

    def __init__(self, inner: Index, window: float = 0.3):
        self.inner, self.window = inner, window
        self.name, self.consumes = inner.name, inner.consumes
        self.exact = inner.exact
        self.overlaps = self._inside = 0
        #: rows indexed when the first search ran (a lazy index trains then)
        self.first_search_rows = None
        self._count = threading.Lock()
        self._second = threading.Event()
        self._door_held = True

    def arm(self) -> None:
        self._door_held = False

    def _enter(self) -> None:
        with self._count:
            self._inside += 1
            if self._inside > 1:
                self.overlaps += 1
                self._second.set()
            hold, self._door_held = not self._door_held, True
        if hold:
            self._second.wait(self.window)

    def _leave(self) -> None:
        with self._count:
            self._inside -= 1

    def add(self, items) -> None:
        self._enter()
        try:
            self.inner.add(items)
        finally:
            self._leave()

    def search(self, queries, k):
        self._enter()
        try:
            if self.first_search_rows is None:
                self.first_search_rows = len(self.inner)
            return self.inner.search(queries, k)
        finally:
            self._leave()

    def __len__(self) -> int:
        return len(self.inner)

    def stats(self):
        return self.inner.stats()


# ----------------------------------------------------------------------
# The services, each yielding (service, witness or None)
# ----------------------------------------------------------------------
def witnessed(kind: str = "bruteforce"):
    witness = Witness(get_index(kind))
    return SimilarityService(backend=MODEL, index=witness), witness


@contextmanager
def plain(kind):
    yield witnessed(kind)


@contextmanager
def sharded():
    with ShardedSimilarityService(backend=MODEL, num_workers=2) as service:
        yield service, None


@contextmanager
def cluster():
    workers = [ShardWorker(), ShardWorker()]
    try:
        with ClusterCoordinator([w.address for w in workers], backend=MODEL,
                                heartbeat_interval=0) as service:
            yield service, None
    finally:
        for worker in workers:
            worker.close()


class ClientPerThread:
    """A :class:`RemoteSimilarityClient` per calling thread: concurrent
    connections, so the server's handler threads overlap for real."""

    def __init__(self, address):
        self.address, self.clients = address, []
        self._mine = threading.local()

    def _client(self) -> RemoteSimilarityClient:
        if not hasattr(self._mine, "client"):
            self._mine.client = RemoteSimilarityClient(*self.address)
            self.clients.append(self._mine.client)
        return self._mine.client

    def __getattr__(self, name):  # knn, pairwise, add, stats
        # bound now, dispatched on the calling thread's own connection
        return lambda *args: getattr(self._client(), name)(*args)

    def __len__(self) -> int:
        return len(self._client())


@contextmanager
def remote():
    service, witness = witnessed()
    with SimilarityServer(service) as server:
        clients = ClientPerThread(server.address)
        try:
            yield clients, witness
        finally:
            for client in clients.clients:
                client.close()


@contextmanager
def queued():
    service, witness = witnessed()
    with QueryQueue(service) as queue:
        yield queue, witness


SERVICES = {
    "bruteforce": partial(plain, "bruteforce"),
    "int8": partial(plain, "int8"),  # trains inside the storm's first search
    "sharded": sharded,
    "cluster": cluster,
    "remote": remote,
    "queue": queued,
}


def walks(rng, count):
    return [rng.normal(size=(int(rng.integers(4, 10)), 2)).cumsum(axis=0)
            for _ in range(count)]


def storm(service, chunks, queries, rng):
    """Two adders, a knn caller and a pairwise / stats / len caller, all
    released at once; every thread makes a fixed number of calls, and
    the interpreter switches threads far more often than it would."""
    picks = rng.integers(0, len(queries) - 1, size=24)
    plans = [
        [partial(service.add, chunk) for chunk in chunks[0::2]],
        [partial(service.add, chunk) for chunk in chunks[1::2]],
        [partial(service.knn, queries[j:j + 2], 3) for j in picks[:12]],
        [call for j in picks[12:]
         for call in (partial(service.pairwise, queries[j:j + 2]),
                      service.stats, partial(len, service))],
    ]
    errors = []
    start = threading.Barrier(len(plans))

    def run(calls):
        try:
            start.wait(timeout=30)
            for call in calls:
                call()
        except Exception as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(plan,), daemon=True)
               for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_a_storm_of_callers_leaves_what_a_serial_caller_would(name):
    rng = np.random.default_rng(2029)
    initial = walks(rng, 12)
    chunks = [walks(rng, 3) for _ in range(12)]
    queries = walks(rng, 8)
    rows = initial + [t for chunk in chunks for t in chunk]
    kind = "int8" if name == "int8" else "bruteforce"
    with SERVICES[name]() as (service, witness):
        service.add(initial)
        if witness is not None:
            witness.arm()
        assert storm(service, chunks, queries, rng) == []
        assert len(service) == len(rows)
        # Every row is stored exactly once: each sits at distance 0 from
        # one id only, so the ids are unique and name the database.
        matrix = service.pairwise(rows)
        zeros = matrix == 0
        assert (zeros.sum(axis=0) == 1).all() and (zeros.sum(axis=1) == 1).all()
        database = [rows[row] for row in zeros.argmax(axis=0)]
        # A sharded engine's rows are its shards' stored vectors.
        held = service.stats().get("index_stats", {}).get("size",
                                                          matrix.shape[1])
        assert held == len(rows)
        got = service.knn(queries + rows[::7], 5)
    serial = SimilarityService(backend=MODEL, index=kind)
    trained = witness.first_search_rows if witness is not None else 0
    if trained:  # a lazy index trains on what its first search found
        serial.add(database[:trained]).knn(database[0], 1)
    serial.add(database[trained:])
    want = serial.knn(queries + rows[::7], 5)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    if witness is not None:
        assert witness.overlaps == 0


def test_the_queue_answers_like_the_service_it_wraps():
    rng = np.random.default_rng(29)
    rows = walks(rng, 16)
    batch = rows[:3] + walks(rng, 2)
    service = SimilarityService(backend=MODEL).add(rows)
    with QueryQueue(service) as queue:
        for exclude, dedupe_eps in ((None, None), (1, None), (None, 1e-9),
                                    (1, 1e-9)):
            got = queue.knn(batch, 4, exclude, dedupe_eps)
            want = service.knn(batch, 4, exclude, dedupe_eps)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert (queue.pairwise(batch).tobytes()
                == service.pairwise(batch).tobytes())
        distances, ids = queue.knn(rows[0], 4)  # a bare array is one query
    assert distances.shape == ids.shape == (1, 4)
