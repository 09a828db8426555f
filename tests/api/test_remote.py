"""Tests for the remote serving layer: bit-identical parity through the
client, composition with QueryQueue and sharding, and the error paths
(malformed frames, mid-request disconnects, shutdown with in-flight
queries)."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    KnnService,
    QueryQueue,
    RemoteCallError,
    RemoteSimilarityClient,
    ShardedSimilarityService,
    SimilarityServer,
    SimilarityService,
    get_backend,
)
from repro.api.remote import parse_address
from repro.api.transport import (
    FRAME_HEADER,
    SocketTransport,
    TransportClosed,
)

from .test_registry import make_trajectories
from .test_wire import HOSTILE, hostile_payloads


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=18, seed=7)


@pytest.fixture(scope="module")
def local_service(trajectories):
    return SimilarityService(backend="hausdorff").add(trajectories)


@pytest.fixture()
def server(local_service):
    with SimilarityServer(local_service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with RemoteSimilarityClient(*server.address) as cli:
        yield cli


class TestParseAddress:
    def test_forms(self):
        assert parse_address("localhost:9000") == ("localhost", 9000)
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
        assert parse_address("10.0.0.1", 80) == ("10.0.0.1", 80)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_address("no-port-here")
        with pytest.raises(ValueError, match="host:port"):
            parse_address(":123")


class TestRemoteParity:
    def test_knn_bit_identical(self, local_service, client, trajectories):
        queries = trajectories[:5]
        local_d, local_i = local_service.knn(queries, k=4, exclude=2)
        remote_d, remote_i = client.knn(queries, k=4, exclude=2)
        assert local_d.tobytes() == remote_d.tobytes()
        assert local_i.tobytes() == remote_i.tobytes()

    def test_knn_with_dedupe(self, local_service, client, trajectories):
        local = local_service.knn(trajectories[0], k=3, dedupe_eps=1e-9)
        remote = client.knn(trajectories[0], k=3, dedupe_eps=1e-9)
        np.testing.assert_array_equal(local[1], remote[1])
        np.testing.assert_array_equal(local[0], remote[0])

    def test_pairwise_and_len(self, local_service, client, trajectories):
        np.testing.assert_array_equal(
            local_service.pairwise(trajectories[:3]),
            client.pairwise(trajectories[:3]),
        )
        np.testing.assert_array_equal(
            local_service.pairwise(trajectories[:2], trajectories[3:6]),
            client.pairwise(trajectories[:2], trajectories[3:6]),
        )
        assert len(client) == len(local_service)

    def test_stats_reports_the_service(self, client, local_service):
        stats = client.stats()
        assert stats["backend"] == "hausdorff"
        assert stats["size"] == len(local_service)
        assert stats["requests"] >= 1

    def test_remote_add_extends_database(self, trajectories):
        service = SimilarityService(backend="frechet").add(trajectories[:4])
        with SimilarityServer(service) as server:
            with RemoteSimilarityClient(*server.address) as client:
                assert client.add(trajectories[4:6]) == 6
                assert len(client) == 6
        distances, ids = service.knn(trajectories[5], k=1, exclude=5)
        assert ids[0, 0] >= 0

    def test_client_satisfies_knn_service_protocol(self, client):
        assert isinstance(client, KnnService)


class TestWireParity:
    def test_batched_knn_bit_identical(self, local_service, trajectories):
        queries = trajectories[:4]
        local_d, local_i = local_service.knn(queries, k=4, exclude=1)
        with SimilarityServer(local_service) as server:
            with RemoteSimilarityClient(*server.address) as client:
                remote_d, remote_i = client.knn(queries, k=4, exclude=1)
        assert local_d.tobytes() == remote_d.tobytes()
        assert local_i.tobytes() == remote_i.tobytes()

    def test_transport_stats_visible_on_both_ends(self, local_service,
                                                  trajectories):
        with SimilarityServer(local_service) as server:
            with RemoteSimilarityClient(*server.address) as client:
                client.knn(trajectories[0], k=2)
                client_stats = client.transport_stats()
                info = client.stats()
        assert client_stats["frames_sent"] >= 1
        assert client_stats["bytes_sent"] > 0
        server_side = info["server_transport"]
        assert server_side["frames_recv"] >= 1
        assert server_side["bytes_recv"] > 0


class TestComposition:
    def test_query_queue_over_remote_client(self, local_service, server,
                                            trajectories):
        """RemoteSimilarityClient is a KnnService: QueryQueue batches onto
        it exactly as onto a local service, with identical results."""
        with RemoteSimilarityClient(*server.address) as client:
            with QueryQueue(client, max_batch=8, max_wait=0.02) as queue:
                futures = [queue.submit(t, k=3, exclude=i)
                           for i, t in enumerate(trajectories[:6])]
                rows = [f.result(timeout=30) for f in futures]
        for i, (row_d, row_i) in enumerate(rows):
            local_d, local_i = local_service.knn(trajectories[i], k=3,
                                                 exclude=i)
            assert local_d[0].tobytes() == row_d.tobytes()
            assert local_i[0].tobytes() == row_i.tobytes()

    def test_server_over_query_queue_batches_connections(self, local_service,
                                                         trajectories):
        with QueryQueue(local_service, max_batch=16, max_wait=0.02) as queue:
            with SimilarityServer(queue) as server:
                results = {}

                def caller(i):
                    with RemoteSimilarityClient(*server.address) as cli:
                        results[i] = cli.knn(trajectories[i], k=3, exclude=i)

                threads = [threading.Thread(target=caller, args=(i,))
                           for i in range(5)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            stats = queue.queue_stats
        assert len(results) == 5
        assert stats.queries == 5
        for i, (remote_d, remote_i) in results.items():
            local_d, local_i = local_service.knn(trajectories[i], k=3,
                                                 exclude=i)
            np.testing.assert_array_equal(local_i, remote_i)
            np.testing.assert_allclose(local_d, remote_d)

    def test_server_over_query_queue_accepts_add(self, trajectories):
        service = SimilarityService(backend="hausdorff").add(trajectories[:5])
        with QueryQueue(service, max_wait=0.01) as queue:
            with SimilarityServer(queue) as server:
                with RemoteSimilarityClient(*server.address) as client:
                    assert client.add(trajectories[5:8]) == 8
                    assert len(client) == len(service) == 8
                    _, ids = client.knn(trajectories[6], k=1)
        assert ids[0, 0] == 6

    def test_server_over_sharded_service(self, local_service, trajectories):
        with ShardedSimilarityService(backend="hausdorff",
                                      num_workers=2) as shards:
            shards.add(trajectories)
            with SimilarityServer(shards) as server:
                with RemoteSimilarityClient(*server.address) as client:
                    remote_d, remote_i = client.knn(trajectories[:4], k=5)
                    stats = client.stats()
        local_d, local_i = local_service.knn(trajectories[:4], k=5)
        assert local_d.tobytes() == remote_d.tobytes()
        assert local_i.tobytes() == remote_i.tobytes()
        assert stats["workers"] == 2


class TestErrorPaths:
    def test_service_error_propagates_not_kills(self, client, trajectories):
        with pytest.raises(RemoteCallError, match="k must be"):
            client.knn(trajectories[0], k=0)
        # Same connection still answers afterwards.
        distances, ids = client.knn(trajectories[0], k=2)
        assert ids.shape == (1, 2)

    def test_malformed_frame_kills_only_that_connection(self, server,
                                                        local_service,
                                                        trajectories):
        raw = socket.create_connection(server.address, timeout=5)
        raw.sendall(b"GET / HTTP/1.1\r\n\r\n")  # not a frame
        # The server abandons the stream: we observe EOF (possibly after a
        # best-effort error reply).
        raw.settimeout(5)
        tail = b""
        try:
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    break
                tail += chunk
        except socket.timeout:
            pytest.fail("server kept a garbage connection open")
        finally:
            raw.close()
        # ...and keeps serving everyone else.
        with RemoteSimilarityClient(*server.address) as client:
            _, ids = client.knn(trajectories[0], k=2)
            assert ids.shape == (1, 2)

    @pytest.mark.parametrize("name", HOSTILE)
    def test_hostile_payload_gets_a_typed_reply_and_nothing_runs(
            self, server, trajectories, tmp_path, name):
        sentinel = tmp_path / "ran"
        transport = SocketTransport(
            socket.create_connection(server.address, timeout=5))
        try:
            transport.send_encoded(hostile_payloads(sentinel)[name])
            status, detail = transport.recv()
            assert status == "error" and "malformed frame" in detail
            assert HOSTILE[name] in detail
            with pytest.raises(TransportClosed):
                transport.recv()  # the stream is abandoned after the reply
        finally:
            transport.close()
        assert not sentinel.exists()
        with RemoteSimilarityClient(*server.address) as client:
            _, ids = client.knn(trajectories[0], k=2)
            assert ids.shape == (1, 2)

    def test_disconnect_mid_request_is_isolated(self, server, trajectories):
        raw = socket.create_connection(server.address, timeout=5)
        # Header promising a large body, then hang up mid-frame.
        raw.sendall(FRAME_HEADER.pack(1 << 20) + b"only a few bytes")
        raw.close()
        time.sleep(0.05)
        with RemoteSimilarityClient(*server.address) as client:
            _, ids = client.knn(trajectories[0], k=2)
            assert ids.shape == (1, 2)

    def test_oversized_frame_is_rejected(self, server, trajectories):
        raw = socket.create_connection(server.address, timeout=5)
        transport = SocketTransport(raw)
        raw.sendall(FRAME_HEADER.pack(1 << 40))  # over MAX_FRAME_BYTES
        # Server replies with an error frame and/or hangs up; either way a
        # fresh connection still works.
        transport.close()
        with RemoteSimilarityClient(*server.address) as client:
            assert len(client) == len(trajectories)

    def test_shutdown_with_in_flight_queries(self, local_service,
                                             trajectories):
        """close() lets a dispatched query finish; later calls fail cleanly
        instead of hanging."""
        server = SimilarityServer(local_service)
        client = RemoteSimilarityClient(*server.address)
        results, failures = [], []

        def hammer():
            try:
                for i in range(200):
                    results.append(client.knn(trajectories[i % 6], k=2))
            except (RemoteCallError, ConnectionError, RuntimeError) as error:
                failures.append(error)

        thread = threading.Thread(target=hammer)
        thread.start()
        time.sleep(0.05)  # let some queries through
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 10.0  # bounded shutdown
        thread.join(timeout=30)
        assert not thread.is_alive()
        client.close()
        # Whatever completed before the shutdown is intact.
        for distances, ids in results:
            assert ids.shape == (1, 2)

    def test_connect_to_closed_server_fails_fast(self, local_service):
        server = SimilarityServer(local_service)
        host, port = server.address
        server.close()
        with pytest.raises((ConnectionError, OSError)):
            RemoteSimilarityClient(host, port, timeout=2).knn(
                np.zeros((4, 2)), k=1)

    def test_client_connect_retries_until_server_boots(self, local_service,
                                                       trajectories):
        """A client launched alongside the server no longer races its bind:
        bounded retry with backoff bridges the boot window."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        box = {}

        def boot():
            time.sleep(0.4)
            box["server"] = SimilarityServer(local_service, port=port)

        thread = threading.Thread(target=boot)
        thread.start()
        try:
            with RemoteSimilarityClient("127.0.0.1", port,
                                        connect_retries=20,
                                        retry_wait=0.05) as client:
                assert len(client) == len(local_service)
        finally:
            thread.join(timeout=10)
            if "server" in box:
                box["server"].close()

    def test_max_requests_shuts_down(self, local_service, trajectories):
        server = SimilarityServer(local_service, max_requests=2)
        with RemoteSimilarityClient(*server.address) as client:
            client.knn(trajectories[0], k=2)
            client.stats()  # second request trips the limit
        for _ in range(100):
            if server.closed:
                break
            time.sleep(0.02)
        assert server.closed
        server.close()


class TestMultiClientSoak:
    """N concurrent clients, each its own connection, M requests apiece —
    the replies must never cross-talk and the server must close cleanly
    with every handler reaped."""

    def test_concurrent_clients_zero_crosstalk(self, local_service,
                                               trajectories):
        clients, per_client = 6, 15
        expected = {
            i: local_service.knn(trajectories[i], k=4, exclude=i)
            for i in range(len(trajectories))
        }
        failures = []
        barrier = threading.Barrier(clients)
        server = SimilarityServer(local_service)

        def worker(worker_id):
            try:
                with RemoteSimilarityClient(*server.address) as cli:
                    barrier.wait(timeout=30)
                    for step in range(per_client):
                        i = (worker_id * 7 + step) % len(trajectories)
                        d, ids = cli.knn(trajectories[i], k=4, exclude=i)
                        exp_d, exp_i = expected[i]
                        # Bit-identical or it's another caller's answer.
                        assert d.tobytes() == exp_d.tobytes(), (worker_id, i)
                        assert ids.tobytes() == exp_i.tobytes(), (worker_id, i)
            except Exception as error:  # surfaced below
                failures.append((worker_id, repr(error)))

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[:3]
            with RemoteSimilarityClient(*server.address) as cli:
                assert cli.stats()["requests"] >= clients * per_client
        finally:
            server.close()
        assert server.closed
        server.close()  # idempotent after a soak, like everywhere else


class TestSignalShutdown:
    def test_sigterm_runs_graceful_shutdown(self, local_service):
        import signal

        from repro.api.remote import install_signal_shutdown

        server = SimilarityServer(local_service)
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert install_signal_shutdown(server.shutdown) is True
            signal.raise_signal(signal.SIGTERM)
            # The handler only sets the event; serve_forever runs close().
            server.serve_forever(poll_interval=0.01)
            assert server.closed
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.close()

    def test_refuses_off_main_thread(self):
        from repro.api.remote import install_signal_shutdown

        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(
                install_signal_shutdown(lambda: None)))
        thread.start()
        thread.join(timeout=30)
        assert outcome == [False]


class TestReadyFile:
    def test_appears_complete_and_leaves_no_temporary(self, tmp_path,
                                                      monkeypatch):
        """Launchers poll for the file and then read it: it must never be
        visible before its content is."""
        import os

        from repro.api.remote import write_ready_file

        path = tmp_path / "ready"
        real_replace = os.replace
        moved = []

        def checking_replace(source, target):
            assert not path.exists()  # nothing to read until the move...
            with open(source) as handle:  # ...which moves a finished file
                moved.append(handle.read())
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", checking_replace)
        write_ready_file(str(path), ("127.0.0.1", 4242))
        assert moved == ["127.0.0.1:4242\n"]
        assert parse_address(path.read_text().strip()) == ("127.0.0.1", 4242)
        assert os.listdir(tmp_path) == ["ready"]


@pytest.mark.slow
class TestSustainedServing:
    """Stress the full stack: many threaded clients hammering a server
    backed by a QueryQueue over a sharded service. Deselected from tier-1
    (`slow`); run via `make test-all`."""

    def test_mixed_workload_stays_correct(self, trajectories):
        expected = {}
        local = SimilarityService(backend="hausdorff").add(trajectories)
        for i in range(len(trajectories)):
            expected[i] = local.knn(trajectories[i], k=4, exclude=i)
        full = local.pairwise(trajectories)

        failures = []
        with ShardedSimilarityService(backend="hausdorff",
                                      num_workers=2) as shards:
            shards.add(trajectories)
            with QueryQueue(shards, max_batch=32, max_wait=0.005) as queue:
                with SimilarityServer(queue) as server:

                    def worker(worker_id):
                        try:
                            with RemoteSimilarityClient(
                                    *server.address) as cli:
                                for step in range(25):
                                    i = (worker_id + step) % len(trajectories)
                                    d, ids = cli.knn(trajectories[i], k=4,
                                                     exclude=i)
                                    exp_d, exp_i = expected[i]
                                    assert d.tobytes() == exp_d.tobytes()
                                    assert ids.tobytes() == exp_i.tobytes()
                                    if step % 10 == 0:
                                        block = cli.pairwise(trajectories[i])
                                        np.testing.assert_allclose(
                                            block[0], full[i])
                        except Exception as error:  # surfaced below
                            failures.append((worker_id, error))

                    threads = [threading.Thread(target=worker, args=(w,))
                               for w in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                    stats = queue.queue_stats
        assert not failures, failures[:3]
        assert stats.queries >= 8 * 25


class TestSeededTrajclParity:
    """The paper's backend through the full stack on a seeded dataset."""

    def test_remote_and_queue_parity(self, trajectories):
        backend = get_backend("trajcl", trajectories=trajectories, dim=8,
                              max_len=16, epochs=1, seed=3)
        local = SimilarityService(backend=backend).add(trajectories)
        local_d, local_i = local.knn(trajectories[:4], k=5, exclude=1)
        with SimilarityServer(local) as server:
            with RemoteSimilarityClient(*server.address) as client:
                remote_d, remote_i = client.knn(trajectories[:4], k=5,
                                                exclude=1)
                with QueryQueue(client, max_batch=8,
                                max_wait=0.02) as queue:
                    queued_d, queued_i = queue.knn(trajectories[:4], k=5,
                                                   exclude=1)
        assert local_d.tobytes() == remote_d.tobytes()
        assert local_i.tobytes() == remote_i.tobytes()
        assert local_d.tobytes() == queued_d.tobytes()
        assert local_i.tobytes() == queued_i.tobytes()


class TestRequestCounterLockScope:
    """Regression test for an unlocked _request_count read: handle_stats
    (and __repr__) read the counter without _count_lock while handler
    threads increment under it. An unlocked increment is the
    guarded-writes law's (tests/test_lock_discipline.py) to fail."""

    def test_request_count_is_exact_after_concurrent_traffic(
            self, server, trajectories):
        per_client = 10
        errors = []

        def hammer():
            try:
                with RemoteSimilarityClient(*server.address) as cli:
                    for _ in range(per_client):
                        cli.knn(trajectories[0], k=2)
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer, daemon=True)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        with RemoteSimilarityClient(*server.address) as cli:
            stats = cli.stats()
        # every knn plus the stats probe itself, counted exactly once
        assert stats["requests"] == 3 * per_client + 1
        assert f"requests={3 * per_client + 1}" in repr(server)
