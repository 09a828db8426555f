"""Tests for the fault-injection harness (tests/chaos.py) and the
retry behaviour it exists to exercise: the chaos config, deterministic
injection, the transport-level failure taxonomy (TransientError vs
FrameError), the remote client's transparent single retry, and a
chaos-wrapped cluster still answering exactly."""

import os
import subprocess
import sys
import time

import pytest

from repro.api import (
    ClusterCoordinator,
    RemoteSimilarityClient,
    ShardWorker,
    SimilarityServer,
    SimilarityService,
    TransientError,
)
from repro.api.transport import FrameError

from ..chaos import ChaosConfig, ChaosCoordinator, ChaosTransport
from .test_registry import make_trajectories

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=14, seed=23)


@pytest.fixture(scope="module")
def single_service(trajectories):
    return SimilarityService(backend="hausdorff").add(trajectories)


class _ScriptedTransport:
    """A loopback transport double: records sends, replays canned replies."""

    def __init__(self, replies=None):
        self.sent = []
        self.replies = list(replies or [])
        self.closed = False

    def send(self, message):
        self.sent.append(message)

    def send_encoded(self, payload):
        self.sent.append(payload)

    def recv(self):
        return self.replies.pop(0) if self.replies else ("ok", None)

    def poll(self, timeout=None):
        return True

    def close(self):
        self.closed = True

    def stats(self):
        return {"bytes_sent": 0, "frames_sent": len(self.sent),
                "bytes_recv": 0, "frames_recv": 0}


class TestChaosConfig:
    def test_rejects_bad_rates_and_kill_after(self):
        with pytest.raises(ValueError, match="drop_rate"):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ValueError, match="kill_after"):
            ChaosConfig(kill_after=-1)

    def test_spawn_is_deterministic_and_decorrelated(self):
        config = ChaosConfig(seed=42, drop_rate=0.1)
        assert config.spawn(1) == config.spawn(1)
        assert config.spawn(1).seed != config.spawn(2).seed
        assert config.spawn(1).drop_rate == 0.1

    def test_inactive_config(self):
        assert not ChaosConfig(seed=9).active
        # Latency needs both a rate and a duration to do anything.
        assert not ChaosConfig(latency_rate=0.5).active


class TestChaosTransport:
    def test_drop_raises_transient_and_closes(self):
        inner = _ScriptedTransport()
        flaky = ChaosTransport(inner, ChaosConfig(seed=1, drop_rate=1.0))
        with pytest.raises(TransientError, match="drop"):
            flaky.send(("ping", None))
        assert inner.closed
        assert flaky.injected["drops"] == 1

    def test_kill_after_is_permanent(self):
        inner = _ScriptedTransport()
        flaky = ChaosTransport(inner, ChaosConfig(seed=1, kill_after=2))
        flaky.send(("a", None))
        flaky.send(("b", None))
        with pytest.raises(TransientError, match="killed"):
            flaky.send(("c", None))
        # Dead stays dead: every later operation fails, poll reports it.
        with pytest.raises(TransientError):
            flaky.recv()
        assert flaky.poll(0.0) is False
        assert flaky.injected["kills"] == 1

    def test_truncation_consumes_the_reply_then_raises_frame_error(self):
        inner = _ScriptedTransport(replies=[("ok", "reply-1")])
        flaky = ChaosTransport(inner, ChaosConfig(seed=1, truncate_rate=1.0))
        with pytest.raises(FrameError, match="truncation"):
            flaky.recv()
        # The real reply was drained so the peer's protocol state stays
        # consistent; only this side saw a torn frame.
        assert not inner.replies
        assert flaky.injected["truncations"] == 1

    def test_same_seed_same_schedule(self):
        def run():
            inner = _ScriptedTransport()
            flaky = ChaosTransport(
                inner, ChaosConfig(seed=99, drop_rate=0.3))
            outcomes = []
            for _ in range(40):
                try:
                    flaky.send(("ping", None))
                    outcomes.append("ok")
                except TransientError:
                    outcomes.append("drop")
                    flaky._transport = _ScriptedTransport()  # "reconnect"
            return outcomes, dict(flaky.injected)

        assert run() == run()

    def test_stats_merges_wrapped_counters_with_chaos_block(self):
        flaky = ChaosTransport(_ScriptedTransport(),
                               ChaosConfig(seed=1, drop_rate=0.0))
        flaky.send(("ping", None))
        stats = flaky.stats()
        assert stats["frames_sent"] == 1
        assert stats["chaos"]["operations"] == 1
        assert stats["chaos"]["drops"] == 0


class TestClientRetry:
    def test_transient_reset_is_retried_once(self, single_service,
                                             trajectories):
        with SimilarityServer(single_service) as server:
            with RemoteSimilarityClient(*server.address) as client:
                expected = single_service.knn(trajectories[:3], k=4)
                # Every operation on the current connection drops; the
                # retry path reconnects with a plain transport and the
                # repeated exchange succeeds.
                client._transport = ChaosTransport(
                    client._transport, ChaosConfig(seed=5, drop_rate=1.0))
                got = client.knn(trajectories[:3], k=4)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
                stats = client.stats()
                assert stats["retries"] == 1

    def test_partial_reply_is_never_retried(self, single_service,
                                            trajectories):
        with SimilarityServer(single_service) as server:
            client = RemoteSimilarityClient(*server.address)
            try:
                client._transport = ChaosTransport(
                    client._transport,
                    ChaosConfig(seed=5, truncate_rate=1.0))
                with pytest.raises(FrameError):
                    client.knn(trajectories[0], k=2)
                assert client._retries == 0
            finally:
                client._closed = True  # the torn transport is already dead
                client._transport.close()


class TestClusterChaos:
    def test_chaos_wrapped_cluster_stays_exact(self, single_service,
                                               trajectories):
        """Latency-only chaos on every worker link: answers stay
        bit-exact and the harness sums the injection counters."""
        workers = [ShardWorker(), ShardWorker()]
        try:
            with ChaosCoordinator(
                    ChaosConfig(seed=11, latency_rate=0.5, latency_ms=1.0),
                    [w.address for w in workers], backend="hausdorff",
                    heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                expected = single_service.knn(trajectories[:3], k=4)
                got = cluster.knn(trajectories[:3], k=4)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
                stats = cluster.stats()
                assert stats["chaos"]["operations"] > 0
                assert stats["chaos"]["latency"] > 0
        finally:
            for worker in workers:
                worker.close()

    def test_injected_kill_fails_over_with_replication(self, single_service,
                                                       trajectories):
        """A chaos kill on one link mid-traffic behaves exactly like a
        worker crash: degraded link, failover, still bit-exact."""
        workers = [ShardWorker(), ShardWorker()]
        try:
            with ClusterCoordinator(
                    [w.address for w in workers], backend="hausdorff",
                    replication=2, heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                expected = single_service.knn(trajectories[:3], k=4)
                # Arm a kill switch on worker 0's request link only.
                link = cluster._links[0]
                link.transport = ChaosTransport(
                    link.transport, ChaosConfig(seed=3, kill_after=1))
                failures = 0
                for _ in range(6):
                    try:
                        got = cluster.knn(trajectories[:3], k=4)
                    except Exception:
                        failures += 1
                        continue
                    assert got[0].tobytes() == expected[0].tobytes()
                    assert got[1].tobytes() == expected[1].tobytes()
                assert failures == 0
                stats = cluster.stats()
                assert stats["alive_workers"] == 1
                assert stats["degraded"] == []
        finally:
            for worker in workers:
                worker.close()

    def test_a_lost_shutdown_send_still_stops_a_live_worker(self, tmp_path):
        """The ``shutdown`` frame to a live worker fails (its request link
        dies at that send, the worker process lives on): a cascade close
        must still stop the process, over a fresh connection."""
        ready = tmp_path / "worker-ready"
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster-worker", "--port", "0",
             "--ready-file", str(ready)],
            env={**os.environ, "PYTHONPATH": SRC})
        try:
            deadline = time.monotonic() + 30
            while not ready.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            # link 1 (requests) passes the join's send and recv; its
            # third operation, the shutdown send, is the fault
            cluster = ChaosCoordinator(
                ChaosConfig(kill_after=2), [ready.read_text().strip()],
                backend="hausdorff", heartbeat_interval=0)
            cluster.close(shutdown_workers=True)
            assert worker.wait(timeout=20) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
