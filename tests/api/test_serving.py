"""Tests for the serving layer: sharded kNN parity with the single-process
service, what a dead worker process costs, the batched query queue under
concurrent callers, and incremental IVF behaviour through the service
stack. The laws a sharded service keeps whatever its links are live in
``shard_laws.py``; here they run behind pipes."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import (
    DeadlineExceededError,
    QueryQueue,
    QueueFullError,
    ShardedSimilarityService,
    SimilarityService,
    SocketTransport,
    get_backend,
    serving,
)
from repro.api.serving import LATENCY_BUCKETS_MS
from repro.api.transport import request

from . import shard_laws as laws
from .test_registry import make_trajectories

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=20, seed=11)


@pytest.fixture(scope="module")
def trajcl_backend(trajectories):
    return get_backend("trajcl", trajectories=trajectories, dim=8, max_len=16,
                       epochs=1, seed=0)


@pytest.fixture(scope="module")
def links():
    return "pipes"


@pytest.fixture(scope="module")
def backend(trajcl_backend):
    return trajcl_backend


@pytest.fixture(scope="module")
def single_service(trajcl_backend, trajectories):
    return SimilarityService(backend=trajcl_backend).add(trajectories)


@pytest.fixture(scope="module")
def sharded_service(trajcl_backend, trajectories):
    service = ShardedSimilarityService(backend=trajcl_backend, num_workers=3)
    service.add(trajectories)
    yield service
    service.close()


class TestShardedParity:
    def test_knn_identical_to_single_service(self, single_service,
                                             sharded_service, trajectories):
        queries = trajectories[:6]
        d_single, i_single = single_service.knn(queries, k=5)
        d_sharded, i_sharded = sharded_service.knn(queries, k=5)
        np.testing.assert_array_equal(i_single, i_sharded)
        np.testing.assert_array_equal(d_single, d_sharded)

    test_knn_parity_with_exclude_and_dedupe = staticmethod(
        laws.knn_parity_with_exclude_and_dedupe)
    test_knn_is_one_fan_out_round = staticmethod(
        laws.knn_is_one_fan_out_round)
    test_more_workers_than_trajectories_pads = staticmethod(
        laws.more_workers_than_trajectories_pads)
    test_bad_chunk_is_refused_whole = staticmethod(
        laws.bad_chunk_is_refused_whole)
    test_pairwise_matches_single_service = staticmethod(
        laws.pairwise_matches_single_service)
    test_incremental_add_keeps_parity = staticmethod(
        laws.incremental_add_keeps_parity)
    test_float32_ties_match_single_service = staticmethod(
        laws.float32_ties_match_single_service)
    test_worker_error_keeps_rpc_in_sync = staticmethod(
        laws.worker_error_keeps_rpc_in_sync)
    test_refused_send_leaves_every_link_in_step = staticmethod(
        laws.refused_send_leaves_every_link_in_step)
    test_close_survives_a_dead_worker = staticmethod(
        laws.close_survives_a_dead_worker)
    test_close_leaves_nothing_running = staticmethod(
        laws.close_leaves_nothing_running)

    def test_distance_backend_parity(self, trajectories):
        single = SimilarityService(backend="hausdorff").add(trajectories)
        with ShardedSimilarityService(backend="hausdorff",
                                      num_workers=2) as sharded:
            sharded.add(trajectories)
            d_single, i_single = single.knn(trajectories[1], k=4, exclude=1)
            d_sharded, i_sharded = sharded.knn(trajectories[1], k=4, exclude=1)
            np.testing.assert_array_equal(i_single, i_sharded)
            np.testing.assert_allclose(d_single, d_sharded)

    def test_ivf_recall_at_least_single_service(self, trajcl_backend,
                                                trajectories):
        queries = trajectories[:8]
        exact = SimilarityService(backend=trajcl_backend).add(trajectories)
        _, truth = exact.knn(queries, k=3)
        ivf_single = SimilarityService(
            backend=trajcl_backend, index="ivf",
            index_kwargs={"n_lists": 4, "n_probe": 2, "seed": 0},
        ).add(trajectories)
        _, approx_single = ivf_single.knn(queries, k=3)
        with ShardedSimilarityService(
            backend=trajcl_backend, index="ivf", num_workers=2,
            index_kwargs={"n_lists": 4, "n_probe": 2, "seed": 0},
        ) as sharded:
            sharded.add(trajectories)
            _, approx_sharded = sharded.knn(queries, k=3)

        def recall(approx):
            return sum(
                len(set(approx[i]) & set(truth[i])) for i in range(len(truth))
            ) / truth.size

        assert recall(approx_sharded) >= recall(approx_single)

    def test_empty_query_batch(self, sharded_service):
        distances, ids = sharded_service.knn([], k=3)
        assert distances.shape == (0, 3)
        assert ids.shape == (0, 3)

    def test_validation_and_lifecycle(self, trajcl_backend, trajectories):
        with pytest.raises(ValueError, match="num_workers"):
            ShardedSimilarityService(backend=trajcl_backend, num_workers=0)
        service = ShardedSimilarityService(backend=trajcl_backend,
                                           num_workers=2)
        with pytest.raises(RuntimeError, match="empty"):
            service.knn(trajectories[0], k=1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.add(trajectories)

    def test_stats(self, sharded_service, trajectories):
        stats = sharded_service.stats()
        assert stats["workers"] == 3
        assert stats["size"] == len(trajectories)
        assert sum(stats["shard_sizes"]) == len(trajectories)


class TestWorkerDeath:
    """What a dead worker process costs: the engine's unreplicated policy
    (the one ``cluster --replication 1`` documents) — the shard is degraded
    in place and reported, the survivors answer and take the adds."""

    @pytest.fixture()
    def sharded(self, trajectories):
        with laws.Sharded("pipes", "hausdorff") as sharded:
            sharded.service.add(trajectories[:12])
            yield sharded

    def test_survivors_answer_and_health_reports_the_shard(
            self, sharded, trajectories):
        from repro.api.gateway import SimilarityGateway

        from .test_gateway import fronts, request, request_json

        service = sharded.service
        surviving = np.asarray(service._shard_ids[1].rows, dtype=np.int64)
        sharded.kill(0)
        distances, ids = service.knn(trajectories[:4], k=3)
        # == the single service restricted to the surviving shard's ids
        full = SimilarityService(backend="hausdorff").add(
            trajectories[:12]).pairwise(trajectories[:4])
        for row in range(4):
            order = np.lexsort((surviving, full[row, surviving]))[:3]
            np.testing.assert_array_equal(ids[row], surviving[order])
            np.testing.assert_array_equal(distances[row],
                                          full[row, surviving][order])
        stats = service.stats()
        assert stats["degraded"] == [0]
        assert stats["alive_workers"] == 1
        assert stats["shards"][0]["reason"]
        for front in fronts(service):
            with SimilarityGateway(front) as gateway:
                status, _, reply = request_json(gateway, "/healthz")
                assert status == 503 and reply["degraded"] == [0]
                metrics = request(gateway, "/metrics")[2].decode()
            assert 'repro_gateway_shard_up{shard="0"} 0' in metrics
            assert 'repro_gateway_shard_up{shard="1"} 1' in metrics

    def test_add_lands_on_the_survivors(self, sharded, trajectories):
        service = sharded.service
        sharded.kill(0)
        service.add(trajectories[12:])  # notices the death, requeues
        assert len(service) == len(trajectories)
        assert service.shard_sizes == [6, len(trajectories) - 6]
        assert service.stats()["degraded"] == [0]
        distances, ids = service.knn(trajectories[15], k=1)
        assert ids[0, 0] == 15 and distances[0, 0] == 0.0

    def test_all_workers_dead_raises(self, sharded, trajectories):
        sharded.kill(0)
        sharded.kill(1)
        with pytest.raises(RuntimeError, match="workers"):
            sharded.service.knn(trajectories[0], k=1)
        with pytest.raises(RuntimeError, match="workers"):
            sharded.service.add(trajectories[12:])


def _running(pid):
    """True while ``pid`` runs (a zombie nobody has reaped yet has not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


ORPHAN_SCRIPT = """
import os, signal
from repro.api import ShardedSimilarityService

service = ShardedSimilarityService(backend="hausdorff", num_workers=2)
print(*(link.process.pid for link in service._links), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWorkerLinks:
    """A worker's link is a socket pair, and a fork copies every open end
    into the child: which process closes which copy, and how, decides
    whether the link survives and whether a worker outlives its owner."""

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_disposing_of_shared_copies_leaves_the_link_answering(self):
        # The owner drops its copy of the worker's end, the worker its
        # inherited copy of the owner's: a shutdown in either place would
        # end the one connection in both processes.
        owner, worker_end = SocketTransport.pair()
        process = mp.get_context("fork").Process(
            target=serving._shard_worker, args=(worker_end, [owner]),
            daemon=True)
        process.start()
        worker_end.close_fd()
        try:
            assert request(owner, "ping")["joined"] is False
            assert request(owner, "stop") is None
        finally:
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join()
            owner.close()
        assert process.exitcode == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process states from /proc")
    def test_workers_exit_when_their_owner_is_killed(self):
        # Read one line, not to EOF: a surviving worker keeps the pipe open.
        with subprocess.Popen(
                [sys.executable, "-c", ORPHAN_SCRIPT], stdout=subprocess.PIPE,
                text=True, env={**os.environ, "PYTHONPATH": SRC}) as owner:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert owner.wait(timeout=120) == -signal.SIGKILL
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        try:
            while (any(map(_running, pids))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


class TestWireTransportParity:
    """The codec and the worker links must be invisible to callers:
    bit-identical answers, counters in stats."""

    test_stats_expose_transport_counters = staticmethod(
        laws.stats_expose_transport_counters)


class _GatedService:
    """Wraps a service so knn / pairwise block until released — holds the
    flush thread inside a service call on demand, so what the queue does
    with entries that arrive meanwhile is deterministic instead of
    racing the flush thread. ``calls`` lists the queries per call."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.gate = threading.Event()
        self.calls = []

    def _enter(self, queries):
        self.calls.append(len(queries))
        self.started.set()
        assert self.gate.wait(timeout=30)

    def knn(self, queries, k, exclude=None, dedupe_eps=None):
        self._enter(queries)
        return self.inner.knn(queries, k, exclude=exclude,
                              dedupe_eps=dedupe_eps)

    def pairwise(self, queries, database=None):
        self._enter(queries)
        return self.inner.pairwise(queries, database)

    def add(self, trajectories):
        return self.inner.add(trajectories)

    def __len__(self):
        return len(self.inner)


def _hold_flush_thread(queue, gated, query):
    """Park the queue's flush thread inside the gated service; returns
    the future of the entry it is parked on."""
    opener = queue.submit(query, k=3)
    assert gated.started.wait(timeout=30)
    return opener


class TestQueryQueue:
    def test_concurrent_callers_get_correct_results(self, single_service,
                                                    trajectories):
        expected = {
            i: single_service.knn(trajectories[i], k=4, exclude=i)
            for i in range(len(trajectories))
        }
        results = {}
        errors = []

        def caller(i):
            try:
                barrier.wait(timeout=10)
                results[i] = queue.knn(trajectories[i], k=4, exclude=i)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        barrier = threading.Barrier(len(trajectories))
        with QueryQueue(single_service, max_batch=32,
                        max_wait=0.05) as queue:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(len(trajectories))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stats = queue.queue_stats
        assert not errors
        assert stats.queries == len(trajectories)
        for i, (got_d, got_i) in results.items():
            exp_d, exp_i = expected[i]
            np.testing.assert_array_equal(got_i, exp_i)
            np.testing.assert_allclose(got_d, exp_d)

    def test_coalesces_submissions_into_batches(self, single_service,
                                                trajectories):
        gated = _GatedService(single_service)
        with QueryQueue(gated, max_batch=64, max_wait=0.5) as queue:
            futures = [_hold_flush_thread(queue, gated, trajectories[0])]
            futures += [queue.submit(t, k=3) for t in trajectories[1:]]
            gated.gate.set()
            rows = [future.result(timeout=30) for future in futures]
            stats = queue.queue_stats
        assert stats.queries == len(trajectories)
        # Everything submitted while the first flush was inside the
        # service left together on the second one.
        assert stats.batches == 2
        assert stats.largest_batch == len(trajectories) - 1
        exp_d, exp_i = single_service.knn(trajectories, k=3)
        np.testing.assert_array_equal(np.stack([i for _, i in rows]), exp_i)
        np.testing.assert_array_equal(np.stack([d for d, _ in rows]), exp_d)

    def test_groups_by_query_signature(self, single_service, trajectories):
        with QueryQueue(single_service, max_batch=64, max_wait=0.5) as queue:
            mixed = [queue.submit(trajectories[0], k=2),
                     queue.submit(trajectories[1], k=5),
                     queue.submit(trajectories[2], k=2)]
            (d2a, i2a), (d5, i5), (d2b, i2b) = [
                f.result(timeout=30) for f in mixed
            ]
        assert len(i2a) == len(i2b) == 2
        assert len(i5) == 5

    def test_errors_propagate_to_futures(self, single_service, trajectories):
        with QueryQueue(single_service, max_wait=0.01) as queue:
            future = queue.submit(trajectories[0], k=0)  # invalid k
            with pytest.raises(ValueError, match="k must be"):
                future.result(timeout=30)

    def test_cancelled_future_does_not_kill_the_queue(self, single_service,
                                                      trajectories):
        with QueryQueue(single_service, max_batch=8, max_wait=0.2) as queue:
            doomed = queue.submit(trajectories[0], k=2)
            assert doomed.cancel()
            _, ids = queue.knn(trajectories[1], k=2)
            assert ids.shape == (1, 2)
        assert queue.queue_stats.queries == 1  # the cancelled query never ran

    def test_close_drains_then_refuses(self, single_service, trajectories):
        queue = QueryQueue(single_service, max_wait=0.2)
        future = queue.submit(trajectories[0], k=2)
        queue.close()
        assert future.result(timeout=30)[1].shape == (2,)
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(trajectories[0], k=2)

    def test_works_over_sharded_service(self, sharded_service, single_service,
                                        trajectories):
        with QueryQueue(sharded_service, max_batch=16, max_wait=0.05) as queue:
            futures = [queue.submit(t, k=3, exclude=i)
                       for i, t in enumerate(trajectories[:6])]
            rows = [f.result(timeout=30) for f in futures]
        for i, (row_d, row_i) in enumerate(rows):
            exp_d, exp_i = single_service.knn(trajectories[i], k=3, exclude=i)
            np.testing.assert_array_equal(row_i, exp_i[0])
            np.testing.assert_allclose(row_d, exp_d[0])

    def test_validation(self, single_service):
        with pytest.raises(ValueError, match="max_batch"):
            QueryQueue(single_service, max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            QueryQueue(single_service, max_wait=-1.0)


class TestQueuePairwise:
    def test_concurrent_pairwise_coalesce_into_one_call(self, single_service,
                                                        trajectories):
        full = single_service.pairwise(trajectories[:6])
        gated = _GatedService(single_service)
        with QueryQueue(gated, max_batch=16, max_wait=0.5) as queue:
            opener = _hold_flush_thread(queue, gated, trajectories[0])
            futures = [queue.submit_pairwise(trajectories[i])
                       for i in range(6)]
            gated.gate.set()
            opener.result(timeout=30)
            rows = [f.result(timeout=30) for f in futures]
        # One stacked service call for the whole burst, not six.
        assert gated.calls == [1, 6]
        for i, block in enumerate(rows):
            assert block.shape == (1, len(trajectories))
            np.testing.assert_allclose(block[0], full[i])

    def test_multi_query_blocks_split_correctly(self, single_service,
                                                trajectories):
        with QueryQueue(single_service, max_batch=16, max_wait=0.5) as queue:
            first = queue.submit_pairwise(trajectories[:2])
            second = queue.submit_pairwise(trajectories[2:5])
            a = first.result(timeout=30)
            b = second.result(timeout=30)
        full = single_service.pairwise(trajectories[:5])
        np.testing.assert_allclose(a, full[:2])
        np.testing.assert_allclose(b, full[2:5])

    def test_explicit_database_is_served_unshared(self, single_service,
                                                  trajectories):
        with QueryQueue(single_service, max_wait=0.05) as queue:
            block = queue.pairwise(trajectories[:2], trajectories[5:9])
        np.testing.assert_allclose(
            block, single_service.pairwise(trajectories[:2],
                                           trajectories[5:9]))

    def test_mixed_knn_and_pairwise_batch(self, single_service, trajectories):
        with QueryQueue(single_service, max_batch=16, max_wait=0.3) as queue:
            knn_future = queue.submit(trajectories[0], k=3)
            matrix_future = queue.submit_pairwise(trajectories[1])
            row_d, row_i = knn_future.result(timeout=30)
            block = matrix_future.result(timeout=30)
        exp_d, exp_i = single_service.knn(trajectories[0], k=3)
        np.testing.assert_array_equal(row_i, exp_i[0])
        np.testing.assert_allclose(block,
                                   single_service.pairwise(trajectories[1]))

    def test_pairwise_over_sharded_service(self, sharded_service,
                                           single_service, trajectories):
        with QueryQueue(sharded_service, max_batch=8, max_wait=0.05) as queue:
            futures = [queue.submit_pairwise(trajectories[i])
                       for i in range(4)]
            rows = [f.result(timeout=30) for f in futures]
        full = single_service.pairwise(trajectories[:4])
        for i, block in enumerate(rows):
            np.testing.assert_allclose(block[0], full[i])

    def test_pairwise_errors_propagate(self, single_service):
        with QueryQueue(single_service, max_wait=0.01) as queue:
            future = queue.submit_pairwise(
                np.zeros((3, 2)), database=object())  # unusable database
            with pytest.raises(Exception):
                future.result(timeout=30)
        # The flush thread survived the failure.
        assert queue.queue_stats.batches >= 0


class TestQueueWithoutAClock:
    """The flush thread keeps no timer: an idle queue answers at once,
    and batching is whatever arrived while the previous flush ran."""

    def test_lone_submit_on_an_idle_queue_is_flushed_at_once(
            self, single_service, trajectories):
        import time

        with QueryQueue(single_service, max_wait=10.0) as queue:
            start = time.monotonic()
            _, ids = queue.submit(trajectories[0], k=2).result(timeout=30)
            assert time.monotonic() - start < 1.0
        assert ids.shape == (2,)
        assert queue.queue_stats.batches == 1

    def test_arrivals_during_a_flush_leave_in_the_next_one(
            self, single_service, trajectories):
        gated = _GatedService(single_service)
        arrivals = trajectories[1:8]
        futures = []
        with QueryQueue(gated, max_batch=64) as queue:
            opener = _hold_flush_thread(queue, gated, trajectories[0])
            callers = [threading.Thread(
                target=lambda t=t: futures.append(queue.submit(t, k=3)))
                for t in arrivals]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
            assert queue.pending == len(arrivals)
            gated.gate.set()
            for future in [opener] + futures:
                assert future.result(timeout=30)[1].shape == (3,)
            stats = queue.queue_stats
        assert gated.calls == [1, len(arrivals)]
        assert stats.batches == 2
        assert stats.largest_batch == len(arrivals)

    def test_max_batch_still_cuts_the_flush(self, single_service,
                                            trajectories):
        gated = _GatedService(single_service)
        with QueryQueue(gated, max_batch=3) as queue:
            futures = [_hold_flush_thread(queue, gated, trajectories[0])]
            futures += [queue.submit(t, k=3) for t in trajectories[1:8]]
            gated.gate.set()
            for future in futures:
                future.result(timeout=30)
            stats = queue.queue_stats
        assert gated.calls == [1, 3, 3, 1]
        assert stats.largest_batch == 3
        assert stats.queries == 8

    def test_an_add_flushes_alone_between_the_queries_around_it(
            self, trajectories):
        """The query queued before an add sees the database without it,
        the one queued after it sees it with it: the two never share a
        flush, though max_batch would let them."""
        gated = _GatedService(
            SimilarityService(backend="hausdorff").add(trajectories[:10]))
        fresh = trajectories[10]  # at distance 0 from nothing stored yet
        with QueryQueue(gated, max_batch=64) as queue:
            opener = _hold_flush_thread(queue, gated, trajectories[0])
            before = queue.submit(fresh, k=1)
            adder = threading.Thread(target=queue.add, args=([fresh],))
            adder.start()
            give_up = time.monotonic() + 30
            while queue.pending < 2 and time.monotonic() < give_up:
                time.sleep(0.005)
            after = queue.submit(fresh, k=1)
            gated.gate.set()
            adder.join(timeout=30)
            opener.result(timeout=30)
            before_d, before_i = before.result(timeout=30)
            after_d, after_i = after.result(timeout=30)
        assert before_i[0] != 10 and before_d[0] > 0
        assert (after_i[0], after_d[0]) == (10, 0.0)
        assert gated.calls == [1, 1, 1]

    def test_every_service_call_runs_on_the_flush_thread(self,
                                                          trajectories):
        """Concurrent knn, pairwise and add callers: the queue calls its
        service from its flush thread only, never from a caller's."""

        class Recording:
            def __init__(self, inner):
                self.inner, self.threads = inner, []

            def __len__(self):
                return len(self.inner)

            def knn(self, queries, k, exclude=None, dedupe_eps=None):
                self.threads.append(("knn", threading.get_ident()))
                return self.inner.knn(queries, k, exclude, dedupe_eps)

            def pairwise(self, queries, database=None):
                self.threads.append(("pairwise", threading.get_ident()))
                return self.inner.pairwise(queries, database)

            def add(self, trajectories):
                self.threads.append(("add", threading.get_ident()))
                return self.inner.add(trajectories)

        service = Recording(
            SimilarityService(backend="hausdorff").add(trajectories[:8]))
        errors = []
        with QueryQueue(service, max_batch=4) as queue:
            calls = [lambda: queue.knn(trajectories[:2], 3),
                     lambda: queue.pairwise(trajectories[:2]),
                     lambda: queue.add(trajectories[8:10])] * 4
            start = threading.Barrier(len(calls))

            def run(call):
                try:
                    start.wait(timeout=30)
                    call()
                except Exception as error:  # surfaced below
                    errors.append(error)

            callers = [threading.Thread(target=run, args=(call,))
                       for call in calls]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            flusher = queue._thread.ident
        assert errors == []
        assert {name for name, _ in service.threads} == {"knn", "pairwise",
                                                          "add"}
        assert {ident for _, ident in service.threads} == {flusher}
        assert len(service) == 8 + 4 * 2

    def test_close_serves_everything_it_accepted(self, single_service,
                                                 trajectories):
        gated = _GatedService(single_service)
        queue = QueryQueue(gated, max_batch=4)
        accepted = [_hold_flush_thread(queue, gated, trajectories[0])]
        closer = threading.Thread(target=queue.close)
        closer.start()
        with pytest.raises(RuntimeError, match="closed"):
            for _ in range(100_000):  # until close() has the condition
                accepted.append(queue.submit(trajectories[1], k=3))
        gated.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        for future in accepted:
            assert future.result(timeout=0)[1].shape == (3,)
        assert queue.queue_stats.queries == len(accepted)
        assert queue.pending == 0


class TestQueueWait:
    """The queue reports its own wait: flush start minus admission, per
    entry, as a sum and count in ``queue_stats`` and a histogram."""

    def test_a_held_flush_shows_up_as_wait(self, single_service,
                                           trajectories):
        gated = _GatedService(single_service)
        with QueryQueue(gated) as queue:
            opener = _hold_flush_thread(queue, gated, trajectories[0])
            caller = threading.Thread(
                target=queue.knn, args=(trajectories[1:3],), kwargs={"k": 3},
                daemon=True)
            caller.start()
            deadline = time.monotonic() + 30
            while queue.pending < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.060)  # both entries wait behind the held flush
            gated.gate.set()
            opener.result(timeout=30)
            caller.join(timeout=30)
            assert not caller.is_alive()
            stats = queue.queue_stats
            waits = queue.wait_histogram()
        assert stats.wait_count == waits.count == 3
        assert stats.wait_ms_sum == waits.sum >= 2 * 50.0
        assert sum(waits.counts[LATENCY_BUCKETS_MS.index(50.0) + 1:]) == 2

    def test_an_idle_queue_reports_about_no_wait(self, single_service,
                                                 trajectories):
        with QueryQueue(single_service) as queue:
            for query in trajectories[:20]:
                queue.knn([query], k=2)
            report = queue.stats()["queue"]
        assert report["wait_count"] == 20
        assert report["wait_ms_sum"] / report["wait_count"] < 5.0


class TestQueueAdmission:
    """Bounded admission (max_pending) and per-request deadlines."""

    def test_validation(self, single_service):
        with pytest.raises(ValueError, match="max_pending"):
            QueryQueue(single_service, max_pending=0)

    def test_queue_full_sheds_and_counts(self, single_service, trajectories):
        gated = _GatedService(single_service)
        with QueryQueue(gated, max_batch=1, max_wait=0.001,
                        max_pending=2) as queue:
            first = queue.submit(trajectories[0], k=2)
            # The flush thread is now parked inside the gated knn; anything
            # submitted from here on sits in the pending deque.
            assert gated.started.wait(timeout=30)
            second = queue.submit(trajectories[1], k=2)
            third = queue.submit(trajectories[2], k=2)
            with pytest.raises(QueueFullError, match="full"):
                queue.submit(trajectories[3], k=2)
            assert queue.pending == 2
            gated.gate.set()
            for future in (first, second, third):
                distances, ids = future.result(timeout=30)
                assert ids.shape == (2,)
            stats = queue.queue_stats
        assert stats.rejected == 1
        assert stats.queries == 3

    def test_a_knn_batch_is_admitted_whole_or_not_at_all(self,
                                                          single_service,
                                                          trajectories):
        gated = _GatedService(single_service)
        with QueryQueue(gated, max_batch=1, max_pending=2) as queue:
            with pytest.raises(ValueError, match="max_pending=2"):
                queue.knn(trajectories[:3], k=2)  # could never fit
            opener = _hold_flush_thread(queue, gated, trajectories[0])
            waiting = queue.submit(trajectories[1], k=2)
            with pytest.raises(QueueFullError, match="full"):
                queue.knn(trajectories[:2], k=2)  # one slot left, two asked
            assert queue.pending == 1  # nothing of the refused batch queued
            gated.gate.set()
            opener.result(timeout=30)
            waiting.result(timeout=30)
            distances, ids = queue.knn(trajectories[:2], k=2)
        assert ids.shape == (2, 2)
        assert queue.queue_stats.rejected == 1

    def test_an_add_already_running_is_waited_out_past_its_deadline(
            self, trajectories):
        """The deadline lapses while the service adds: the add cannot be
        withdrawn, so the caller gets its size, not a deadline error."""
        import time

        class SlowAdd:
            def __init__(self, inner):
                self.inner, self.started = inner, threading.Event()

            def __len__(self):
                return len(self.inner)

            def add(self, trajectories):
                self.started.set()
                time.sleep(0.2)
                return self.inner.add(trajectories)

        service = SlowAdd(
            SimilarityService(backend="hausdorff").add(trajectories[:4]))
        with QueryQueue(service) as queue:
            size = queue.add(trajectories[4:6],
                             deadline=time.monotonic() + 0.05)
        assert service.started.is_set()
        assert size == len(service) == 6
        assert queue.queue_stats.expired == 0

    def test_expired_deadline_fails_future(self, single_service,
                                           trajectories):
        import time

        with QueryQueue(single_service, max_wait=0.01) as queue:
            expired = queue.submit(trajectories[0], k=2,
                                   deadline=time.monotonic() - 1.0)
            alive = queue.submit(trajectories[1], k=2,
                                 deadline=time.monotonic() + 30.0)
            with pytest.raises(DeadlineExceededError, match="deadline"):
                expired.result(timeout=30)
            distances, ids = alive.result(timeout=30)
            assert ids.shape == (2,)
            stats = queue.queue_stats
        assert stats.expired == 1
        # The expired entry never reached the service.
        assert stats.queries == 1

    def test_expired_pairwise_deadline(self, single_service, trajectories):
        import time

        with QueryQueue(single_service, max_wait=0.01) as queue:
            future = queue.submit_pairwise(trajectories[0],
                                           deadline=time.monotonic() - 1.0)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
        assert queue.queue_stats.expired == 1

    def test_add_does_not_wait_out_the_batching_window(self, trajectories):
        import time

        service = SimilarityService(backend="hausdorff").add(trajectories[:4])
        with QueryQueue(service, max_wait=10.0) as queue:
            start = time.monotonic()
            assert queue.add(trajectories[4:7]) == len(queue) == 7
            assert time.monotonic() - start < 5.0
        assert service.knn(trajectories[5], k=1)[1][0, 0] == 5

    def test_counters_surface_in_stats(self, single_service, trajectories):
        with QueryQueue(single_service, max_wait=0.01,
                        max_pending=8) as queue:
            queue.knn(trajectories[0], k=2)
            report = queue.stats()["queue"]
        assert {"queries", "batches", "largest_batch", "rejected",
                "expired", "wait_ms_sum", "wait_count",
                "pending"} <= set(report)
        assert report["rejected"] == 0
        assert report["expired"] == 0
        assert report["pending"] == 0


class TestUnifiedStats:
    """Every serving layer answers stats() on one shared key set, so
    cluster/fleet health reporting never special-cases a layer."""

    COMMON_KEYS = {"type", "backend", "index", "size", "cache"}

    def test_single_sharded_and_queue_share_the_shape(self, single_service,
                                                      sharded_service,
                                                      trajectories):
        with QueryQueue(single_service, max_wait=0.01) as queue:
            queue.knn(trajectories[0], k=2)
            reports = {
                "single": single_service.stats(),
                "sharded": sharded_service.stats(),
                "queue": queue.stats(),
            }
        for label, stats in reports.items():
            assert self.COMMON_KEYS <= set(stats), label
            assert stats["backend"] == "trajcl", label
            assert stats["size"] == len(trajectories), label
            assert set(stats["cache"]) == {"hits", "misses", "size",
                                           "maxsize"}, label
        assert reports["queue"]["queue"]["queries"] == 1
        # The sharded breakdown covers the whole database.
        shards = reports["sharded"]["shards"]
        assert len(shards) == 3
        assert sum(entry["size"] for entry in shards) == len(trajectories)
        assert reports["sharded"]["cache"]["misses"] > 0

    def test_remote_client_relays_the_shape(self, single_service,
                                            trajectories):
        from repro.api import RemoteSimilarityClient, SimilarityServer

        with SimilarityServer(single_service) as server:
            with RemoteSimilarityClient(*server.address) as client:
                stats = client.stats()
        assert self.COMMON_KEYS <= set(stats)
        assert stats["requests"] >= 1
        assert stats["size"] == len(trajectories)

    test_stats_probe_does_not_desync_in_flight_queries = staticmethod(
        laws.stats_probe_does_not_desync_in_flight_queries)


class TestStatsLockScope:
    """Regression tests for an unlocked id-bookkeeping commit, the kind
    the guarded-writes law (tests/test_lock_discipline.py) now fails:
    add() used to extend _shard_ids and bump _size outside any lock, so a
    concurrent stats() probe could observe shard_sizes summing to
    something other than size."""

    test_stats_never_observes_a_half_committed_add = staticmethod(
        laws.stats_never_observes_a_half_committed_add)
    test_shard_sizes_snapshot_is_atomic = staticmethod(
        laws.shard_sizes_snapshot_is_atomic)
