"""Tests for the HTTP/JSON gateway: JSON round-trip parity with the
wrapped service, traffic controls (rate limiting, shedding, deadlines),
input validation, and the Prometheus metrics exposition."""

import json
import re
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import QueryQueue, SimilarityService
from repro.api.gateway import (
    ROUTES,
    LatencyHistogram,
    SimilarityGateway,
    TokenBucketLimiter,
)

from ..trajectory.test_trajectory import bad_batches, first_error
from .test_registry import make_trajectories


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def request(gateway, path, body=None, headers=None, method=None):
    """One HTTP request; returns (status, headers, raw body) and never
    raises on 4xx/5xx so tests can assert on error replies."""
    data = None
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(gateway.url + path, data=data,
                                 headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, dict(error.headers), error.read()


def request_json(gateway, path, body=None, headers=None, method=None):
    status, reply_headers, raw = request(gateway, path, body, headers, method)
    return status, reply_headers, json.loads(raw)


def as_lists(trajectories):
    return [np.asarray(t).tolist() for t in trajectories]


def wait_until(condition, timeout=30.0):
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.005)


def fronts(service):
    """``service`` as a gateway may be handed it: directly, behind one
    queue and behind two. A health report must read the same through
    each; the queues close once the caller has seen all three."""
    with QueryQueue(service) as once, QueryQueue(once) as twice:
        yield from (service, once, twice)


class _SlowService:
    """Delays every knn so deadline plumbing is observable."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def __len__(self):
        return len(self.inner)

    def knn(self, queries, k, exclude=None, dedupe_eps=None):
        time.sleep(self.delay)
        return self.inner.knn(queries, k=k, exclude=exclude,
                              dedupe_eps=dedupe_eps)


class _GatedService:
    """Blocks knn until released — parks the queue's flush thread on
    demand, so what waits behind it is deterministic."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.gate = threading.Event()
        self.calls = 0

    def __len__(self):
        return len(self.inner)

    def add(self, trajectories):
        return self.inner.add(trajectories)

    def knn(self, queries, k, exclude=None, dedupe_eps=None):
        self.calls += 1
        self.started.set()
        assert self.gate.wait(timeout=30)
        return self.inner.knn(queries, k=k, exclude=exclude,
                              dedupe_eps=dedupe_eps)

    def pairwise(self, queries, database=None):
        return self.inner.pairwise(queries, database)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=16, seed=3)


@pytest.fixture(scope="module")
def service(trajectories):
    return SimilarityService(backend="hausdorff").add(trajectories)


@pytest.fixture()
def gateway(service):
    with SimilarityGateway(service) as gw:
        yield gw


# ----------------------------------------------------------------------
# JSON round-trip parity
# ----------------------------------------------------------------------
class TestRoutes:
    def test_knn_matches_local_service(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/knn",
            {"queries": as_lists(trajectories[:3]), "k": 4})
        assert status == 200
        expected_d, expected_i = service.knn(trajectories[:3], k=4)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
        assert reply["k"] == 4

    def test_knn_exclude_and_dedupe(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/knn",
            {"queries": as_lists(trajectories[2:3]), "k": 3, "exclude": 2,
             "dedupe_eps": 1e-9})
        assert status == 200
        expected_d, expected_i = service.knn(trajectories[2], k=3, exclude=2,
                                             dedupe_eps=1e-9)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
        assert 2 not in reply["ids"][0]

    def test_single_trajectory_body(self, gateway, service, trajectories):
        # A bare [[x, y], ...] list (not wrapped in a batch) is one query.
        status, _, reply = request_json(
            gateway, "/knn",
            {"queries": np.asarray(trajectories[0]).tolist(), "k": 2})
        assert status == 200
        assert np.asarray(reply["ids"]).shape == (1, 2)

    def test_default_k(self, gateway, trajectories):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": as_lists(trajectories[:1])})
        assert status == 200
        assert reply["k"] == 10

    def test_pairwise_matches_local_service(self, gateway, service,
                                            trajectories):
        status, _, reply = request_json(
            gateway, "/pairwise", {"queries": as_lists(trajectories[:2])})
        assert status == 200
        np.testing.assert_allclose(np.asarray(reply["distances"]),
                                   service.pairwise(trajectories[:2]))

    def test_pairwise_explicit_database(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/pairwise",
            {"queries": as_lists(trajectories[:2]),
             "database": as_lists(trajectories[5:8])})
        assert status == 200
        np.testing.assert_allclose(
            np.asarray(reply["distances"]),
            service.pairwise(trajectories[:2], trajectories[5:8]))

    def test_add_grows_the_database(self, trajectories):
        own = SimilarityService(backend="hausdorff").add(trajectories[:10])
        with SimilarityGateway(own) as gw:
            status, _, reply = request_json(
                gw, "/add", {"trajectories": as_lists(trajectories[10:13])})
            assert status == 200
            assert reply == {"size": 13, "added": 3}
            status, _, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[12:13]),
                             "k": 1})
        assert reply["ids"][0][0] == 12

    def test_stats_reports_service_and_gateway(self, gateway, trajectories):
        request_json(gateway, "/knn",
                     {"queries": as_lists(trajectories[:1]), "k": 2})
        status, _, stats = request_json(gateway, "/stats")
        assert status == 200
        assert stats["backend"] == "hausdorff"
        assert stats["size"] == len(trajectories)
        gw_stats = stats["gateway"]
        assert gw_stats["requests_total"] >= 1
        assert {"qps", "shed_total", "ratelimited_total",
                "deadline_expired_total"} <= set(gw_stats)

    def test_healthz_ok(self, gateway, trajectories):
        status, _, reply = request_json(gateway, "/healthz")
        assert status == 200
        assert reply["status"] == "ok"
        assert reply["size"] == len(trajectories)

    def test_index_lists_routes(self, gateway):
        status, _, reply = request_json(gateway, "/")
        assert status == 200
        assert "/knn" in reply["routes"]["POST"]
        assert reply["routes"] == {
            method: [path for path in paths if path != "/"]
            for method, paths in ROUTES.items()}

    def test_every_route_refuses_the_other_method(self, gateway):
        for method, paths in ROUTES.items():
            other = "POST" if method == "GET" else "GET"
            for path in paths:
                status, headers, reply = request_json(
                    gateway, path, {} if other == "POST" else None,
                    method=other)
                assert status == 405, path
                assert headers["Allow"] == method
                assert reply["error"] == f"{path} requires {method}"
        text = request(gateway, "/metrics")[2].decode()
        for path in ("/", "/knn", "/stats"):  # each route its own label
            assert f'route="{path}",status="405"' in text

    def test_unknown_route_404(self, gateway):
        status, _, reply = request_json(gateway, "/nope", {"x": 1})
        assert status == 404
        assert "no such route" in reply["error"]

    def test_method_mismatch_405(self, gateway, trajectories):
        status, headers, _ = request_json(gateway, "/knn")  # GET
        assert status == 405
        assert headers["Allow"] == "POST"
        status, headers, _ = request_json(gateway, "/stats", {"x": 1})  # POST
        assert status == 405
        assert headers["Allow"] == "GET"


class TestValidation:
    def test_malformed_json_400(self, gateway):
        status, _, reply = request_json(gateway, "/knn", b"{not json")
        assert status == 400
        assert "malformed JSON" in reply["error"]

    def test_non_object_body_400(self, gateway):
        status, _, reply = request_json(gateway, "/knn", b"[1, 2, 3]")
        assert status == 400
        assert "must be an object" in reply["error"]

    def test_missing_queries_400(self, gateway):
        status, _, reply = request_json(gateway, "/knn", {"k": 3})
        assert status == 400
        assert "'queries'" in reply["error"]

    def test_non_numeric_points_400(self, gateway):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": [[["a", "b"]]], "k": 2})
        assert status == 400

    def test_bad_shape_400(self, gateway):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": [[[1, 2, 3]]], "k": 2})
        assert status == 400
        assert "shape" in reply["error"]

    def test_non_finite_points_400(self, gateway):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": [[[1, float("nan")]]], "k": 2})
        assert status == 400
        assert "non-finite" in reply["error"]

    def test_k_past_the_database_is_a_400_before_any_allocation(
            self, gateway, trajectories):
        # k sizes the (N, k) answer and every shard's fetch: an unbounded
        # k is memory the caller chooses, so it never reaches the service
        body = {"queries": as_lists(trajectories[:1]), "k": 10 ** 6}
        tracemalloc.start()
        try:
            status, _, reply = request_json(gateway, "/knn", body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 400
        assert f"database size ({len(trajectories)})" in reply["error"]
        assert peak < 4 * 2 ** 20  # the answer alone would be 16 MB

    def test_knn_on_an_empty_database_is_a_400_and_logs_nothing(
            self, trajectories, caplog):
        empty = SimilarityService(backend="hausdorff")
        with caplog.at_level("DEBUG", logger="repro.api.gateway"):
            with SimilarityGateway(empty) as gw:
                status, _, reply = request_json(
                    gw, "/knn", {"queries": as_lists(trajectories[:1]),
                                 "k": 1})
        assert status == 400
        assert "database size (0)" in reply["error"]
        assert [record for record in caplog.records
                if record.name == "repro.api.gateway"] == []

    def test_k_equal_to_the_database_size_answers(self, gateway, service,
                                                  trajectories):
        k = len(trajectories)
        status, _, reply = request_json(
            gateway, "/knn", {"queries": as_lists(trajectories[:2]), "k": k})
        assert status == 200
        _, expected_i = service.knn(trajectories[:2], k=k)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)

    @pytest.mark.parametrize("name", sorted(bad_batches()))
    def test_bad_chunk_is_a_400_naming_its_first_bad_item(self, trajectories,
                                                          name):
        batch = bad_batches(max_len=16, good=trajectories[:6])[name]
        position = next(i for i in range(len(batch))
                        if first_error(batch[i:i + 1]) is not None)
        body = [item if isinstance(item, list) else item.tolist()
                for item in batch]
        own = SimilarityService(backend="hausdorff").add(trajectories[:10])
        with SimilarityGateway(own) as gw:
            for path, field in (("/add", "trajectories"),
                                ("/knn", "queries")):
                status, _, reply = request_json(gw, path, {field: body})
                assert status == 400
                assert f"'{field}'[{position}]" in reply["error"]
        assert len(own) == 10           # nothing of the chunk was stored

    @pytest.mark.parametrize("coordinate", ["1", True],
                             ids=["string", "boolean"])
    @pytest.mark.parametrize("path, field", [("/add", "trajectories"),
                                             ("/knn", "queries")])
    def test_only_json_numbers_are_coordinates(self, trajectories, path,
                                               field, coordinate):
        # numpy reads "1" as 1.0 and True as 1.0; JSON says neither is a
        # number
        batch = as_lists(trajectories[:3])
        batch[1][0][1] = coordinate
        own = SimilarityService(backend="hausdorff").add(trajectories[:10])
        with SimilarityGateway(own) as gw:
            # in a batch, and as a single trajectory
            for body, position in ((batch, 1), (batch[1], 0)):
                status, _, reply = request_json(gw, path, {field: body})
                assert status == 400
                assert f"'{field}'[{position}]" in reply["error"]
        assert len(own) == 10

    def test_bad_k_400(self, gateway, trajectories):
        for bad_k in (0, "three"):
            status, _, reply = request_json(
                gateway, "/knn",
                {"queries": as_lists(trajectories[:1]), "k": bad_k})
            assert status == 400

    def test_oversized_body_413(self, service, trajectories):
        with SimilarityGateway(service, max_body=256) as gw:
            status, _, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[:8]), "k": 2})
            assert status == 413
            assert "exceeds" in reply["error"]
            # The gateway must stay usable for well-sized requests.
            status, _, _ = request_json(gw, "/healthz")
            assert status == 200

    def test_missing_content_length_411(self, gateway):
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(b"POST /knn HTTP/1.1\r\nHost: t\r\n\r\n")
            reply = sock.recv(4096)
        assert b"411" in reply.split(b"\r\n", 1)[0]

    def test_bad_deadline_header_400(self, gateway, trajectories):
        for bad in ("soon", "-5"):
            status, _, reply = request_json(
                gateway, "/knn",
                {"queries": as_lists(trajectories[:1]), "k": 2},
                headers={"X-Deadline-Ms": bad})
            assert status == 400
            assert "X-Deadline-Ms" in reply["error"]


# ----------------------------------------------------------------------
# Traffic controls
# ----------------------------------------------------------------------
class TestTrafficControls:
    def test_flood_sheds_with_429_and_correct_survivors(self, service,
                                                        trajectories):
        # One request parks the flush thread inside the service and
        # max_pending more wait behind it: every request past them is
        # shed at once, and the ones admitted still answer right.
        gated = _GatedService(service)
        body = {"queries": as_lists(trajectories[:1]), "k": 3}
        expected_d, expected_i = service.knn(trajectories[0], k=3)
        outcomes = []
        with QueryQueue(gated, max_batch=1, max_pending=2) as queue:
            with SimilarityGateway(queue) as gw:
                admitted = [threading.Thread(target=lambda: outcomes.append(
                    request_json(gw, "/knn", body))) for _ in range(3)]
                admitted[0].start()
                assert gated.started.wait(timeout=30)
                for holder in admitted[1:]:
                    holder.start()
                wait_until(lambda: queue.pending == 2)
                shed = [request_json(gw, "/knn", body) for _ in range(4)]
                gated.gate.set()
                for holder in admitted:
                    holder.join(timeout=30)
                    assert not holder.is_alive()
                _, _, metrics = request(gw, "/metrics")
                gw_stats = request_json(gw, "/stats")[2]["gateway"]
        for status, headers, reply in shed:
            assert status == 429
            assert "Retry-After" in headers
            assert "full" in reply["error"]
        assert len(outcomes) == len(admitted)
        for status, _, reply in outcomes:
            assert status == 200
            np.testing.assert_array_equal(np.asarray(reply["ids"]),
                                          expected_i)
        assert b"repro_gateway_shed_total 4" in metrics
        assert b"repro_gateway_ratelimited_total 0" in metrics
        assert gw_stats["shed_total"] == 4
        assert queue.queue_stats.rejected == 4

    def test_add_waits_in_the_queue_like_a_query(self, trajectories):
        """With the flush thread parked, an ``/add`` whose deadline lapses
        in the queue is a 504 and changes nothing, and one that finds the
        queue full is a 429; once the line moves, an add lands."""
        gated = _GatedService(
            SimilarityService(backend="hausdorff").add(trajectories[:10]))
        query = {"queries": as_lists(trajectories[:1]), "k": 2}
        add = {"trajectories": as_lists(trajectories[10:12])}
        with QueryQueue(gated, max_batch=1, max_pending=1) as queue:
            with SimilarityGateway(queue) as gw:
                parked = threading.Thread(target=request_json,
                                          args=(gw, "/knn", query))
                parked.start()
                assert gated.started.wait(timeout=30)
                status, _, reply = request_json(
                    gw, "/add", add, headers={"X-Deadline-Ms": "20"})
                assert status == 504
                assert "deadline" in reply["error"]
                assert queue.pending == 1  # the lapsed add holds the slot
                status, headers, reply = request_json(gw, "/add", add)
                assert status == 429
                assert "Retry-After" in headers
                assert "full" in reply["error"]
                gated.gate.set()
                parked.join(timeout=30)
                wait_until(lambda: queue.pending == 0)
                assert len(gated) == 10
                status, _, reply = request_json(gw, "/add", add)
                assert (status, reply) == (200, {"size": 12, "added": 2})
                gw_stats = request_json(gw, "/stats")[2]["gateway"]
        assert queue.queue_stats.expired == 1
        assert queue.queue_stats.rejected == 1
        assert gw_stats["deadline_expired_total"] == 1
        assert gw_stats["shed_total"] == 1

    def test_add_running_past_its_deadline_answers_200(self, trajectories):
        """An ``/add`` the flush thread has started cannot be withdrawn:
        the caller hears that it landed, never a 504 it would retry."""

        class SlowAdd:
            def __init__(self, inner):
                self.inner = inner

            def __len__(self):
                return len(self.inner)

            def add(self, trajectories):
                time.sleep(0.2)
                return self.inner.add(trajectories)

        service = SlowAdd(
            SimilarityService(backend="hausdorff").add(trajectories[:10]))
        add = {"trajectories": as_lists(trajectories[10:12])}
        with SimilarityGateway(service) as gw:
            status, _, reply = request_json(
                gw, "/add", add, headers={"X-Deadline-Ms": "50"})
            gw_stats = request_json(gw, "/stats")[2]["gateway"]
        assert (status, reply) == (200, {"size": 12, "added": 2})
        assert len(service) == 12
        assert gw_stats["deadline_expired_total"] == 0

    def test_more_queries_than_the_queue_holds_is_413(self, service,
                                                      trajectories):
        body = {"queries": as_lists(trajectories[:3]), "k": 2}
        with QueryQueue(service, max_pending=2) as queue:
            with SimilarityGateway(queue) as gw:
                status, headers, reply = request_json(gw, "/knn", body)
                assert status == 413
                assert "Retry-After" not in headers
                assert "split the request" in reply["error"]
                body["queries"] = body["queries"][:2]
                assert request_json(gw, "/knn", body)[0] == 200
        assert queue.queue_stats.rejected == 0

    def test_rate_limit_isolates_clients(self, service, trajectories):
        body = {"queries": as_lists(trajectories[:1]), "k": 2}
        with SimilarityGateway(service, rate_limit=0.001, burst=1) as gw:
            status, _, _ = request_json(gw, "/knn", body,
                                        headers={"X-Api-Key": "alice"})
            assert status == 200
            status, headers, reply = request_json(
                gw, "/knn", body, headers={"X-Api-Key": "alice"})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "rate limit" in reply["error"]
            # A different client still has a full bucket.
            status, _, _ = request_json(gw, "/knn", body,
                                        headers={"X-Api-Key": "bob"})
            assert status == 200
            # GET routes are never rate limited.
            status, _, _ = request_json(gw, "/healthz",
                                        headers={"X-Api-Key": "alice"})
            assert status == 200
            _, _, metrics = request(gw, "/metrics")
        assert b"repro_gateway_ratelimited_total 1" in metrics

    def test_deadline_expiry_direct_service_504(self, service, trajectories):
        slow = _SlowService(service, delay=0.15)
        with SimilarityGateway(slow) as gw:
            status, _, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[:1]), "k": 2},
                headers={"X-Deadline-Ms": "30"})
            assert status == 504
            assert "deadline" in reply["error"]
            _, _, metrics = request(gw, "/metrics")
        assert b"repro_gateway_deadline_expired_total 1" in metrics

    def test_deadline_expiry_through_query_queue_504(self, service,
                                                     trajectories):
        # The flush thread is held inside the service by an earlier
        # request: the entry behind it expires while queued, so the flush
        # thread drops it without a service call.
        gated = _GatedService(service)
        body = {"queries": as_lists(trajectories[:1]), "k": 2}
        outcomes = []
        with QueryQueue(gated, max_batch=64, max_wait=0.25) as queue:
            with SimilarityGateway(queue) as gw:
                opener = threading.Thread(
                    target=request_json, args=(gw, "/knn", body))
                opener.start()
                assert gated.started.wait(timeout=30)
                late = threading.Thread(target=lambda: outcomes.append(
                    request_json(gw, "/knn", body,
                                 headers={"X-Deadline-Ms": "20"})))
                late.start()
                give_up = time.monotonic() + 30
                while queue.pending < 1 and time.monotonic() < give_up:
                    time.sleep(0.005)
                time.sleep(0.05)  # the 20 ms budget lapses in the queue
                gated.gate.set()
                opener.join(timeout=30)
                late.join(timeout=30)
                status, _, reply = outcomes[0]
                assert status == 504
                assert "deadline" in reply["error"]
            assert queue.queue_stats.expired == 1
        assert gated.calls == 1  # the opener's; the expired entry made none

    def test_generous_deadline_succeeds(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": as_lists(trajectories[:1]), "k": 2},
            headers={"X-Deadline-Ms": "30000"})
        assert status == 200
        _, expected_i = service.knn(trajectories[0], k=2)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)


class TestQueueIntegration:
    def test_knn_parity_through_queue(self, service, trajectories):
        body = {"queries": as_lists(trajectories[:4]), "k": 3, "exclude": 1}
        with QueryQueue(service, max_batch=16, max_wait=0.01) as queue:
            with SimilarityGateway(queue) as gw:
                status, _, reply = request_json(gw, "/knn", body)
                assert status == 200
                stats = request_json(gw, "/stats")[2]
        expected_d, expected_i = service.knn(trajectories[:4], k=3, exclude=1)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
        assert stats["queue"]["queries"] == 4  # fed query by query

    def test_pairwise_and_full_queue_shed(self, service, trajectories):
        gated = _GatedService(service)
        body = {"queries": as_lists(trajectories[:1]), "k": 2}
        with QueryQueue(gated, max_batch=1, max_wait=0.001,
                        max_pending=1) as queue:
            with SimilarityGateway(queue) as gw:
                matrix = request_json(
                    gw, "/pairwise",
                    {"queries": as_lists(trajectories[:2])})[2]
                opener = threading.Thread(
                    target=request_json, args=(gw, "/knn", body))
                opener.start()
                assert gated.started.wait(timeout=30)
                filler = threading.Thread(
                    target=request_json, args=(gw, "/knn", body))
                filler.start()
                deadline = time.monotonic() + 30
                while (queue.pending < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                # Flush thread busy + one pending: the next request hits
                # QueueFullError and the gateway sheds it as 429.
                status, headers, reply = request_json(gw, "/knn", body)
                assert status == 429
                assert "Retry-After" in headers
                assert "full" in reply["error"]
                gated.gate.set()
                opener.join(timeout=30)
                filler.join(timeout=30)
        np.testing.assert_allclose(np.asarray(matrix["distances"]),
                                   service.pairwise(trajectories[:2]))


    def test_add_and_knn_never_overlap_inside_the_service(self, trajectories):
        """``/add`` goes through the queue, between two flushes: a
        thread-oblivious service behind ``serve-http`` never has its index
        and cache mutated while a flush is inside ``knn``."""

        class OneAtATime:
            """An embedding model that notices a second caller inside."""

            output_dim = 2

            def __init__(self):
                self.inside = self.overlaps = 0
                self.lock = threading.Lock()

            def encode(self, batch):
                with self.lock:
                    self.inside += 1
                    self.overlaps += self.inside > 1
                time.sleep(0.004)
                with self.lock:
                    self.inside -= 1
                return np.stack([np.asarray(t)[[0, -1], 0] for t in batch])

        model = OneAtATime()
        service = SimilarityService(backend=model).add(trajectories[:4])
        statuses = []

        def post(path, key, shift):
            for step in range(6):  # fresh content: every call must encode
                moved = [t + shift + step for t in trajectories[:2]]
                statuses.append(request_json(
                    gw, path, {key: as_lists(moved), "k": 1})[0])

        with QueryQueue(service, max_batch=8, max_wait=0.002) as queue:
            with SimilarityGateway(queue) as gw:
                threads = [threading.Thread(target=post, args=arguments)
                           for arguments in (("/add", "trajectories", 1e3),
                                             ("/add", "trajectories", 2e3),
                                             ("/knn", "queries", 3e3),
                                             ("/knn", "queries", 4e3))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                size = request_json(gw, "/stats")[2]["size"]
        assert statuses == [200] * 24
        assert size == len(service) == 4 + 2 * 6 * 2
        assert model.overlaps == 0


class TestInternalErrors:
    def test_500_names_an_incident_and_keeps_the_stack_in_the_log(
            self, service, trajectories, caplog):
        class Broken:
            def __len__(self):
                return len(service)

            def knn(self, queries, k, exclude=None, dedupe_eps=None):
                raise RuntimeError("index file /srv/secret/path.bin is gone")

        with caplog.at_level("ERROR", logger="repro.api.gateway"):
            with SimilarityGateway(Broken()) as gw:
                status, _, raw = request(
                    gw, "/knn", {"queries": as_lists(trajectories[:1])})
                _, _, metrics = request(gw, "/metrics")
        assert status == 500
        reply = json.loads(raw)
        assert set(reply) == {"error", "id"}
        assert reply["error"] == "internal error"
        assert re.fullmatch(r"[0-9a-f]{16}", reply["id"])
        for leak in (b"Traceback", b"/srv/secret", b".py", b"RuntimeError"):
            assert leak not in raw
        (record,) = caplog.records
        assert record.name == "repro.api.gateway"
        assert reply["id"] in record.getMessage()
        assert "Traceback" in caplog.text and "/srv/secret" in caplog.text
        assert b'route="/knn",status="500"} 1' in metrics


# ----------------------------------------------------------------------
# The edge's transport: one segment per reply, no Nagle stall
# ----------------------------------------------------------------------
def read_reply(sock):
    """One raw HTTP reply (head + Content-Length body) off a socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "gateway hung up mid-reply"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += sock.recv(65536)
    return head + b"\r\n\r\n" + body


class _TappedSocket:
    """The accepted socket with every outgoing write recorded."""

    def __init__(self, sock, writes):
        self._sock, self._writes = sock, writes

    def sendall(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def send(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.send(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def tapped(service):
    """A gateway whose accepted connections are tapped: yields
    ``(gateway, accepted sockets, writes)``."""
    with SimilarityGateway(service) as gw:
        accepted, writes = [], []
        accept = gw._httpd.get_request

        def tapping_accept():
            sock, peer = accept()
            accepted.append(sock)
            return _TappedSocket(sock, writes), peer

        gw._httpd.get_request = tapping_accept
        yield gw, accepted, writes


#: what the gateway put on the wire before replies became one write
#: (Server / Date values vary by interpreter and second)
PARENT_REPLIES = {
    b"GET / HTTP/1.1\r\nHost: x\r\n\r\n":
        b'HTTP/1.1 200 OK\r\nServer: *\r\nDate: *\r\n'
        b'Content-Type: application/json\r\nContent-Length: 94\r\n\r\n'
        b'{"routes": {"POST": ["/knn", "/pairwise", "/add"], '
        b'"GET": ["/stats", "/healthz", "/metrics"]}}',
    b"GET /knn HTTP/1.1\r\nHost: x\r\n\r\n":
        b'HTTP/1.1 405 Method Not Allowed\r\nServer: *\r\nDate: *\r\n'
        b'Content-Type: application/json\r\nContent-Length: 31\r\n'
        b'Allow: POST\r\n\r\n{"error": "/knn requires POST"}',
    b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n":
        b'HTTP/1.1 404 Not Found\r\nServer: *\r\nDate: *\r\n'
        b'Content-Type: application/json\r\nContent-Length: 33\r\n\r\n'
        b'{"error": "no such route: /nope"}',
    b'POST /knn HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}':
        b'HTTP/1.1 400 Bad Request\r\nServer: *\r\nDate: *\r\n'
        b'Content-Type: application/json\r\nContent-Length: 91\r\n\r\n'
        b'{"error": "\'queries\' must be a non-empty list of trajectories '
        b'([[x, y], ...] point lists)"}',
}


class TestEdgeTransport:
    def test_a_reply_is_one_write_of_the_same_bytes(self, tapped):
        gw, _, writes = tapped
        with socket.create_connection(gw.address, timeout=30) as sock:
            for sent, expected in PARENT_REPLIES.items():
                del writes[:]
                sock.sendall(sent)
                reply = read_reply(sock)
                assert writes == [reply]  # head and body left together
                assert re.sub(rb"(?m)^(Server|Date): [^\r]*", rb"\1: *",
                              reply) == expected
            assert re.search(rb"\r\nServer: BaseHTTP/\S+ Python/\S+"
                             rb"\r\nDate: \w{3}, \d\d \w{3} \d{4} "
                             rb"\d\d:\d\d:\d\d GMT\r\n", reply)

    def test_a_large_reply_is_still_one_write(self, tapped, trajectories):
        gw, _, writes = tapped
        body = json.dumps({"queries": as_lists(trajectories) * 40,
                           "k": 16}).encode()
        with socket.create_connection(gw.address, timeout=30) as sock:
            sock.sendall(b"POST /knn HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            reply = read_reply(sock)
        assert len(reply) > 64 << 10
        assert writes == [reply]

    def test_accepted_connection_has_nagle_off(self, tapped):
        gw, accepted, _ = tapped
        with socket.create_connection(gw.address, timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            read_reply(sock)
            (server_end,) = accepted
            assert server_end.getsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY) == 1

    def test_keep_alive_requests_do_not_wait_for_a_delayed_ack(self, gateway):
        # Head and body as two writes on a Nagle socket: the body waits
        # ~40 ms for the client's delayed ACK, on every request but the
        # first of a connection (the parent's median here reads ~44 ms).
        laps = []
        with socket.create_connection(gateway.address, timeout=30) as sock:
            for _ in range(30):
                start = time.perf_counter()
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert read_reply(sock).startswith(b"HTTP/1.1 200 OK")
                laps.append(time.perf_counter() - start)
        assert sorted(laps)[len(laps) // 2] < 0.010


# ----------------------------------------------------------------------
# Metrics and health
# ----------------------------------------------------------------------
METRIC_LINE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9.+eEInf]+$")


class TestMetrics:
    def test_exposition_format(self, gateway, trajectories):
        request_json(gateway, "/knn",
                     {"queries": as_lists(trajectories[:2]), "k": 3})
        request_json(gateway, "/healthz")
        status, headers, raw = request(gateway, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert METRIC_LINE.match(line), line
        for name in ("repro_gateway_requests_total",
                     "repro_gateway_request_latency_ms_bucket",
                     "repro_gateway_request_latency_ms_count",
                     "repro_gateway_latency_quantile_ms",
                     "repro_gateway_qps",
                     "repro_gateway_shed_total",
                     "repro_gateway_queue_depth",
                     "repro_gateway_cache_hit_rate",
                     "repro_gateway_database_size",
                     "repro_gateway_uptime_seconds"):
            assert name in text, name
        assert 'repro_gateway_requests_total{route="/knn",status="200"} 1' \
            in text
        assert f"repro_gateway_database_size {len(trajectories)}" in text
        assert 'le="+Inf"' in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert (f'repro_gateway_latency_quantile_ms{{route="/knn",'
                    f'quantile="{quantile}"}}') in text

    def test_histogram_buckets_are_cumulative(self, gateway, trajectories):
        for _ in range(5):
            request_json(gateway, "/knn",
                         {"queries": as_lists(trajectories[:1]), "k": 2})
        text = request(gateway, "/metrics")[2].decode()
        buckets = [int(line.rsplit(" ", 1)[1])
                   for line in text.splitlines()
                   if line.startswith(
                       'repro_gateway_request_latency_ms_bucket'
                       '{route="/knn"')]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 5  # +Inf bucket counts everything

    def test_queue_metrics_surface(self, service, trajectories):
        with QueryQueue(service, max_wait=0.01) as queue:
            with SimilarityGateway(queue) as gw:
                request_json(gw, "/knn",
                             {"queries": as_lists(trajectories[:1]), "k": 2})
                text = request(gw, "/metrics")[2].decode()
        assert "repro_gateway_queue_depth 0" in text
        assert "repro_gateway_queue_rejected_total 0" in text
        assert "repro_gateway_queue_expired_total 0" in text
        # the one query's wait in the queue: one sample
        assert 'repro_gateway_queue_wait_ms_bucket{le="+Inf"} 1' in text
        assert "repro_gateway_queue_wait_ms_count 1" in text

    def test_healthz_degraded_503_and_shard_up(self):
        class DegradedService:
            def stats(self):
                return {"size": 40, "degraded": [1],
                        "shards": [{"shard": 0, "size": 20},
                                   {"shard": 1, "size": 20}]}

        for front in fronts(DegradedService()):
            with SimilarityGateway(front) as gw:
                status, _, reply = request_json(gw, "/healthz")
                assert status == 503
                assert reply["status"] == "degraded"
                assert reply["degraded"] == [1]
                text = request(gw, "/metrics")[2].decode()
            assert 'repro_gateway_shard_up{shard="0"} 1' in text
            assert 'repro_gateway_shard_up{shard="1"} 0' in text

    def test_healthz_replica_health_and_shard_replicas_metric(self):
        """A replicated cluster's stats surface per-shard replica rows in
        /healthz and a healthy-replica gauge in /metrics; an
        under-replicated (but fully served) cluster stays 200."""

        class ReplicatedService:
            def stats(self):
                return {
                    "size": 40, "degraded": [], "replication": 2,
                    "underreplicated": [1],
                    "shards": [
                        {"shard": 0, "size": 20, "alive": True,
                         "healthy_replicas": 2, "replicas": []},
                        {"shard": 1, "size": 20, "alive": True,
                         "healthy_replicas": 1, "replicas": []},
                    ],
                }

        for front in fronts(ReplicatedService()):
            with SimilarityGateway(front) as gw:
                status, _, reply = request_json(gw, "/healthz")
                assert status == 200
                assert reply["status"] == "underreplicated"
                assert reply["replication"] == 2
                assert reply["underreplicated"] == [1]
                assert reply["shards"] == [
                    {"shard": 0, "healthy_replicas": 2, "alive": True},
                    {"shard": 1, "healthy_replicas": 1, "alive": True}]
                text = request(gw, "/metrics")[2].decode()
            assert 'repro_gateway_shard_replicas{shard="0"} 2' in text
            assert 'repro_gateway_shard_replicas{shard="1"} 1' in text

    def test_shard_lost_maps_to_503(self, trajectories):
        from repro.api import ShardLostError

        class LostShardService:
            def __len__(self):
                return 40

            def stats(self):
                return {"size": 0, "degraded": [0]}

            def knn(self, queries, k, exclude=None, dedupe_eps=None):
                raise ShardLostError("shard 0 has no healthy replica")

        with SimilarityGateway(LostShardService()) as gw:
            status, headers, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[:1]), "k": 2})
        assert status == 503
        assert "no healthy replica" in reply["error"]
        assert headers.get("Retry-After") == "1"


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_max_requests_trips_shutdown(self, service, trajectories):
        gw = SimilarityGateway(service, max_requests=2)
        try:
            request_json(gw, "/healthz")
            request_json(gw, "/healthz")
            start = time.monotonic()
            gw.serve_forever(poll_interval=0.01)
            assert time.monotonic() - start < 10
            assert gw.closed
        finally:
            gw.close()

    def test_shutdown_refuses_new_requests(self, service):
        with SimilarityGateway(service) as gw:
            gw.shutdown()
            status, _, reply = request_json(gw, "/healthz")
            assert status == 503
            assert reply["status"] == "stopping"

    def test_close_is_idempotent(self, service):
        gw = SimilarityGateway(service)
        gw.close()
        gw.close()
        assert "closed" in repr(gw)


# ----------------------------------------------------------------------
# Traffic-control primitives in isolation
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_token_bucket_refills(self):
        limiter = TokenBucketLimiter(rate=10, burst=2)
        assert limiter.allow("a", now=0.0) == (True, 0.0)
        assert limiter.allow("a", now=0.0) == (True, 0.0)
        admitted, retry_after = limiter.allow("a", now=0.0)
        assert not admitted
        assert retry_after == pytest.approx(0.1)
        # Refill at 10/s: one token back after 0.1s.
        assert limiter.allow("a", now=0.11)[0]
        # Other keys are untouched by "a"'s spend.
        assert limiter.allow("b", now=0.11)[0]

    def test_token_bucket_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucketLimiter(rate=0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucketLimiter(rate=1, burst=0.2)

    def test_latency_histogram_percentiles(self):
        histogram = LatencyHistogram(bounds=(1.0, 10.0, 100.0))
        assert histogram.percentile(0.5) is None
        for value in (0.5, 5.0, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(60.5)
        p50 = histogram.percentile(0.5)
        assert 1.0 <= p50 <= 10.0
        assert histogram.percentile(1.0) == pytest.approx(100.0)
        histogram.observe(1e9)  # beyond the last bound: clamps, not crashes
        assert histogram.percentile(0.999) == pytest.approx(100.0)
