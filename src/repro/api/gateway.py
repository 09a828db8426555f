"""The production edge: an HTTP/JSON gateway over any kNN service.

Non-Python clients cannot speak the binary frame protocol of
:mod:`repro.api.transport`; this module gives the serving stack an
HTTP/1.1 front door with the traffic machinery heavy load needs. It is
stdlib-only (:mod:`http.server` with one thread per connection; a reply
is one ``sendall`` on a ``TCP_NODELAY`` socket, so a keep-alive client
never waits for a delayed ACK between head and body) and wraps
**any** :class:`~repro.api.protocols.KnnService` — a plain
:class:`~repro.api.service.SimilarityService`, a
:class:`~repro.api.serving.ShardedSimilarityService`, a
:class:`~repro.api.serving.QueryQueue`, a
:class:`~repro.api.remote.RemoteSimilarityClient`, or a
:class:`~repro.api.coordinator.ClusterCoordinator` — so one gateway can front
anything from a single process to a whole cluster.

Routes (JSON in, JSON out; trajectories are ``[[x, y], ...]`` lists):

* ``POST /knn``      — ``{"queries": [...], "k": 5, "exclude": null,
  "dedupe_eps": null}`` → ``{"distances": [[...]], "ids": [[...]]}``;
  a ``k`` past the database size (an empty database included) is a
  ``400``, and more queries than the queue's ``max_pending`` a ``413``;
* ``POST /pairwise`` — ``{"queries": [...], "database": [...]?}`` →
  ``{"distances": [[...]]}`` (``database`` defaults to the served one);
* ``POST /add``      — ``{"trajectories": [...]}`` → ``{"size": N}``;
* ``GET /stats``     — the unified ``stats()`` report plus gateway
  counters;
* ``GET /healthz``   — ``200`` when healthy, ``503`` when shutting down
  or when the wrapped service reports degraded shards;
* ``GET /metrics``   — Prometheus text format: request counts by
  route/status, latency histograms with p50/p95/p99 gauges, q/s, queue
  depth and a queue-wait histogram, cache hit rate, per-shard health.

Traffic controls, applied in order on the POST routes:

1. **rate limiting** — a token bucket per client (keyed by the
   ``X-Api-Key`` header, else the peer address); an empty bucket gets
   ``429`` with ``Retry-After``, and one client's flood never consumes
   another's budget;
2. **deadlines** — ``X-Deadline-Ms: 250`` bounds how long the caller
   will wait. The deadline propagates into the gateway's
   :class:`~repro.api.serving.QueryQueue`, so work whose caller has given
   up is dropped server-side (``504``) instead of computed for nobody —
   an ``/add`` answered ``504`` never ran, and so changed nothing;
3. **bounded admission** — every ``/knn``, ``/pairwise`` and ``/add``
   waits in that one queue, which holds at most ``max_pending`` requests;
   past that the request is shed at once with ``429`` + ``Retry-After``
   (:class:`~repro.api.serving.QueueFullError`) instead of queueing
   without bound.

An exception nothing above accounts for answers ``500`` with
``{"error": "internal error", "id": "<hex>"}``; the traceback is logged
to ``repro.api.gateway`` under the same id and never sent.

Quickstart::

    from repro.api import SimilarityService
    from repro.api.gateway import SimilarityGateway

    service = SimilarityService(backend="hausdorff").add(database)
    with SimilarityGateway(service, port=8080) as gateway:
        gateway.serve_forever()     # or: requests against gateway.address

or from the shell: ``python -m repro serve-http --data city.npz
--backend hausdorff --port 8080`` and then::

    curl -s localhost:8080/knn -d '{"queries": [[[0,0],[1,1]]], "k": 3}'
"""

from __future__ import annotations

import json
import logging
import math
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from .serving import (
    LATENCY_BUCKETS_MS, DeadlineExceededError, LatencyHistogram, QueryQueue,
    QueueFullError, ShardLostError,
)
from .transport import TransportError

__all__ = [
    "SimilarityGateway",
    "TokenBucketLimiter",
    "LatencyHistogram",
    "GatewayMetrics",
]

#: the library configures no handler: an application that wants the
#: stack of a 500 attaches one to this name.
_LOG = logging.getLogger("repro.api.gateway")

#: method -> path -> the :class:`SimilarityGateway` method answering it.
#: The 404 and 405 replies, the ``/`` listing and the metric route labels
#: all come from this table; metrics label any other path "other", so a
#: URL-scanning client cannot blow up label cardinality.
ROUTES = {
    "POST": {"/knn": "_post_knn", "/pairwise": "_post_pairwise",
             "/add": "_post_add"},
    "GET": {"/": "_get_index", "/stats": "_get_stats",
            "/healthz": "_get_healthz", "/metrics": "_get_metrics"},
}
_ROUTE_LABELS = frozenset(path for paths in ROUTES.values() for path in paths)


# ----------------------------------------------------------------------
# Traffic-control primitives
# ----------------------------------------------------------------------
class TokenBucketLimiter:
    """Per-client token buckets: ``rate`` requests/second, ``burst`` deep.

    Each client key owns an independent bucket, so one tenant's flood
    exhausts its own budget only. Buckets refill continuously; ``allow``
    returns ``(admitted, retry_after_seconds)``. Idle full buckets are
    pruned so a long-lived gateway does not accumulate one entry per
    client ever seen.
    """

    _PRUNE_ABOVE = 1024  # keys held before idle buckets are swept

    def __init__(self, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ValueError("rate must be > 0 requests/second")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.burst < 1:
            raise ValueError("burst must allow at least one request")
        self._buckets: Dict[str, List[float]] = {}  # key -> [tokens, stamp]
        self._lock = threading.Lock()

    def allow(self, key: str, now: Optional[float] = None) -> Tuple[bool, float]:
        now = time.monotonic() if now is None else now
        with self._lock:
            tokens, stamp = self._buckets.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + (now - stamp) * self.rate)
            if tokens >= 1.0:
                self._buckets[key] = [tokens - 1.0, now]
                admitted, retry_after = True, 0.0
            else:
                self._buckets[key] = [tokens, now]
                admitted, retry_after = False, (1.0 - tokens) / self.rate
            if len(self._buckets) > self._PRUNE_ABOVE:
                full_at = self.burst - 0.5
                self._buckets = {
                    k: bucket for k, bucket in self._buckets.items()
                    if k == key or bucket[0] < full_at
                }
            return admitted, retry_after


class GatewayMetrics:
    """Thread-safe request accounting behind ``/metrics``.

    Counters by ``(route, status)``, one latency histogram per route, and
    how many ``429`` replies were the rate limiter's (the shed and expired
    totals are read off the status counters). All reads go through
    :meth:`snapshot` so rendering never holds the lock across service
    calls.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests: Dict[Tuple[str, int], int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.ratelimited = 0   # token-bucket rejections (429)

    def observe(self, route: str, status: int, elapsed_ms: float,
                ratelimited: bool = False) -> None:
        route = route if route in _ROUTE_LABELS else "other"
        with self._lock:
            key = (route, int(status))
            self.requests[key] = self.requests.get(key, 0) + 1
            self.ratelimited += ratelimited
            histogram = self.latency.get(route)
            if histogram is None:
                histogram = self.latency[route] = LatencyHistogram()
            histogram.observe(elapsed_ms)

    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(self.requests.values())

    def snapshot(self) -> Dict:
        """A consistent copy for rendering (/stats and /metrics)."""
        with self._lock:
            uptime = max(time.monotonic() - self.started, 1e-9)
            total = sum(self.requests.values())

            def replied(status):
                return sum(count for (_, code), count
                           in self.requests.items() if code == status)

            return {
                "uptime_seconds": uptime,
                "requests_total": total,
                "qps": total / uptime,
                "requests": dict(self.requests),
                "latency": {route: (hist.counts[:], hist.count, hist.sum,
                                    hist.percentile(0.5), hist.percentile(0.95),
                                    hist.percentile(0.99))
                            for route, hist in self.latency.items()},
                "shed_total": replied(429) - self.ratelimited,
                "ratelimited_total": self.ratelimited,
                "deadline_expired_total": replied(504),
            }


# ----------------------------------------------------------------------
# JSON plumbing
# ----------------------------------------------------------------------
class _HttpError(Exception):
    """An error reply decided before (or instead of) a service call."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None,
                 close: bool = False, ratelimited: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.close = close
        self.ratelimited = ratelimited


def _jsonable(value):
    """Numpy-to-JSON coercion; non-finite floats become null."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


#: the types a JSON coordinate may have: numbers, and not ``bool`` (an
#: ``int`` subclass) or a string (numpy would parse ``"1"`` as 1.0)
_NUMBER_TYPES = frozenset((int, float))


def _parse_trajectories(raw, field: str) -> List[np.ndarray]:
    """JSON ``[[x, y], ...]`` lists (one trajectory or a batch) to arrays;
    only JSON numbers are coordinates."""
    if not isinstance(raw, list) or not raw:
        raise _HttpError(400, f"'{field}' must be a non-empty list of "
                              "trajectories ([[x, y], ...] point lists)")
    first = raw[0]
    if (isinstance(first, list) and first
            and isinstance(first[0], (int, float))):
        raw = [raw]  # a single trajectory, not a batch
    out = []
    for position, entry in enumerate(raw):
        try:
            points = np.asarray(entry, dtype=np.float64)
        except (TypeError, ValueError):
            raise _HttpError(400, f"'{field}'[{position}] is not numeric")
        if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
            raise _HttpError(
                400, f"'{field}'[{position}] must be a non-empty "
                     f"[[x, y], ...] list, got shape {points.shape}")
        # shape (n, 2): entry is n lists of two scalars, checked in one pass
        if not set(map(type, chain.from_iterable(entry))) <= _NUMBER_TYPES:
            raise _HttpError(400, f"'{field}'[{position}] has a coordinate "
                                  "that is not a JSON number")
        if not np.isfinite(points).all():
            raise _HttpError(400, f"'{field}'[{position}] contains "
                                  "non-finite coordinates")
        out.append(points)
    return out


def _optional_number(body: Dict, field: str, kind, default=None):
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _HttpError(400, f"'{field}' must be a number")
    return kind(value)


class _GatewayHandler(BaseHTTPRequestHandler):
    """One instance per request; all logic delegates to the gateway."""

    gateway: "SimilarityGateway"  # bound via subclassing in the gateway
    protocol_version = "HTTP/1.1"
    timeout = 60  # a wedged client must not pin a handler thread forever

    # http.server logs every request to stderr by default; the gateway
    # accounts through GatewayMetrics instead.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def setup(self):
        super().setup()
        # A reply is one segment and nothing follows it until the next
        # request, so Nagle's algorithm has nothing to gather: all it
        # can do is hold bytes back for the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def reply_bytes(self, status: int, content_type: str,
                    headers: Dict[str, str], body: bytes) -> bytes:
        """The whole reply — what ``send_response`` / ``send_header`` /
        ``end_headers`` and a body write would put on the wire — as one
        ``bytes``, so it leaves in one ``sendall``. Written as two, the
        body sits in the kernel until the client's delayed ACK for the
        head comes back (~40 ms on a keep-alive connection)."""
        lines = [f"{self.protocol_version} {status} "
                 f"{self.responses[status][0]}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body

    def do_GET(self):
        self.gateway._dispatch(self, "GET")

    def do_POST(self):
        self.gateway._dispatch(self, "POST")


# ----------------------------------------------------------------------
# Gateway
# ----------------------------------------------------------------------
class SimilarityGateway:
    """HTTP/JSON edge over any kNN service (see the module docstring).

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction. The listener runs on a daemon thread from construction
    on — :meth:`serve_forever` only blocks the caller until
    :meth:`shutdown`/:meth:`close` (or ``max_requests``), mirroring
    :class:`~repro.api.remote.SimilarityServer`.

    Every request is served through exactly one
    :class:`~repro.api.serving.QueryQueue`: the one it is given, or one it
    builds over the service and closes with itself. That queue is the
    edge's one admission bound and its one line, ``/add`` included;
    request deadlines ride into it. The gateway parses, rate-limits and
    accounts.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        max_body: int = 8 << 20,
        max_requests: Optional[int] = None,
    ):
        self.metrics = GatewayMetrics()
        self.limiter = (TokenBucketLimiter(rate_limit, burst)
                        if rate_limit else None)
        self.max_body = int(max_body)
        self._max_requests = max_requests
        self._shutdown = threading.Event()
        self._closed = False

        handler = type("BoundGatewayHandler", (_GatewayHandler,),
                       {"gateway": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._own_queue = not isinstance(service, QueryQueue)
        self.service = QueryQueue(service) if self._own_queue else service
        self.address: Tuple[str, int] = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name=f"repro-gateway:{self.address[1]}",
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, handler: _GatewayHandler, method: str) -> None:
        start = time.monotonic()
        path = handler.path.split("?", 1)[0]
        if len(path) > 1:
            path = path.rstrip("/")
        ratelimited = False
        try:
            status, body, content_type, headers = self._handle(
                handler, method, path, start)
        except _HttpError as error:
            status = error.status
            body = json.dumps({"error": error.message}).encode()
            content_type, headers = "application/json", dict(error.headers)
            ratelimited = error.ratelimited
            if error.close:
                handler.close_connection = True
        except (DeadlineExceededError, TimeoutError) as error:
            status = 504
            body = json.dumps({"error": f"deadline exceeded: {error}"}).encode()
            content_type, headers = "application/json", {}
        except QueueFullError as error:
            status = 429
            body = json.dumps({"error": str(error)}).encode()
            content_type, headers = "application/json", {"Retry-After": "1"}
        except (ShardLostError, TransportError) as error:
            # Part of the database is unreachable (every replica of a
            # shard down, or the backing connection died): that is a
            # service-availability condition, not a caller error or a
            # gateway bug — 503 so load balancers retry elsewhere while
            # rejoin/re-replication repairs the cluster.
            status = 503
            body = json.dumps(
                {"error": f"shard unavailable: {error}"}).encode()
            content_type, headers = "application/json", {"Retry-After": "1"}
        except Exception:
            # The stack stays on this side: the caller gets an id to
            # quote, the log gets the same id and the traceback.
            incident = os.urandom(8).hex()
            _LOG.exception("internal error %s on %s %s",
                           incident, method, path)
            status = 500
            body = json.dumps(
                {"error": "internal error", "id": incident}).encode()
            content_type, headers = "application/json", {}
        # Account before the reply bytes leave: a client that fires a
        # follow-up /stats the instant it reads this response must already
        # see this request in the counters.
        self.metrics.observe(path, status, (time.monotonic() - start) * 1000,
                             ratelimited)
        try:
            handler.wfile.write(
                handler.reply_bytes(status, content_type, headers, body))
        except (BrokenPipeError, ConnectionError, OSError):
            handler.close_connection = True  # caller hung up; just account
        if (self._max_requests is not None
                and self.metrics.total_requests >= self._max_requests):
            self._shutdown.set()

    def _handle(self, handler, method: str, path: str, start: float):
        if self._shutdown.is_set() and path != "/healthz":
            # /healthz stays answerable during drain so probes see a
            # structured "stopping" report instead of a generic refusal.
            raise _HttpError(503, "gateway is shutting down", close=True)
        route = ROUTES[method].get(path)
        if route is None:
            allowed = [other for other, paths in ROUTES.items()
                       if path in paths]
            if allowed:
                raise _HttpError(405, f"{path} requires "
                                      + " or ".join(allowed),
                                 {"Allow": ", ".join(allowed)})
            raise _HttpError(404, f"no such route: {path}")
        if method == "GET":
            return getattr(self, route)()

        client = (handler.headers.get("X-Api-Key")
                  or handler.client_address[0])
        if self.limiter is not None:
            admitted, retry_after = self.limiter.allow(client)
            if not admitted:
                raise _HttpError(
                    429, f"rate limit exceeded for client {client!r}",
                    {"Retry-After": str(max(1, math.ceil(retry_after)))},
                    close=True, ratelimited=True)
        deadline = self._parse_deadline(handler, start)
        return getattr(self, route)(self._read_json(handler), deadline)

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_deadline(handler, start: float) -> Optional[float]:
        raw = handler.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError:
            raise _HttpError(400, f"X-Deadline-Ms must be a number of "
                                  f"milliseconds, got {raw!r}")
        if budget_ms <= 0:
            raise _HttpError(400, "X-Deadline-Ms must be > 0")
        return start + budget_ms / 1000.0

    def _read_json(self, handler) -> Dict:
        length = handler.headers.get("Content-Length")
        if length is None:
            raise _HttpError(411, "Content-Length required", close=True)
        try:
            length = int(length)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length", close=True)
        if length > self.max_body:
            # The body is never read: close the connection so unread bytes
            # cannot be misparsed as a follow-up request.
            raise _HttpError(
                413, f"body of {length} bytes exceeds the gateway limit "
                     f"of {self.max_body}", close=True)
        raw = handler.rfile.read(length)
        if len(raw) < length:
            raise _HttpError(400, "request body shorter than Content-Length",
                             close=True)
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise _HttpError(400, f"malformed JSON body: {error}")
        if not isinstance(body, dict):
            raise _HttpError(400, "JSON body must be an object")
        return body

    def _json(self, status: int, payload: Dict):
        return status, json.dumps(_jsonable(payload)).encode(), \
            "application/json", {}

    # ------------------------------------------------------------------
    # POST routes
    # ------------------------------------------------------------------
    def _post_knn(self, body: Dict, deadline: Optional[float]):
        queries = _parse_trajectories(body.get("queries"), "queries")
        if len(queries) > self.service.max_pending:  # a 429 retried forever
            raise _HttpError(413, f"more than {self.service.max_pending} "
                                  "queries; split the request")
        k = _optional_number(body, "k", int, default=10)
        if k is None or k < 1:
            raise _HttpError(400, "'k' must be an integer >= 1")
        # k sizes every output and every shard's fetch: bound it by the
        # database before the service allocates anything
        size = len(self.service)
        if k > size:
            raise _HttpError(
                400, f"'k' ({k}) exceeds the database size ({size})")
        exclude = _optional_number(body, "exclude", int)
        dedupe_eps = _optional_number(body, "dedupe_eps", float)
        distances, ids = self.service.knn(queries, k, exclude, dedupe_eps,
                                          deadline=deadline)
        return self._json(200, {"distances": distances, "ids": ids, "k": k})

    def _post_pairwise(self, body: Dict, deadline: Optional[float]):
        queries = _parse_trajectories(body.get("queries"), "queries")
        database = body.get("database")
        if database is not None:
            database = _parse_trajectories(database, "database")
        matrix = self.service.pairwise(queries, database, deadline=deadline)
        return self._json(200, {"distances": matrix})

    def _post_add(self, body: Dict, deadline: Optional[float]):
        trajectories = _parse_trajectories(body.get("trajectories"),
                                           "trajectories")
        size = self.service.add(trajectories, deadline=deadline)
        return self._json(200, {"size": size, "added": len(trajectories)})

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------
    def _get_index(self):
        """Every route but this one, by method."""
        return self._json(200, {"routes": {
            method: [path for path in paths if path != "/"]
            for method, paths in ROUTES.items()}})

    def _get_metrics(self):
        return 200, self.render_metrics().encode(), \
            "text/plain; version=0.0.4", {}

    def _gateway_stats(self) -> Dict:
        snapshot = self.metrics.snapshot()
        return {
            "address": list(self.address),
            "uptime_seconds": round(snapshot["uptime_seconds"], 3),
            "requests_total": snapshot["requests_total"],
            "qps": round(snapshot["qps"], 3),
            "shed_total": snapshot["shed_total"],
            "ratelimited_total": snapshot["ratelimited_total"],
            "deadline_expired_total": snapshot["deadline_expired_total"],
            "rate_limit": self.limiter.rate if self.limiter else None,
        }

    def _get_stats(self):
        try:
            info = self.service.stats()
        except Exception as error:
            info = {"error": f"service stats failed: {error}"}
        info["gateway"] = self._gateway_stats()
        return self._json(200, info)

    def _get_healthz(self):
        if self._shutdown.is_set():
            return self._json(503, {"status": "stopping"})
        try:
            stats = self.service.stats()
        except Exception as error:
            return self._json(
                503, {"status": "error", "error": str(error)})
        degraded = list(stats.get("degraded") or [])
        underreplicated = list(stats.get("underreplicated") or [])
        if degraded:
            status = "degraded"
        elif underreplicated:
            # Still serving every shard, just with less headroom: the
            # probe stays green (a 503 would pull a healthy gateway from
            # rotation) but the report says repair is in progress.
            status = "underreplicated"
        else:
            status = "ok"
        payload = {
            "status": status,
            "size": stats.get("size"),
            "degraded": degraded,
        }
        if "replication" in stats:
            payload["replication"] = stats["replication"]
            payload["underreplicated"] = underreplicated
        replicas = [
            {"shard": entry.get("shard"),
             "healthy_replicas": entry.get("healthy_replicas"),
             "alive": entry.get("alive")}
            for entry in stats.get("shards") or []
            if isinstance(entry, dict) and "healthy_replicas" in entry]
        if replicas:
            payload["shards"] = replicas
        return self._json(503 if degraded else 200, payload)

    # ------------------------------------------------------------------
    # /metrics rendering
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """The Prometheus text-format exposition (also used by tests)."""
        snapshot = self.metrics.snapshot()
        try:
            stats = self.service.stats()
        except Exception:
            stats = {}
        lines = []

        def header(name, kind, help_text):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        header("repro_gateway_requests_total", "counter",
               "Requests served, by route and HTTP status.")
        for (route, status), count in sorted(snapshot["requests"].items()):
            lines.append(f'repro_gateway_requests_total'
                         f'{{route="{route}",status="{status}"}} {count}')

        def histogram(name, counts, count, total, label=""):
            cumulative = 0
            for bound, bucket in zip(LATENCY_BUCKETS_MS, counts):
                cumulative += bucket
                lines.append(f'{name}_bucket{{{label}le="{bound:g}"}} '
                             f'{cumulative}')
            lines.append(f'{name}_bucket{{{label}le="+Inf"}} {count}')
            labels = f"{{{label.rstrip(',')}}}" if label else ""
            lines.append(f"{name}_sum{labels} {total:.6f}")
            lines.append(f"{name}_count{labels} {count}")

        header("repro_gateway_request_latency_ms", "histogram",
               "Request latency by route, milliseconds.")
        for route, (counts, count, total,
                    p50, p95, p99) in sorted(snapshot["latency"].items()):
            histogram("repro_gateway_request_latency_ms", counts, count,
                      total, label=f'route="{route}",')

        header("repro_gateway_latency_quantile_ms", "gauge",
               "Interpolated latency percentiles by route, milliseconds.")
        for route, (_, count, _, p50, p95, p99) in sorted(
                snapshot["latency"].items()):
            if not count:
                continue
            for quantile, value in (("0.5", p50), ("0.95", p95),
                                    ("0.99", p99)):
                lines.append(f'repro_gateway_latency_quantile_ms'
                             f'{{route="{route}",quantile="{quantile}"}} '
                             f'{value:.6f}')

        header("repro_gateway_qps", "gauge",
               "Requests per second over the gateway lifetime.")
        lines.append(f'repro_gateway_qps {snapshot["qps"]:.6f}')
        for name, key in (("repro_gateway_shed_total", "shed_total"),
                          ("repro_gateway_ratelimited_total",
                           "ratelimited_total"),
                          ("repro_gateway_deadline_expired_total",
                           "deadline_expired_total")):
            header(name, "counter", "Traffic-control rejections.")
            lines.append(f"{name} {snapshot[key]}")

        queue = stats.get("queue") or {}
        header("repro_gateway_queue_depth", "gauge",
               "Requests pending in the wrapped QueryQueue.")
        lines.append(f'repro_gateway_queue_depth '
                     f'{int(queue.get("pending") or 0)}')
        for name, key in (("repro_gateway_queue_rejected_total", "rejected"),
                          ("repro_gateway_queue_expired_total", "expired")):
            header(name, "counter", "QueryQueue overload counters.")
            lines.append(f"{name} {int(queue.get(key) or 0)}")
        waits = self.service.wait_histogram()
        header("repro_gateway_queue_wait_ms", "histogram",
               "Time each request waited in the QueryQueue before the "
               "flush that took it started, milliseconds.")
        histogram("repro_gateway_queue_wait_ms", waits.counts, waits.count,
                  waits.sum)

        cache = stats.get("cache") or {}
        hits = int(cache.get("hits") or 0)
        misses = int(cache.get("misses") or 0)
        rate = hits / (hits + misses) if hits + misses else 0.0
        header("repro_gateway_cache_hit_rate", "gauge",
               "Embedding-cache hit rate of the wrapped service.")
        lines.append(f"repro_gateway_cache_hit_rate {rate:.6f}")

        header("repro_gateway_database_size", "gauge",
               "Trajectories in the served database.")
        lines.append(f'repro_gateway_database_size '
                     f'{int(stats.get("size") or 0)}')

        degraded = set(stats.get("degraded") or [])
        shards = stats.get("shards")
        header("repro_gateway_shard_up", "gauge",
               "Per-shard health (1 = serving, 0 = degraded).")
        for entry in shards or []:
            shard = entry.get("shard")
            up = 0 if shard in degraded else 1
            lines.append(f'repro_gateway_shard_up{{shard="{shard}"}} {up}')

        replicated = [entry for entry in shards or []
                      if isinstance(entry, dict)
                      and "healthy_replicas" in entry]
        if replicated:
            header("repro_gateway_shard_replicas", "gauge",
                   "Healthy replicas per shard (replicated clusters).")
            for entry in replicated:
                lines.append(f'repro_gateway_shard_replicas'
                             f'{{shard="{entry.get("shard")}"}} '
                             f'{int(entry["healthy_replicas"])}')

        header("repro_gateway_uptime_seconds", "gauge",
               "Seconds since the gateway started.")
        lines.append(f'repro_gateway_uptime_seconds '
                     f'{snapshot["uptime_seconds"]:.3f}')
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._shutdown.is_set()

    def shutdown(self) -> None:
        """Request shutdown: :meth:`serve_forever` returns and closes.

        Safe from signal handlers and request threads (it only sets a
        flag); new requests are refused with ``503`` from this point on.
        """
        self._shutdown.set()

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        """Block the calling thread until :meth:`shutdown` (or the
        ``max_requests`` budget), then run the graceful close."""
        while not self._shutdown.wait(poll_interval):
            pass
        self.close()

    def close(self, grace: float = 5.0) -> None:
        """Stop the listener, reap the serving thread and close the queue
        the gateway built (idempotent)."""
        self._shutdown.set()
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join(timeout=grace)
        self._httpd.server_close()
        if self._own_queue:
            self.service.close()

    def __enter__(self) -> "SimilarityGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        return (f"SimilarityGateway({self.host}:{self.port}, {state}, "
                f"requests={self.metrics.total_requests})")
