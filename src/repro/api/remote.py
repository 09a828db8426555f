"""Remote serving: a TCP front-end over any :class:`KnnService`.

Two pieces, both speaking the :mod:`repro.api.transport` frame protocol:

* :class:`SimilarityServer` — a threaded accept loop wrapping any kNN
  service (a plain :class:`~repro.api.service.SimilarityService`, a
  :class:`~repro.api.serving.ShardedSimilarityService`, or either behind
  a :class:`~repro.api.serving.QueryQueue`). One thread per connection
  calls the service directly — every service guards itself (see
  :class:`~repro.api.protocols.KnnService`) — with per-connection error
  isolation (a bad client kills its connection, not the server) and a
  graceful shutdown that lets in-flight queries finish;
* :class:`RemoteSimilarityClient` — the blocking client. It satisfies
  the :class:`~repro.api.protocols.KnnService` protocol, so it composes
  with ``QueryQueue`` (or another ``SimilarityServer``!) transparently.

The accept loop under this server and
:class:`~repro.api.cluster.ShardWorker`
(:class:`~repro.api.node.ThreadedNodeServer`) and the launcher helpers
(:func:`~repro.api.node.parse_address`,
:func:`~repro.api.node.write_ready_file`,
:func:`~repro.api.node.install_signal_shutdown`) live in
:mod:`repro.api.node`; this module re-exports the helpers.

Round-tripping through the server is loss-free: requests and replies
carry numpy arrays as raw typed buffers, so a remote ``knn`` returns
bit-identical ``(distances, ids)`` to the wrapped service. Quickstart::

    from repro.api import (SimilarityService, SimilarityServer,
                           RemoteSimilarityClient)

    service = SimilarityService(backend="hausdorff").add(database)
    with SimilarityServer(service) as server:        # port=0 → ephemeral
        with RemoteSimilarityClient(*server.address) as client:
            distances, ids = client.knn(database[0], k=5, exclude=0)
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..trajectory.trajectory import TrajectoryLike, as_points_batch
from .node import (
    ThreadedNodeServer,
    install_signal_shutdown,
    parse_address,
    write_ready_file,
)
from .transport import (
    SocketTransport,
    TransientError,
    TransportClosed,
    TransportError,
    close_quietly,
    request,
)

__all__ = [
    "SimilarityServer",
    "RemoteSimilarityClient",
    "parse_address",
    "install_signal_shutdown",
    "write_ready_file",
]


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class SimilarityServer(ThreadedNodeServer):
    """Threaded TCP server exposing a kNN service on the wire protocol.

    Commands: ``add``, ``knn``, ``pairwise``, ``len``, ``stats`` (plus the
    transport-level ``stop``, which ends just that connection), each one
    call on the wrapped service from the connection's thread. Every
    service is safe from any thread; put a
    :class:`~repro.api.serving.QueryQueue` underneath to coalesce
    concurrent remote callers into batched service calls.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction. ``max_requests`` shuts the server down after that many
    served commands — the hook the smoke target and the tests use.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 32,
        max_requests: Optional[int] = None,
    ):
        self.service = service
        self._count_lock = threading.Lock()
        self._request_count = 0
        self._max_requests = max_requests
        super().__init__(host, port, backlog=backlog)

    def _thread_name(self) -> str:
        return f"repro-similarity-server:{self.address[1]}"

    def _node_kwargs(self) -> Dict:
        return {"should_stop": self._shutdown.is_set,
                "on_request": self._count_request}

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def _handlers(self) -> Dict:
        service = self.service

        def handle_knn(payload):
            queries, k, exclude, dedupe_eps = payload
            return service.knn(queries, k, exclude, dedupe_eps)

        def handle_add(payload):
            service.add(payload)
            return len(service)

        def handle_stats(_payload):
            info = dict(service.stats())
            info["server_transport"] = self.transport_stats()
            with self._count_lock:  # atomic with the handler increment
                info["requests"] = self._request_count
            return info

        return {"add": handle_add,
                "knn": handle_knn,
                "pairwise": lambda payload: service.pairwise(*payload),
                "len": lambda _payload: len(service),
                "stats": handle_stats}

    def _count_request(self, _command: str) -> None:
        with self._count_lock:
            self._request_count += 1
            count = self._request_count
        if self._max_requests is not None and count >= self._max_requests:
            self._shutdown.set()

    # ------------------------------------------------------------------
    # Lifecycle: ThreadedNodeServer's graceful close — a query already
    # dispatched completes and its reply is sent before the connection
    # winds down.
    # ------------------------------------------------------------------
    def __enter__(self) -> "SimilarityServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        with self._count_lock:
            count = self._request_count
        return (f"SimilarityServer({self.host}:{self.port}, {state}, "
                f"requests={count})")


# ----------------------------------------------------------------------
# Blocking client
# ----------------------------------------------------------------------
class RemoteSimilarityClient:
    """Blocking client for a :class:`SimilarityServer`.

    Accepts ``RemoteSimilarityClient("host:port")``,
    ``RemoteSimilarityClient(("host", port))`` or
    ``RemoteSimilarityClient(host, port)``. Satisfies the
    :class:`~repro.api.protocols.KnnService` protocol — same batched
    ``knn`` signature, bit-identical results to calling the wrapped
    service directly — so it drops into anything written against the
    local services, including :class:`~repro.api.serving.QueryQueue`.
    Thread-safe: one request/response exchange at a time per client.

    A connection reset *between* requests (the server restarted, an idle
    socket was reaped, a :class:`~repro.api.transport.TransientError`) is
    retried once transparently on a fresh connection after a jittered
    backoff; ``stats()["retries"]`` counts these. A failure after part of
    a reply arrived
    (:class:`~repro.api.transport.FrameError`) is never retried — the
    exchange's outcome is unknowable, so it propagates.
    """

    def __init__(self, address: Union[str, Tuple[str, int]],
                 port: Optional[int] = None, *,
                 timeout: Optional[float] = None,
                 connect_retries: int = 3, retry_wait: float = 0.1):
        self.address = parse_address(address, port)
        self._lock = threading.Lock()
        self._timeout = timeout
        self._retry_wait = float(retry_wait)
        self._retries = 0
        # Bounded connect retry with backoff: a client launched alongside
        # the server no longer races its bind (a --ready-file only helps
        # launchers on the same machine).
        self._transport = SocketTransport.connect(*self.address,
                                                  timeout=timeout,
                                                  retries=connect_retries,
                                                  retry_wait=retry_wait)
        self._closed = False

    def transport_stats(self) -> Dict:
        """This client's wire counters (bytes/frames sent and received)."""
        return self._transport.stats()

    def _call(self, command: str, payload=None):
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            who = (f"similarity server {self.address[0]}:"
                   f"{self.address[1]}")
            try:
                # the blocking client serializes whole call/response pairs
                # under _lock by design; concurrent callers open one client
                # each
                return request(self._transport, command, payload, who=who)
            except (TransportClosed, TransientError):
                # The exchange died between frames: no reply byte was
                # consumed, so repeating it on a fresh connection is safe.
                # FrameError (a *partial* reply) deliberately falls
                # through — retrying a half-read exchange could pair this
                # request with the previous reply.
                self._retries += 1
                close_quietly(self._transport)
                # Jittered backoff so a fleet of clients does not
                # reconnect in lockstep against a restarting server: a
                # single bounded backoff before the one retry; the client
                # lock serializes whole exchanges by design.
                time.sleep(self._retry_wait * (1.0 + random.random()))
                self._transport = SocketTransport.connect(
                    *self.address, timeout=self._timeout)
                # the one retry of the exchange above, same single-exchange
                # discipline
                return request(self._transport, command, payload, who=who)

    # ------------------------------------------------------------------
    # KnnService surface
    # ------------------------------------------------------------------
    def add(self, trajectories: Sequence[TrajectoryLike]) -> int:
        """Append to the remote database; returns the new database size."""
        batch = as_points_batch(trajectories)
        return self._call("add", batch)

    def knn(
        self,
        queries: Sequence[TrajectoryLike],
        k: int,
        exclude: Optional[int] = None,
        dedupe_eps: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Remote ``(distances, ids)`` — the wrapped service's exact answer."""
        batch = as_points_batch(queries)
        return self._call("knn", (batch, k, exclude, dedupe_eps))

    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Optional[Sequence[TrajectoryLike]] = None,
    ) -> np.ndarray:
        """Remote dense distance block (D defaults to the server database)."""
        batch = as_points_batch(queries)
        if database is not None:
            database = as_points_batch(database)
        return self._call("pairwise", (batch, database))

    distance_matrix = pairwise

    def __len__(self) -> int:
        return int(self._call("len"))

    def stats(self) -> Dict:
        """The server's service metadata plus its served-request count.

        ``"retries"`` is client-side: how many exchanges this client
        transparently repeated after a transient connection reset.
        """
        info = dict(self._call("stats"))
        info["retries"] = self._retries
        return info

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Hang up (idempotent); the server just closes this connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._transport.send(("stop", None))
                if self._transport.poll(1.0):
                    # close-time farewell read, bounded by the poll(1.0) above
                    self._transport.recv()
            except TransportError:
                pass
            self._transport.close()

    def __enter__(self) -> "RemoteSimilarityClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "connected"
        return (f"RemoteSimilarityClient({self.address[0]}:"
                f"{self.address[1]}, {state})")

