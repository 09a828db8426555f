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

import os
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..trajectory.trajectory import TrajectoryLike, as_points_batch
from .service import SimilarityService
from .transport import (
    ServiceNode,
    SocketTransport,
    TransientError,
    TransportClosed,
    TransportError,
    merge_transport_stats,
    request,
)

_as_batch = SimilarityService._as_batch

__all__ = [
    "SimilarityServer",
    "RemoteSimilarityClient",
    "parse_address",
    "install_signal_shutdown",
    "write_ready_file",
]


def install_signal_shutdown(callback, signals=("SIGTERM",)) -> bool:
    """Route ``SIGTERM`` through the same graceful shutdown as Ctrl-C.

    ``callback`` must be signal-safe (the servers' ``shutdown()`` methods
    only set an event). Returns False without installing anything when
    called off the main thread — the in-process CLI tests drive commands
    from worker threads, where CPython forbids ``signal.signal``.
    """
    import signal

    if threading.current_thread() is not threading.main_thread():
        return False
    for name in signals:
        signum = getattr(signal, name, None)
        if signum is not None:
            signal.signal(signum, lambda _signum, _frame: callback())
    return True


def write_ready_file(path: str, address: Tuple[str, int]) -> None:
    """Publish a bound ``host:port`` for launchers polling ``--ready-file``.

    Call it only once the port is bound: tests and the smoke scripts wait
    for this file instead of racing the bind. The line goes to a sibling
    temporary name that ``os.replace`` moves into place, so a poller that
    sees the file exist never reads it empty or half-written.
    """
    host, port = address
    temporary = f"{path}.{os.getpid()}.tmp"
    with open(temporary, "w") as handle:
        handle.write(f"{host}:{port}\n")
    os.replace(temporary, path)


def parse_address(address: Union[str, Tuple[str, int]],
                  port: Optional[int] = None) -> Tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` / separate args."""
    if port is not None:
        return str(address), int(port)
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, _, port_text = str(address).rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(
            f"expected 'host:port', got {address!r}"
        )
    return host, int(port_text)


# ----------------------------------------------------------------------
# Server scaffolding
# ----------------------------------------------------------------------
class ThreadedNodeServer:
    """Threaded TCP scaffolding for a :class:`ServiceNode`-per-connection
    server.

    Shared by :class:`SimilarityServer` and
    :class:`~repro.api.cluster.ShardWorker`: a listener with a short
    accept timeout (so the loop stays responsive to the shutdown flag —
    closing a listener does not reliably wake a blocked ``accept()``),
    one daemon thread per connection running the subclass's
    :meth:`_handlers`, dead-connection pruning, and a bounded
    :meth:`close`. It takes no lock around a handler: whatever a handler
    calls guards itself.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 backlog: int = 32):
        # The flag exists before the accept thread does, so close() can
        # never race a half-built server.
        self._shutdown = threading.Event()
        self._connections: List[SocketTransport] = []
        self._connection_threads: List[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name=self._thread_name(),
        )
        self._accept_thread.start()

    # -- subclass hooks -------------------------------------------------
    def _handlers(self) -> Dict:
        """The dispatch table each connection's ServiceNode runs."""
        raise NotImplementedError

    def _node_kwargs(self) -> Dict:
        """Extra ServiceNode arguments (e.g. request accounting)."""
        return {"should_stop": self._shutdown.is_set}

    def _thread_name(self) -> str:
        return f"repro-node-server:{self.address[1]}"

    # -- accept + per-connection loops ----------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by close()
            sock.settimeout(None)
            # Prune finished connections so a long-lived server does not
            # accumulate one dead Thread object per client ever served.
            alive = [
                (transport, thread)
                for transport, thread in zip(self._connections,
                                             self._connection_threads)
                if thread.is_alive()
            ]
            self._connections = [transport for transport, _ in alive]
            self._connection_threads = [thread for _, thread in alive]
            transport = SocketTransport(sock)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(transport,), daemon=True)
            # Started before it is listed: a close() that gives this loop
            # no grace must never find a thread it cannot join (one it
            # misses ends by itself at its next shutdown-flag poll).
            thread.start()
            self._connections.append(transport)
            self._connection_threads.append(thread)

    def _serve_connection(self, transport: SocketTransport) -> None:
        node = ServiceNode(transport, self._handlers(), **self._node_kwargs())
        try:
            node.serve_forever()
        finally:
            transport.close()

    def transport_stats(self) -> Dict:
        """Aggregate wire counters over the current connections."""
        return merge_transport_stats(
            [transport.stats() for transport in list(self._connections)])

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._shutdown.is_set()

    def shutdown(self) -> None:
        """Request shutdown: :meth:`serve_forever` returns and runs the
        graceful :meth:`close`. Safe from signal handlers and other
        threads — it only sets a flag."""
        self._shutdown.set()

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        """Block the calling thread until :meth:`close` (or a shutdown)."""
        while not self._shutdown.wait(poll_interval):
            pass
        self.close()

    def close(self, grace: float = 5.0, *,
              abort_connections: bool = False) -> None:
        """Stop accepting and wind the connections down (idempotent).

        By default in-flight requests finish (connection loops watch the
        shutdown flag between requests); ``abort_connections=True`` drops
        the open sockets immediately instead.
        """
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if abort_connections:
            for transport in list(self._connections):
                try:
                    transport.close()
                except Exception:
                    pass
        self._accept_thread.join(timeout=grace)
        for thread in list(self._connection_threads):
            thread.join(timeout=grace)


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
    socket was reaped, a chaos drop) is retried once transparently on a
    fresh connection after a jittered backoff; ``stats()["retries"]``
    counts these. A failure after part of a reply arrived
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
                try:
                    self._transport.close()
                except Exception:
                    pass
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
        batch = as_points_batch(_as_batch(trajectories))
        return self._call("add", batch)

    def knn(
        self,
        queries: Sequence[TrajectoryLike],
        k: int,
        exclude: Optional[int] = None,
        dedupe_eps: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Remote ``(distances, ids)`` — the wrapped service's exact answer."""
        batch = as_points_batch(_as_batch(queries))
        return self._call("knn", (batch, k, exclude, dedupe_eps))

    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Optional[Sequence[TrajectoryLike]] = None,
    ) -> np.ndarray:
        """Remote dense distance block (D defaults to the server database)."""
        batch = as_points_batch(_as_batch(queries))
        if database is not None:
            database = as_points_batch(_as_batch(database))
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

