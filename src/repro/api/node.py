"""TCP node scaffolding: the accept loop every TCP server of the stack
runs, and the helpers a launcher needs around one.

* :class:`ThreadedNodeServer` — a listener plus one
  :class:`~repro.api.transport.ServiceNode` per connection, under both
  :class:`~repro.api.remote.SimilarityServer` and
  :class:`~repro.api.cluster.ShardWorker`;
* :func:`parse_address`, :func:`write_ready_file` and
  :func:`install_signal_shutdown` — ``host:port`` parsing, the
  ``--ready-file`` a launcher polls, and ``SIGTERM`` as a graceful
  shutdown.

A shard worker imports this and not :mod:`repro.api.remote`: it runs
neither the similarity server nor its client.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Dict, List, Optional, Tuple, Union

from .transport import (ServiceNode, SocketTransport, close_quietly,
                        merge_transport_stats)

__all__ = ["ThreadedNodeServer", "parse_address", "install_signal_shutdown",
           "write_ready_file"]


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

    Shared by :class:`~repro.api.remote.SimilarityServer` and
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
            # The transport is listed before its thread starts, so a stats
            # read after any answer on it counts it; the thread is listed
            # after it starts, so a close() that gives this loop no grace
            # never finds a thread it cannot join (one it misses ends by
            # itself at its next shutdown-flag poll).
            self._connections.append(transport)
            thread.start()
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
                close_quietly(transport)
        self._accept_thread.join(timeout=grace)
        for thread in list(self._connection_threads):
            thread.join(timeout=grace)
