"""Framed-message transport and the request/response dispatcher.

Every hop in the serving stack — parent process to shard worker, TCP
client to :class:`~repro.api.remote.SimilarityServer`, coordinator to
cluster worker — speaks one wire protocol over one transport: a *frame*
is an 8-byte big-endian length prefix followed by a payload encoded by
the typed binary codec in :mod:`repro.api.wire` (numpy buffers raw, a
closed tag vocabulary, nothing ever unpickled).  A value the codec
cannot express raises :class:`wire.WireError` at the sender; bytes that
do not decode are a :class:`FrameError` at the receiver.  The
abstractions here keep the callers transport-oblivious:

* :class:`Transport` — the ``send``/``recv``/``poll``/``close`` contract;
* :class:`SocketTransport` — frames over a connected stream socket: TCP
  between machines, an ``AF_UNIX`` :meth:`SocketTransport.pair` between
  an owner and the worker processes it starts. A frame leaves in one
  ``sendmsg`` and is read into an uninitialised buffer, so a header that
  lies about its length costs no more memory than the bytes that
  actually arrive;
* :class:`ServiceNode` — the request/response loop a worker or server
  connection runs: receive ``(command, payload)``, dispatch to a handler,
  reply ``("ok", result)`` or ``("error", traceback)``;
* :func:`request` — the matching caller side, one round-trip to one
  peer. Fanning a command out over many peers — and reading *every*
  reply before raising, which is what keeps a multi-peer RPC in sync
  after a failure — is the sharding engine's job
  (:class:`~repro.api.serving.ShardMergeMixin`), not this module's.

Every transport counts traffic, frame headers included
(``bytes_sent``/``frames_sent``/``bytes_recv``/``frames_recv``; the
``shm_hits`` key is kept for readers of the schema and always 0), and
reports it via ``stats()``.

The sharding engine, its local and TCP workers and
:class:`~repro.api.remote.SimilarityServer` are all thin layers over
these pieces; none owns any framing or dispatch logic of its own.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from . import wire

__all__ = [
    "TransportError",
    "TransportClosed",
    "TransientError",
    "FrameError",
    "RemoteCallError",
    "Transport",
    "SocketTransport",
    "ServiceNode",
    "encode_frame",
    "decode_payload",
    "request",
    "close_quietly",
    "merge_transport_stats",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
]

#: length prefix of a socket frame: 8-byte unsigned big-endian
FRAME_HEADER = struct.Struct(">Q")

#: refuse frames larger than this (a garbage header must not trigger a
#: multi-terabyte read; 1 GiB comfortably holds any real payload here)
MAX_FRAME_BYTES = 1 << 30


class TransportError(ConnectionError):
    """Base class for transport failures."""


class TransportClosed(TransportError):
    """The peer closed the connection (EOF, broken pipe)."""


class TransientError(TransportError):
    """A failure that is expected to clear on retry (a reset link).

    No transport here raises it; one that wraps another does when its
    link dropped between frames (the test suite's fault injector does,
    for injected drops and kills). Retry layers (the remote client's
    single retry, the coordinator's replica failover) treat it exactly
    like :class:`TransportClosed`:
    the exchange died *between* frames, so repeating it elsewhere — or
    on a fresh connection — is safe. Contrast :class:`FrameError`,
    which means a reply was partially consumed and must never be
    retried blindly.
    """


class FrameError(TransportError):
    """The byte stream does not parse as a frame (malformed or truncated)."""


class RemoteCallError(RuntimeError):
    """The peer executed the request and reported a failure."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message) -> bytes:
    """One socket frame: length prefix + encoded payload."""
    payload = wire.encode(message)
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_payload(payload):
    """Decode a frame payload, normalizing failures to :class:`FrameError`.

    Malformed input — truncated, unknown version byte or tag, a pickle
    blob — surfaces as :class:`FrameError`, never as a truncated
    ``np.frombuffer`` and never as code run on the receiver.
    """
    try:
        return wire.decode(payload)
    except wire.WireError as error:
        raise FrameError(f"frame payload does not decode: {error}") from error


def frame_length(header: bytes) -> int:
    """Parse and validate a frame header."""
    if len(header) != FRAME_HEADER.size:
        raise FrameError(
            f"frame header is {len(header)} bytes, expected {FRAME_HEADER.size}"
        )
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class Transport(Protocol):
    """A bidirectional message channel (blocking, one peer)."""

    def send(self, message) -> None:
        """Deliver one message to the peer."""
        ...

    def send_encoded(self, payload: bytes) -> None:
        """Deliver a message already encoded by :func:`wire.encode`."""
        ...

    def recv(self):
        """Block for the peer's next message."""
        ...

    def poll(self, timeout: Optional[float] = None) -> bool:
        """True when :meth:`recv` would not block."""
        ...

    def close(self) -> None:
        """Release the channel (idempotent)."""
        ...


def merge_transport_stats(stats_list: Sequence[Dict]) -> Dict:
    """Sum per-transport ``stats()`` dicts into one fan-out aggregate."""
    total = {
        "bytes_sent": 0, "frames_sent": 0,
        "bytes_recv": 0, "frames_recv": 0, "shm_hits": 0,
    }
    for stats in stats_list:
        for key in total:
            total[key] += stats.get(key, 0)
    return total


class SocketTransport:
    """Framed messages over a connected stream socket.

    One framing over both families the stack links with: TCP
    (:meth:`connect`, or a connection a server accepted) and ``AF_UNIX``
    (:meth:`pair`, an owner's link to a worker process it starts). The
    frame layout is an 8-byte big-endian length, then the versioned
    payload. A frame leaves in one ``sendmsg`` of header and payload (no
    concatenation copy) and arrives by ``recv_into`` straight into an
    uninitialised ``uint8`` buffer, which :func:`wire.decode` hands out
    read-only views of. Pages of that buffer become resident only as
    bytes arrive: a header announcing more than the peer sends costs the
    receiver what was sent, not what was announced.

    A socket copied across a fork is one connection in two processes,
    and :meth:`close` shuts the connection down for both. A process
    disposing of a copy it does not use — the owner's copy of a worker's
    end, a forked worker's inherited owner ends — calls :meth:`close_fd`.
    """

    def __init__(self, sock):
        import socket as socket_module

        if sock.family in (socket_module.AF_INET, socket_module.AF_INET6):
            # A frame is one sendall and the peer answers before the next
            # one leaves: Nagle's algorithm has nothing to gather here and
            # can only hold a frame back for the peer's delayed ACK.
            sock.setsockopt(socket_module.IPPROTO_TCP,
                            socket_module.TCP_NODELAY, 1)
        self._socket = sock
        self._closed = False
        self.bytes_sent = 0
        self.frames_sent = 0
        self.bytes_recv = 0
        self.frames_recv = 0

    @classmethod
    def pair(cls) -> Tuple["SocketTransport", "SocketTransport"]:
        """A connected ``(owner, worker)`` pair over an ``AF_UNIX``
        ``socket.socketpair()``: the link to a local worker process."""
        import socket as socket_module

        owner, worker = socket_module.socketpair()
        return cls(owner), cls(worker)

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: Optional[float] = None,
        *, retries: int = 0, retry_wait: float = 0.1,
    ) -> "SocketTransport":
        """Connect, optionally retrying with exponential backoff.

        A raw ``socket.connect`` races server boot: a client started
        alongside a ``serve``/``cluster-worker`` process can hit
        connection-refused before the listener binds, and a ready-file
        only helps on the same machine. ``retries`` bounds the extra
        attempts (waiting ``retry_wait``, doubling each time); the final
        failure surfaces as :class:`TransportClosed`.
        """
        import socket as socket_module
        import time

        last_error: Optional[OSError] = None
        delay = retry_wait
        for attempt in range(int(retries) + 1):
            try:
                sock = socket_module.create_connection((host, port),
                                                       timeout=timeout)
                sock.settimeout(None)
                return cls(sock)
            except OSError as error:
                last_error = error
                if attempt < retries:
                    time.sleep(delay)
                    delay *= 2
        raise TransportClosed(
            f"could not connect to {host}:{port} after {int(retries) + 1} "
            f"attempt(s): {last_error}"
        ) from last_error

    def send(self, message) -> None:
        self.send_encoded(wire.encode(message))

    def send_encoded(self, payload: bytes) -> None:
        header = FRAME_HEADER.pack(len(payload))
        size = len(header) + len(payload)
        try:
            sent = self._socket.sendmsg([header, payload])
            if sent < size:
                # A timeout socket's full buffer (or a signal) cut the
                # write short: the rest follows, still one frame.
                if sent < len(header):
                    self._socket.sendall(header[sent:])
                    sent = len(header)
                self._socket.sendall(memoryview(payload)[sent - len(header):])
        except OSError as error:
            raise TransportClosed(str(error) or "socket closed") from error
        self.bytes_sent += size
        self.frames_sent += 1

    def _fill(self, buffer, *, header: bool) -> None:
        """Read exactly ``len(buffer)`` bytes into ``buffer``."""
        size, got = len(buffer), 0
        while got < size:
            try:
                count = self._socket.recv_into(
                    memoryview(buffer)[got:] if got else buffer)
            except OSError as error:
                raise TransportClosed(str(error) or "socket closed") from error
            if not count:
                if got == 0 and header:
                    # Clean EOF between frames: the peer hung up politely.
                    raise TransportClosed("peer closed the connection")
                raise FrameError(
                    f"connection closed mid-frame ({got}/{size} bytes)"
                )
            got += count

    def recv(self):
        header = bytearray(FRAME_HEADER.size)
        self._fill(header, header=True)
        length = frame_length(header)  # refused before anything is allocated
        # np.empty, not bytearray: no zero-fill, so only pages the peer
        # actually writes become resident.
        body = np.empty(length, dtype=np.uint8)
        self._fill(body, header=False)
        self.bytes_recv += FRAME_HEADER.size + length
        self.frames_recv += 1
        # decoded arrays alias the frame buffer: hand them out read-only
        return decode_payload(memoryview(body).toreadonly())

    def stats(self) -> Dict:
        return {
            "bytes_sent": self.bytes_sent,
            "frames_sent": self.frames_sent,
            "bytes_recv": self.bytes_recv,
            "frames_recv": self.frames_recv,
            "shm_hits": 0,
        }

    def poll(self, timeout: Optional[float] = None) -> bool:
        import select

        try:
            readable, _, _ = select.select([self._socket], [], [], timeout)
        except (OSError, ValueError):
            # OSError: socket error; ValueError: fd already -1 because
            # close() won a race. Either way recv() surfaces the truth.
            return True
        return bool(readable)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        import socket as socket_module

        try:
            self._socket.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        self._socket.close()

    def close_fd(self) -> None:
        """Close this process's descriptor only, without a shutdown: the
        connection lives on wherever another copy of it is open."""
        self._closed = True
        self._socket.close()


# ----------------------------------------------------------------------
# Request/response
# ----------------------------------------------------------------------
#: replies are ``(status, result)`` with one of these statuses
OK = "ok"
ERROR = "error"

#: the conventional shutdown command a ServiceNode honours
STOP = "stop"


def request(transport: Transport, command: str, payload=None,
            who: str = "peer"):
    """One round-trip: send ``(command, payload)``, return the ok-result;
    an error reply raises :class:`RemoteCallError`."""
    transport.send((command, payload))
    status, result = transport.recv()
    if status != OK:
        raise RemoteCallError(f"{who} failed:\n{result}")
    return result


def close_quietly(transport: Optional[Transport]) -> None:
    """Close ``transport`` (``None``: nothing), swallowing what closing
    raises: a link being torn down has nothing left to report."""
    if transport is not None:
        try:
            transport.close()
        except Exception:
            pass


class ServiceNode:
    """The serving end of the RPC: one transport, one dispatch table.

    Runs the receive → dispatch → reply loop that shard workers and
    server connections share. Handler exceptions become ``("error",
    traceback)`` replies and the loop continues — one bad request must
    not take the node down. Transport-level failures (peer gone,
    malformed frame) end the loop instead: once the byte stream cannot
    be trusted, silence is the only safe reply.
    """

    def __init__(
        self,
        transport: Transport,
        handlers: Dict[str, Callable],
        *,
        stop_command: str = STOP,
        should_stop: Optional[Callable[[], bool]] = None,
        poll_interval: float = 0.1,
        on_request: Optional[Callable[[str], None]] = None,
        on_reply: Optional[Callable[[str], None]] = None,
    ):
        self.transport = transport
        self.handlers = dict(handlers)
        self.stop_command = stop_command
        self._should_stop = should_stop
        self._poll_interval = poll_interval
        self._on_request = on_request
        self._on_reply = on_reply

    def serve_forever(self) -> None:
        """Answer requests until stop, peer exit, or an unframeable stream."""
        import traceback

        while True:
            if self._should_stop is not None:
                # Cooperative shutdown: between requests, watch the flag
                # instead of blocking in recv() forever. A request already
                # buffered when the flag flips is still served — shutdown
                # must not drop work the node has accepted.
                while not self.transport.poll(self._poll_interval):
                    if self._should_stop():
                        return
            try:
                message = self.transport.recv()
            except TransportClosed:
                return
            except FrameError as error:
                # Best-effort diagnostic; the stream is unrecoverable.
                try:
                    self.transport.send((ERROR, f"malformed frame: {error}"))
                except TransportError:
                    pass
                return
            try:
                command, payload = message
            except (TypeError, ValueError):
                self._reply((ERROR, f"malformed request: {message!r}"))
                continue
            if command == self.stop_command:
                self._reply((OK, None))
                return
            handler = self.handlers.get(command)
            if handler is None:
                self._reply((ERROR, f"unknown command {command!r}"))
                continue
            if self._on_request is not None:
                self._on_request(command)
            try:
                result = handler(payload)
            except Exception:
                self._reply((ERROR, traceback.format_exc()))
                continue
            self._reply((OK, result))
            if self._on_reply is not None:
                # For effects that must not beat the answer out of the
                # door — a worker's shutdown drops its connections.
                self._on_reply(command)

    def _reply(self, reply) -> None:
        try:
            self.transport.send(reply)
        except wire.WireError as error:
            # A handler returned something outside the codec's
            # vocabulary: nothing was sent yet, so the peer gets a typed
            # error (two strings always encode) and the node serves on.
            self._reply((ERROR, str(error)))
        except TransportError:
            # The peer vanished between request and reply; nothing to do —
            # the loop will notice on the next recv().
            pass
