"""Tests for the framed-message transport layer: framing, the one
transport over both socket families it links with, and the ServiceNode
dispatcher.

The two families go by the names of the link kinds built on them:
``pipe`` is :meth:`SocketTransport.pair` — the ``AF_UNIX`` socket pair
a ``ShardedSimilarityService`` puts under each local worker — and
``socket`` a TCP loopback connection, what remote clients and cluster
workers use."""

import json
import os
import socket
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

from repro.api import transport as transport_module
from repro.api import wire
from repro.api.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameError,
    RemoteCallError,
    ServiceNode,
    SocketTransport,
    TransportClosed,
    decode_payload,
    encode_frame,
    frame_length,
    merge_transport_stats,
    request,
)

from .test_wire import hostile_payloads

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestFraming:
    def test_round_trip(self):
        message = ("knn", {"queries": np.arange(6).reshape(3, 2), "k": 2})
        frame = encode_frame(message)
        length = frame_length(frame[:FRAME_HEADER.size])
        assert length == len(frame) - FRAME_HEADER.size
        command, payload = decode_payload(frame[FRAME_HEADER.size:])
        assert command == "knn"
        np.testing.assert_array_equal(payload["queries"],
                                      np.arange(6).reshape(3, 2))

    def test_header_must_be_exact(self):
        with pytest.raises(FrameError, match="header"):
            frame_length(b"\x00\x01")

    def test_oversized_frame_is_refused(self):
        header = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds"):
            frame_length(header)

    def test_garbage_payload_is_a_frame_error(self):
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(b"this is not a frame")


def tcp_socketpair():
    """A connected TCP loopback ``(client, server)`` socket pair."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
    return client, server


#: the socket family under each link kind
SOCKET_PAIRS = {"pipe": socket.socketpair, "socket": tcp_socketpair}


def transports(family):
    left, right = SOCKET_PAIRS[family]()
    return SocketTransport(left), SocketTransport(right)


@pytest.fixture(params=sorted(SOCKET_PAIRS))
def transport_pair(request):
    if request.param == "pipe":
        left, right = SocketTransport.pair()
    else:
        left, right = transports("socket")
    yield left, right
    left.close()
    right.close()


def raw_links():
    """Per family, a bare sending socket and the :class:`SocketTransport`
    reading what it writes — to put exactly the bytes a test needs on
    the wire. Yields ``(family, raw, transport)``."""
    for family, make in SOCKET_PAIRS.items():
        raw, end = make()
        transport = SocketTransport(end)
        try:
            yield family, raw, transport
        finally:
            raw.close()
            transport.close()


class TestTransports:
    def test_send_recv_preserves_arrays(self, transport_pair):
        left, right = transport_pair
        payload = np.random.default_rng(0).normal(size=(4, 3))
        left.send(("ok", payload))
        status, received = right.recv()
        assert status == "ok"
        assert received.tobytes() == payload.tobytes()

    def test_poll(self, transport_pair):
        left, right = transport_pair
        assert not right.poll(0.01)
        left.send("ping")
        assert right.poll(1.0)
        assert right.recv() == "ping"

    def test_recv_after_peer_close_raises_closed(self, transport_pair):
        left, right = transport_pair
        left.close()
        with pytest.raises(TransportClosed):
            right.recv()

    def test_close_is_idempotent(self, transport_pair):
        left, _right = transport_pair
        left.close()
        left.close()

    def test_empty_and_64_mib_arrays_round_trip_bit_exact(self,
                                                          transport_pair):
        left, right = transport_pair
        empty = np.empty((0, 64), dtype=np.float32)
        large = np.arange(16 << 20, dtype=np.float32).reshape(-1, 64)
        assert large.nbytes == 64 << 20
        for array in (empty, large):
            # a frame larger than the socket buffer needs a reader at the
            # other end while it is written
            sender = threading.Thread(target=left.send, args=(array,))
            sender.start()
            received = right.recv()
            sender.join(timeout=60)
            assert received.dtype == array.dtype
            assert received.shape == array.shape
            assert received.tobytes() == array.tobytes()
            assert not received.flags.writeable  # a view of the frame
            del received

    def test_shm_tag_is_an_unknown_tag(self, transport_pair, tmp_path):
        left, right = transport_pair
        left.send_encoded(hostile_payloads(tmp_path / "ran")["shm_tag"])
        with pytest.raises(FrameError, match="unknown wire tag") as raised:
            right.recv()
        assert isinstance(raised.value.__cause__, wire.WireError)


class TestSocketFraming:
    def test_truncated_frame_is_a_frame_error(self):
        for _, raw, transport in raw_links():
            # A header promising 100 bytes, then only 3 and EOF.
            raw.sendall(FRAME_HEADER.pack(100) + b"abc")
            raw.close()
            with pytest.raises(FrameError, match="mid-frame"):
                transport.recv()

    def test_clean_eof_between_frames_is_closed(self):
        for _, raw, transport in raw_links():
            raw.sendall(encode_frame("hello"))
            raw.close()
            assert transport.recv() == "hello"
            with pytest.raises(TransportClosed):
                transport.recv()

    def test_oversized_header_is_refused_before_any_allocation(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a buffer was allocated for the frame")

        monkeypatch.setattr(transport_module, "np",
                            types.SimpleNamespace(empty=refuse))
        for _, raw, transport in raw_links():
            raw.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError, match="exceeds"):
                transport.recv()

    def test_empty_frame_is_a_frame_error(self):
        for _, raw, transport in raw_links():
            raw.sendall(FRAME_HEADER.pack(0))
            with pytest.raises(FrameError, match="does not decode"):
                transport.recv()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_a_lying_header_costs_only_the_bytes_that_arrive(self):
        # In a fresh process, whose peak resident set this one frame
        # would move: 256 MiB announced, 1 KiB sent, then a hang-up.
        report = subprocess.run(
            [sys.executable, "-c", LIAR_SCRIPT], capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC})
        assert report.returncode == 0, report.stderr
        grown = json.loads(report.stdout)
        assert set(grown) == set(SOCKET_PAIRS)
        for family, megabytes in grown.items():
            assert megabytes < 16, (family, megabytes)


LIAR_SCRIPT = """
import json, socket
from repro.api.transport import FRAME_HEADER, FrameError, SocketTransport


def tcp_socketpair():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
    return client, server


def peak_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024


grown = {}
for family, make in {"pipe": socket.socketpair,
                     "socket": tcp_socketpair}.items():
    raw, end = make()
    transport = SocketTransport(end)
    raw.sendall(FRAME_HEADER.pack(256 << 20) + b"x" * 1024)
    raw.close()
    before = peak_mb()
    try:
        transport.recv()
    except FrameError:
        grown[family] = peak_mb() - before
    transport.close()
print(json.dumps(grown))
"""


class TestShortReads:
    """A stream peer may deliver a frame in arbitrarily small pieces, or
    stop mid-frame. Partial reads must reassemble; truncation must surface
    as a clean transport error — never a truncated decode."""

    def test_byte_dribble_reassembles_the_frame(self):
        message = {"vector": np.arange(6, dtype=np.float64),
                   "tag": "dribble"}
        frame = encode_frame(message)
        for _, raw, transport in raw_links():
            def dribble():
                for i in range(len(frame)):
                    raw.sendall(frame[i:i + 1])
                raw.close()

            thread = threading.Thread(target=dribble)
            thread.start()
            received = transport.recv()
            thread.join(timeout=10)
            assert received["tag"] == "dribble"
            np.testing.assert_array_equal(received["vector"],
                                          message["vector"])
            with pytest.raises(TransportClosed):
                transport.recv()  # the dribbler's EOF is a clean hangup

    def test_back_to_back_frames_parse_cleanly(self):
        for _, raw, transport in raw_links():
            raw.sendall(encode_frame("first") + encode_frame("second"))
            assert transport.recv() == "first"
            assert transport.recv() == "second"

    def test_close_mid_header_is_a_frame_error(self):
        for _, raw, transport in raw_links():
            raw.sendall(FRAME_HEADER.pack(64)[:3])  # 3 of the 8 header bytes
            raw.close()
            with pytest.raises(FrameError, match="mid-frame"):
                transport.recv()

    def test_close_mid_body_is_a_frame_error_not_a_decode(self):
        frame = encode_frame({"payload": np.arange(100)})
        for _, raw, transport in raw_links():
            raw.sendall(frame[:-5])  # everything but the last 5 body bytes
            raw.close()
            # The truncated bytes must never reach the decoder.
            with pytest.raises(FrameError, match="mid-frame"):
                transport.recv()


class TestNoDelay:
    """Frames alternate strictly, so Nagle's algorithm can only stall
    them: every TCP socket a transport is built over has it off."""

    @pytest.mark.parametrize("kind", ["similarity_server", "shard_worker"])
    def test_both_ends_of_a_tcp_link_have_nagle_off(self, kind, monkeypatch):
        from repro.api.cluster import ShardWorker
        from repro.api.remote import SimilarityServer

        sockets = []
        construct = SocketTransport.__init__

        def recording(self, sock):
            construct(self, sock)
            sockets.append(sock)

        monkeypatch.setattr(SocketTransport, "__init__", recording)
        if kind == "similarity_server":
            server, command = SimilarityServer(service=[]), "len"
        else:
            server, command = ShardWorker(), "ping"
        try:
            client = SocketTransport.connect(*server.address)
            request(client, command)  # answered: the accepted end exists
            assert len(sockets) == 2
            assert {sock.getsockname() for sock in sockets} == {
                sockets[0].getsockname(), sockets[0].getpeername()}
            for sock in sockets:
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) == 1
            client.close()
        finally:
            server.close()


def run_node(transport, handlers, **kwargs):
    node = ServiceNode(transport, handlers, **kwargs)
    thread = threading.Thread(target=node.serve_forever, daemon=True)
    thread.start()
    return thread


class TestServiceNode:
    def test_dispatch_and_stop(self):
        caller, server = SocketTransport.pair()
        thread = run_node(server, {"double": lambda x: 2 * x})
        assert request(caller, "double", 21) == 42
        caller.send(("stop", None))
        assert caller.recv() == ("ok", None)
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_handler_error_is_reported_and_survived(self):
        def boom(_payload):
            raise ValueError("intentional")

        caller, server = SocketTransport.pair()
        run_node(server, {"boom": boom, "ping": lambda _: "pong"})
        with pytest.raises(RemoteCallError, match="intentional"):
            request(caller, "boom")
        # The node must keep serving after a handler failure.
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_unknown_command(self):
        caller, server = SocketTransport.pair()
        run_node(server, {})
        with pytest.raises(RemoteCallError, match="unknown command"):
            request(caller, "nope")
        caller.close()

    def test_malformed_request_shape(self):
        caller, server = SocketTransport.pair()
        run_node(server, {"ping": lambda _: "pong"})
        caller.send("not a 2-tuple")
        status, detail = caller.recv()
        assert status == "error" and "malformed request" in detail
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_unencodable_reply_is_reported_and_survived(self):
        caller, server = SocketTransport.pair()
        run_node(server, {"tags": lambda _: {"a", "b"},
                          "ping": lambda _: "pong"})
        with pytest.raises(RemoteCallError,
                           match="set is not wire-encodable"):
            request(caller, "tags")
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_unencodable_request_raises_at_the_caller_and_stays_in_sync(self):
        caller, server = SocketTransport.pair()
        run_node(server, {"echo": lambda payload: payload})
        with pytest.raises(wire.WireError, match="set is not wire-encodable"):
            request(caller, "echo", {1})
        assert caller.stats()["frames_sent"] == 0
        assert request(caller, "echo", "second") == "second"
        caller.close()

    def test_peer_hangup_ends_the_loop(self):
        caller, server = SocketTransport.pair()
        thread = run_node(server, {})
        caller.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_buffered_request_is_served_despite_stop_flag(self):
        # A request the node has already accepted (buffered before the
        # shutdown flag flipped) must be answered, not dropped.
        stop = threading.Event()
        caller, server = SocketTransport.pair()
        caller.send(("ping", None))
        stop.set()
        thread = run_node(server, {"ping": lambda _: "pong"},
                          should_stop=stop.is_set, poll_interval=0.01)
        assert caller.recv() == ("ok", "pong")
        thread.join(timeout=5)
        assert not thread.is_alive()
        caller.close()

    def test_should_stop_ends_idle_loop(self):
        stop = threading.Event()
        caller, server = SocketTransport.pair()
        thread = run_node(server, {"ping": lambda _: "pong"},
                          should_stop=stop.is_set, poll_interval=0.01)
        assert request(caller, "ping") == "pong"
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        caller.close()


class TestPipeGarbage:
    def test_undecodable_bytes_surface_as_frame_error(self):
        left, right = SocketTransport.pair()
        left.send_encoded(b"\x80garbage that is not a frame")
        with pytest.raises(FrameError):
            right.recv()
        left.close()
        right.close()


class TestPipeRoundTrip:
    def test_request_and_reply_arrays_are_bit_identical(self):
        left, right = SocketTransport.pair()
        payload = np.random.default_rng(7).normal(size=(5, 2))
        left.send(("echo", payload))
        command, received = right.recv()
        assert command == "echo"
        assert received.tobytes() == payload.tobytes()
        right.send(("reply", received * 2))
        _, back = left.recv()
        assert back.tobytes() == (payload * 2).tobytes()
        left.close()
        right.close()


class TestTransportStats:
    def test_pipe_counters_track_traffic(self):
        left, right = SocketTransport.pair()
        left.send("ping")
        right.recv()
        right.send("pong")
        left.recv()
        for transport in (left, right):
            stats = transport.stats()
            assert stats["frames_sent"] == 1
            assert stats["frames_recv"] == 1
            assert stats["bytes_sent"] > 0
            assert stats["bytes_recv"] > 0
            assert stats["shm_hits"] == 0
        left.close()
        right.close()

    def test_socket_counters_include_frame_headers(self):
        left, right = transports("socket")
        left.send("ping")
        assert right.recv() == "ping"
        assert left.stats()["bytes_sent"] == \
            right.stats()["bytes_recv"]
        assert left.stats()["bytes_sent"] > FRAME_HEADER.size
        left.close()
        right.close()

    def test_one_message_costs_the_same_bytes_on_both_link_kinds(
            self, transport_pair):
        left, right = transport_pair
        message = ("knn", ([0, 1], (np.ones((1, 64), np.float32), 11, None)))
        left.send(message)
        right.recv()
        frame = len(encode_frame(message))
        assert left.stats()["bytes_sent"] == frame
        assert right.stats()["bytes_recv"] == frame

    def test_merge_sums_counters(self):
        merged = merge_transport_stats([
            {"bytes_sent": 10, "frames_sent": 1,
             "bytes_recv": 5, "frames_recv": 1, "shm_hits": 2},
            {"bytes_sent": 20, "frames_sent": 2,
             "bytes_recv": 15, "frames_recv": 3, "shm_hits": 0},
        ])
        assert merged == {"bytes_sent": 30, "frames_sent": 3,
                          "bytes_recv": 20, "frames_recv": 4, "shm_hits": 2}
