"""Laws of the TCP accept loop (:class:`repro.api.node.ThreadedNodeServer`):
a connection is counted before it is served, and :meth:`close` never
finds a thread it cannot join."""

import socket
import threading
import time

from repro.api.node import ThreadedNodeServer


class SlowList(list):
    """A list whose ``append`` first sleeps: it opens the window between
    starting a connection's thread and listing what belongs to it."""

    def __init__(self, items=(), on_append=None):
        super().__init__(items)
        self.on_append = on_append

    def append(self, item):
        if self.on_append is not None:
            self.on_append(item)
        time.sleep(0.1)
        super().append(item)


class Recorder(ThreadedNodeServer):
    """Records, per connection, whether its transport was listed when its
    thread began and whether its thread had started when it was listed.
    Every list the accept loop assigns (at start-up and when it prunes)
    becomes a :class:`SlowList`."""

    def __init__(self):
        self.listed_when_served = []
        self.started_when_listed = []
        self.served = threading.Event()
        super().__init__()

    @property
    def _connections(self):
        return self.__dict__["_listed_transports"]

    @_connections.setter
    def _connections(self, transports):
        self.__dict__["_listed_transports"] = SlowList(transports)

    @property
    def _connection_threads(self):
        return self.__dict__["_listed_threads"]

    @_connection_threads.setter
    def _connection_threads(self, threads):
        self.__dict__["_listed_threads"] = SlowList(
            threads, on_append=lambda thread: self.started_when_listed.append(
                thread.ident is not None))

    def _handlers(self):
        return {}

    def _serve_connection(self, transport):
        self.listed_when_served.append(transport in self._connections)
        self.served.set()
        super()._serve_connection(transport)


def serve_one_connection():
    server = Recorder()
    try:
        with socket.create_connection(server.address, timeout=5):
            assert server.served.wait(5)
    finally:
        server.close()  # joins the accept loop: its listing is complete
    return server


def test_a_connection_is_listed_before_it_is_served():
    assert serve_one_connection().listed_when_served == [True]


def test_a_connection_thread_is_listed_only_once_started():
    assert serve_one_connection().started_when_listed == [True]
