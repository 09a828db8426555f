"""Multi-machine serving, worker side: the TCP shard worker.

The sharding engine of :mod:`repro.api.serving`
(:class:`~repro.api.serving.ShardMergeMixin`) runs the same over worker
*processes* on one box and worker *machines*; this module is the machine
kind of worker, the other end of a
:class:`~repro.api.coordinator.ClusterCoordinator`'s TCP links.

:class:`ShardWorker` is a standalone TCP server hosting one or more
*logical shards*, each a local :class:`~repro.api.shard.Shard`. It boots
empty; a coordinator's ``join`` handshake ships the shard recipe
(:func:`~repro.api.serving.shard_recipe`: the index recipe plus a
distance backend's name or an embedding backend's four-field description
— never weights) and the shard assignment, after which the worker answers
the shard-addressed commands (``add``/``knn``/``pairwise``/``export``/
``host``/``ping``/``leave``) — the table a local worker process of
:class:`~repro.api.serving.ShardedSimilarityService` answers too. The CLI
wrapper is ``python -m repro cluster-worker`` (:func:`run_worker`).

A worker process loads what it runs: the shard table
(:mod:`repro.api.shard`) and the accept loop (:mod:`repro.api.node`),
not the engine, the query queue, the remote client and server or the
coordinator. ``ClusterCoordinator``, ``SNAPSHOT_FORMAT_VERSION`` and
``MANIFEST_NAME`` still resolve here, on first use, from
:mod:`repro.api.coordinator`, whose docstring covers replication,
failover, recovery and snapshots.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .node import ThreadedNodeServer, install_signal_shutdown, write_ready_file
from .shard import _ShardHost

__all__ = ["ShardWorker", "ClusterCoordinator", "run_worker",
           "SNAPSHOT_FORMAT_VERSION", "MANIFEST_NAME"]

#: names of the coordinator's module a worker never loads (PEP 562)
_COORDINATOR = ("ClusterCoordinator", "SNAPSHOT_FORMAT_VERSION",
                "MANIFEST_NAME")


def __getattr__(name: str):
    if name not in _COORDINATOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import coordinator

    value = globals()[name] = getattr(coordinator, name)
    return value


class ShardWorker(_ShardHost, ThreadedNodeServer):
    """One cluster worker: a TCP server hosting logical shards.

    Boots with no shards and answers the shard-addressed table of
    :class:`~repro.api.shard._ShardHost` — the one a local worker
    process answers too — on every connection.

    Connections are independent (the coordinator keeps one for requests
    and one for heartbeats); shard commands are serialized through one
    lock, while ``ping`` and ``shutdown`` stay lock-free — a heartbeat
    must answer even while a long ``add``/``knn`` holds the shards busy,
    so only a *dead* worker (process or link gone) is ever failed over,
    never a merely slow one.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction. ``close()`` is abrupt by design: open connections drop,
    and the coordinator treats the hangup exactly like a crashed worker.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 backlog: int = 16):
        self._lock = threading.Lock()
        _ShardHost.__init__(self)
        ThreadedNodeServer.__init__(self, host, port, backlog=backlog)

    def _thread_name(self) -> str:
        return f"repro-shard-worker:{self.address[1]}"

    def _handlers(self) -> Dict:
        handlers = self.shard_handlers()
        # ping/shutdown bypass the shard lock: liveness checks and kill
        # switches must answer while a long request holds the shards busy
        # (they only read or flip flag state). shutdown is answered like
        # any command; the flag flips in _after_reply, because close()
        # aborts connections and would otherwise race this very reply off
        # the wire.
        ping = handlers.pop("ping")
        return {**{name: self._locked(fn) for name, fn in handlers.items()},
                "ping": ping, "shutdown": lambda _payload: None}

    def _locked(self, fn):
        """``fn`` under the lock that guards the hosted shards."""
        def call(payload):
            with self._lock:
                return fn(payload)
        return call

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _node_kwargs(self) -> Dict:
        return {**super()._node_kwargs(), "on_reply": self._after_reply}

    def _after_reply(self, command: str) -> None:
        if command == "shutdown":
            self._shutdown.set()

    def close(self) -> None:
        """Stop serving and drop open connections (idempotent)."""
        super().close(abort_connections=True)

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        if not self._services:
            hosted = "no shards"
        else:
            hosted = (f"shards {sorted(self._services)} of "
                      f"{sum(len(s) for s in self._services.values())}")
        return (f"ShardWorker({self.address[0]}:{self.address[1]}, "
                f"{state}, {hosted})")


def run_worker(host: str = "127.0.0.1", port: int = 0,
               ready_file: Optional[str] = None) -> int:
    """Boot a :class:`ShardWorker` and serve until shutdown (the CLI body)."""
    worker = ShardWorker(host, port)
    # SIGTERM runs the same graceful shutdown as Ctrl-C / a coordinator's
    # shutdown command, so launcher teardown never needs terminate→kill.
    install_signal_shutdown(worker.shutdown)
    bound_host, bound_port = worker.address
    print(f"cluster worker listening on {bound_host}:{bound_port}",
          flush=True)
    if ready_file:
        # Same-machine launchers poll this file; off-machine callers rely
        # on the coordinator's connect retries instead.
        write_ready_file(ready_file, worker.address)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        worker.close()
    return 0
