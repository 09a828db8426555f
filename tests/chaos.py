"""Deterministic fault injection for the serving stack's tests.

Robustness claims are only as good as the failures they were tested
against, so this harness makes failures *reproducible*: a
:class:`ChaosTransport` wraps any :class:`~repro.api.transport.Transport`
and, driven by a seeded :class:`random.Random`, injects

* **connection drops** — the wrapped transport is closed and the call
  raises :class:`~repro.api.transport.TransientError`, exactly what a
  reset-between-frames looks like to the caller;
* **frame truncation** — the reply is consumed but reported as a
  :class:`~repro.api.transport.FrameError`, the partial-reply failure
  mode retry layers must *not* blindly retry;
* **latency spikes** — a bounded sleep before the operation, for deadline
  and timeout paths;
* **kills** — after a configured number of operations the transport
  fails permanently, which is how a worker crash appears from the
  coordinator's side of the socket.

Same seed, same call sequence → same faults, so a test that survived a
chaos schedule once survives it forever. :class:`ChaosCoordinator` is a
:class:`~repro.api.coordinator.ClusterCoordinator` whose every worker
link is wrapped, each with its own child seed, so the fault schedules of
different links are decorrelated but still reproducible.

This module imports numpy and ``repro`` only (no pytest), so
``scripts/chaos_smoke.py`` (``make chaos-smoke``) runs it too::

    from tests.chaos import ChaosConfig, ChaosCoordinator, ChaosTransport

    config = ChaosConfig(seed=7, drop_rate=0.05, latency_rate=0.1,
                         latency_ms=5.0)
    flaky = ChaosTransport(transport, config)     # quacks like Transport
    flaky.send(("ping", None))                    # may raise TransientError
    flaky.stats()["chaos"]                        # injection counters
    cluster = ChaosCoordinator(config, addresses, backend="hausdorff")
    cluster.stats()["chaos"]                      # summed over every link
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.api.coordinator import ClusterCoordinator
from repro.api.transport import (
    FrameError,
    TransientError,
    TransportClosed,
    close_quietly,
)

__all__ = ["ChaosConfig", "ChaosCoordinator", "ChaosTransport"]


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible fault schedule (all rates are per operation).

    ``seed`` fixes the schedule; :meth:`spawn` derives decorrelated child
    seeds so each wrapped transport gets its own stream. ``kill_after``
    (operation count, coordinator-side view of a worker crash) makes the
    transport fail permanently once reached; ``None`` disables it.
    """

    seed: int = 0
    drop_rate: float = 0.0
    truncate_rate: float = 0.0
    latency_rate: float = 0.0
    latency_ms: float = 0.0
    kill_after: Optional[int] = None

    def __post_init__(self):
        for name in ("drop_rate", "truncate_rate", "latency_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")
        if self.kill_after is not None and self.kill_after < 0:
            raise ValueError("kill_after must be >= 0")

    def spawn(self, n: int) -> "ChaosConfig":
        """A copy with a decorrelated child seed (deterministic in ``n``)."""
        # splitmix-style odd-constant mix: nearby (seed, n) pairs land far
        # apart, and the same (seed, n) always lands on the same child.
        child = (self.seed * 0x9E3779B1 + n * 0x85EBCA77 + 1) % (1 << 63)
        return replace(self, seed=child)

    @property
    def active(self) -> bool:
        return (self.drop_rate > 0 or self.truncate_rate > 0
                or (self.latency_rate > 0 and self.latency_ms > 0)
                or self.kill_after is not None)


class ChaosTransport:
    """A :class:`~repro.api.transport.Transport` that injects faults.

    Wraps any transport and perturbs ``send``/``recv`` according to a
    :class:`ChaosConfig`. Fault order per operation: kill check, latency,
    drop, then (on ``recv`` only) truncation — truncation consumes the
    real reply first so the peer's protocol state stays consistent and
    only *this* side sees a torn frame. ``stats()`` merges the wrapped
    transport's counters with a ``"chaos"`` block of injection counts.
    """

    def __init__(self, transport, config: ChaosConfig):
        self._transport = transport
        self.config = config
        self._rng = random.Random(config.seed)
        self._operations = 0
        self._killed = False
        self.injected: Dict[str, int] = {
            "drops": 0, "truncations": 0, "latency": 0, "kills": 0}

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def _inject(self, receiving: bool) -> bool:
        """Run the pre-operation faults; True → also truncate this recv."""
        if self._killed:
            raise TransientError("chaos: transport was killed")
        self._operations += 1
        config = self.config
        if (config.kill_after is not None
                and self._operations > config.kill_after):
            self._killed = True
            self.injected["kills"] += 1
            self._close_wrapped()
            raise TransientError(
                f"chaos: worker killed after {config.kill_after} operations")
        if (config.latency_ms > 0 and config.latency_rate > 0
                and self._rng.random() < config.latency_rate):
            self.injected["latency"] += 1
            time.sleep(config.latency_ms / 1000.0)
        if config.drop_rate > 0 and self._rng.random() < config.drop_rate:
            self.injected["drops"] += 1
            self._close_wrapped()
            raise TransientError("chaos: injected connection drop")
        return (receiving and config.truncate_rate > 0
                and self._rng.random() < config.truncate_rate)

    def _close_wrapped(self) -> None:
        close_quietly(self._transport)

    # ------------------------------------------------------------------
    # Transport protocol
    # ------------------------------------------------------------------
    def send(self, message) -> None:
        self._inject(receiving=False)
        self._transport.send(message)

    def send_encoded(self, payload: bytes) -> None:
        self._inject(receiving=False)
        self._transport.send_encoded(payload)

    def recv(self):
        truncate = self._inject(receiving=True)
        if not truncate:
            return self._transport.recv()
        # Consume the real reply so the peer is not left mid-frame, then
        # report the torn read this side would have seen.
        try:
            self._transport.recv()
        except TransportClosed:
            pass
        self.injected["truncations"] += 1
        self._close_wrapped()
        raise FrameError("chaos: injected frame truncation")

    @property
    def operations(self) -> int:
        """Operations attempted through this transport (faulted or not)."""
        return self._operations

    def poll(self, timeout: Optional[float] = None) -> bool:
        if self._killed:
            return False
        return self._transport.poll(timeout)

    def close(self) -> None:
        self._transport.close()

    def stats(self) -> Dict:
        info = dict(self._transport.stats())
        info["chaos"] = dict(self.injected, operations=self._operations)
        return info

    def __repr__(self) -> str:
        return (f"ChaosTransport(seed={self.config.seed}, "
                f"operations={self._operations}, "
                f"injected={self.injected})")


class ChaosCoordinator(ClusterCoordinator):
    """A cluster coordinator whose every new worker link is a
    :class:`ChaosTransport`.

    Links are numbered as they are opened — request then heartbeat, per
    worker, and again on each ``rejoin`` — and link ``n`` runs the child
    schedule ``config.spawn(n)``. An inactive config wraps nothing.
    ``stats()`` adds a ``"chaos"`` block: the injection counters and
    operation counts of every link it holds now, summed.
    """

    def __init__(self, config: ChaosConfig, workers, **kwargs):
        # set before the base class opens (and so numbers) any link
        self.chaos = config
        self._chaos_links = 0
        super().__init__(workers, **kwargs)

    def _new_transport(self, address: Tuple[str, int]):
        transport = super()._new_transport(address)
        if not self.chaos.active:
            return transport
        self._chaos_links += 1
        return ChaosTransport(transport, self.chaos.spawn(self._chaos_links))

    def stats(self) -> Dict:
        result = super().stats()
        total = {"drops": 0, "truncations": 0, "latency": 0, "kills": 0,
                 "operations": 0}
        for link in self._links:
            for transport in (link.transport, link.heartbeat):
                if isinstance(transport, ChaosTransport):
                    for key, value in transport.injected.items():
                        total[key] += value
                    total["operations"] += transport.operations
        result["chaos"] = total
        return result
