"""Runtime lock-order sanitizer: the test suite's lock-order check.

:func:`enable_lock_sanitizer` patches ``threading.Lock`` /
``threading.RLock`` with instrumented wrappers. Every wrapper records,
per thread, the stack of sanitized locks currently held; each blocking
``acquire`` first adds the edge *innermost-held → this lock* to a global
acquisition-order graph and raises :class:`LockOrderError` **before
acquiring** if that edge would close a cycle — i.e. at the exact moment
an ABBA deadlock becomes reachable, deterministically, without needing
the unlucky interleaving. It is the only lock-order check: the orders
the serving layers take run through callbacks, duck-typed
``self.service`` calls and module-level functions, which no static model
follows (``tests/test_lock_discipline.py`` keeps what a static pass
*can* say: guarded writes, declared daemons, blocking under a lock).

It is test infrastructure, never imported by ``src/``: ``conftest.py``
arms it under ``REPRO_LOCK_SANITIZER=1`` (the ``test-sanitized`` make
target CI runs, and the ``test-all`` slow lane). Scope notes:

* patching the ``threading`` module globals means everything created
  *after* :func:`enable_lock_sanitizer` is instrumented — including
  ``threading.Condition()`` (which looks up ``RLock`` at call time) and
  ``queue.Queue`` internals;
* nodes are lock *instances* (labelled with their creation site), so
  independent subsystems cannot alias into false cycles;
* ``Condition.wait`` re-acquisition goes through ``_acquire_restore``,
  which deliberately skips edge recording — waking up under the
  condition's lock is not an ordering decision;
* a non-reentrant ``Lock`` blocking-acquired twice by the same thread
  is reported immediately as a self-deadlock.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Set, Tuple

try:  # the real thread-id primitive, independent of our patching
    from _thread import get_ident
except ImportError:  # pragma: no cover - CPython always has _thread
    from threading import get_ident

__all__ = [
    "LockOrderError",
    "enable_lock_sanitizer",
    "disable_lock_sanitizer",
    "sanitizer_enabled",
    "sanitizer_active",
    "lock_graph_snapshot",
    "reset_lock_graph",
    "install_from_env",
    "ENV_VAR",
]

ENV_VAR = "REPRO_LOCK_SANITIZER"

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


class LockOrderError(RuntimeError):
    """Acquiring this lock here closes a lock-order cycle (ABBA risk)."""


class _Monitor:
    """The global acquisition-order graph and per-thread held stacks."""

    def __init__(self):
        self._mutex = _REAL_LOCK()  # raw lock: never instrument ourselves
        self._edges: Dict[int, Set[int]] = {}
        self._sites: Dict[int, str] = {}
        self._held: Dict[int, List[int]] = {}
        self._seq = 0
        self.active = False

    def register(self, site: str) -> int:
        with self._mutex:
            self._seq += 1
            self._sites[self._seq] = site
            return self._seq

    def held_by(self, ident: int) -> List[int]:
        with self._mutex:
            return list(self._held.get(ident, ()))

    def before_acquire(self, lock_id: int, check: bool = True):
        """Record the ordering edge; raise if it would close a cycle."""
        if not self.active:
            return
        ident = get_ident()
        with self._mutex:
            held = self._held.get(ident)
            if not held:
                return
            src = held[-1]
            if src == lock_id:
                return
            if check and self._path_exists(lock_id, src):
                cycle = self._describe_cycle(lock_id, src)
                raise LockOrderError(
                    f"lock-order cycle: acquiring {self._sites[lock_id]} "
                    f"while holding {self._sites[src]} inverts the "
                    f"previously observed order {cycle}"
                )
            self._edges.setdefault(src, set()).add(lock_id)

    def acquired(self, lock_id: int):
        if not self.active:
            return
        with self._mutex:
            self._held.setdefault(get_ident(), []).append(lock_id)

    def released(self, lock_id: int):
        with self._mutex:
            held = self._held.get(get_ident())
            if held and lock_id in held:
                # remove the innermost occurrence (RLocks may repeat)
                for index in range(len(held) - 1, -1, -1):
                    if held[index] == lock_id:
                        del held[index]
                        break

    def holds(self, lock_id: int) -> bool:
        with self._mutex:
            return lock_id in self._held.get(get_ident(), ())

    def _path_exists(self, start: int, goal: int) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def _describe_cycle(self, start: int, goal: int) -> str:
        """One concrete start ⇝ goal path, rendered with creation sites."""
        parents: Dict[int, int] = {}
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            if node == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                names = [self._sites[n] for n in reversed(path)]
                return " -> ".join(names + [names[0]])
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    parents[succ] = node
                    stack.append(succ)
        return f"{self._sites[start]} <-> {self._sites[goal]}"

    def snapshot(self) -> Dict[str, List[str]]:
        with self._mutex:
            return {
                self._sites[src]: sorted(self._sites[dst] for dst in dsts)
                for src, dsts in self._edges.items()
                if dsts
            }

    def reset(self):
        with self._mutex:
            self._edges.clear()
            self._held.clear()


_MONITOR = _Monitor()


def _creation_site() -> str:
    """``file:line`` of the frame that created the lock (outside us)."""
    import sys

    frame = sys._getframe(2)
    this_file = __file__
    while frame is not None and frame.f_code.co_filename == this_file:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    filename = os.path.basename(frame.f_code.co_filename)
    return f"{filename}:{frame.f_lineno}"


class _SanitizedLock:
    """Instrumented stand-in for ``threading.Lock()``."""

    _reentrant = False

    def __init__(self):
        self._inner = (_REAL_RLOCK if self._reentrant else _REAL_LOCK)()
        self._site = _creation_site()
        self._id = _MONITOR.register(self._site)

    # -- core lock protocol -------------------------------------------
    def acquire(self, blocking=True, timeout=-1):
        if _MONITOR.active and blocking:
            if _MONITOR.holds(self._id):
                if not self._reentrant:
                    raise LockOrderError(
                        f"self-deadlock: thread re-acquiring non-reentrant "
                        f"lock {self._site} it already holds"
                    )
                # reentrant re-acquire is not an ordering decision
            else:
                _MONITOR.before_acquire(self._id)
        got = self._inner.acquire(blocking, timeout)
        if got:
            _MONITOR.acquired(self._id)
        return got

    def release(self):
        self._inner.release()
        _MONITOR.released(self._id)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def locked(self):
        return self._inner.locked() if hasattr(self._inner, "locked") else (
            self._inner._is_owned()  # pragma: no cover - RLock path
        )

    def _at_fork_reinit(self):
        # stdlib modules (concurrent.futures.thread, logging, ...) call
        # this via os.register_at_fork; a forked child starts with one
        # thread and no holds, so only the inner primitive needs reset.
        self._inner._at_fork_reinit()

    # -- Condition protocol -------------------------------------------
    # threading.Condition picks these up when we are its underlying
    # lock (including the RLock a bare Condition() creates while the
    # sanitizer is enabled).
    def _release_save(self):
        if self._reentrant:
            state = self._inner._release_save()
            _MONITOR.released(self._id)
            return state
        self._inner.release()
        _MONITOR.released(self._id)
        return None

    def _acquire_restore(self, state):
        # Re-acquiring after Condition.wait is not an ordering decision:
        # register the hold without adding graph edges.
        if self._reentrant:
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        _MONITOR.acquired(self._id)

    def _is_owned(self):
        if self._reentrant:
            return self._inner._is_owned()
        return _MONITOR.holds(self._id) or (
            not _MONITOR.active and self._inner.locked()
        )

    def __repr__(self):
        kind = "RLock" if self._reentrant else "Lock"
        return f"<Sanitized{kind} site={self._site}>"


class _SanitizedRLock(_SanitizedLock):
    """Instrumented stand-in for ``threading.RLock()``."""

    _reentrant = True

    def locked(self):
        return self._inner._is_owned()

    def _recursion_count(self):
        # Not instrumented, only forwarded: CPython's own
        # multiprocessing.resource_tracker asks its RLock for this (every
        # process started with the spawn method goes through it).
        return self._inner._recursion_count()


_enabled = False


def sanitizer_enabled() -> bool:
    """Whether ``threading.Lock``/``RLock`` are currently patched."""
    return _enabled


def sanitizer_active() -> bool:
    """Whether cycle checking is running (enabled and not torn down)."""
    return _MONITOR.active


def enable_lock_sanitizer():
    """Patch ``threading`` so new locks are order-checked. Idempotent."""
    global _enabled
    if _enabled:
        return
    _MONITOR.active = True
    threading.Lock = _SanitizedLock
    threading.RLock = _SanitizedRLock
    _enabled = True


def disable_lock_sanitizer():
    """Restore the real factories. Existing wrappers keep functioning
    (their checks become no-ops), so locks created while enabled stay
    safe to use."""
    global _enabled
    if not _enabled:
        return
    threading.Lock = _REAL_LOCK
    threading.RLock = _REAL_RLOCK
    _MONITOR.active = False
    _enabled = False


def lock_graph_snapshot() -> Dict[str, List[str]]:
    """Observed acquisition-order edges, ``site -> sorted(successors)``."""
    return _MONITOR.snapshot()


def reset_lock_graph():
    """Forget observed edges and held stacks (test isolation)."""
    _MONITOR.reset()


def install_from_env() -> bool:
    """Enable the sanitizer when ``REPRO_LOCK_SANITIZER`` is truthy."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value and value not in {"0", "false", "no", "off"}:
        enable_lock_sanitizer()
        return True
    return False
