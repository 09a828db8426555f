"""Repo-wide test hooks.

Setting ``REPRO_LOCK_SANITIZER=1`` (``make test-sanitized``, which CI's
``sanitizer`` job runs, and the ``make test-all`` slow lane do) patches
``threading.Lock``/``RLock`` with the order-checking wrappers from
:mod:`repro.analysis.sanitizer` *before* any test imports the serving
stack, so every lock the stack creates is instrumented and an ABBA
inversion anywhere in the suite raises ``LockOrderError`` instead of
deadlocking.

The suite also fails on what it leaks: see :func:`nothing_leaks`.
"""

import gc
import os
import socket
import threading
import time

import pytest

if os.environ.get("REPRO_LOCK_SANITIZER"):
    from repro.analysis import install_from_env

    install_from_env()

# the detector the end-to-end benchmark runs on its own process groups
from benchmarks.e2e.measure import descendants  # noqa: E402


def _sockets():
    """``(fd, "socket:[inode]")`` for every socket this process holds."""
    held = set()
    for fd in (os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd")
               else ()):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, closed by now
        if target.startswith("socket:"):
            held.add((int(fd), target))
    return held


def _name(fd, target):
    """One leaked socket, by descriptor, family and local address."""
    try:
        with socket.socket(fileno=os.dup(fd)) as sock:  # a copy to ask
            return f"fd {fd} {target} {sock.family.name} {sock.getsockname()!r}"
    except OSError:
        return f"fd {fd} {target}"


def _leaks(sockets_at_start):
    found = {
        "processes": descendants(os.getpid()),
        "non-daemon threads": [
            thread.name for thread in threading.enumerate()
            if thread is not threading.main_thread() and not thread.daemon],
        "sockets": [_name(*held) for held in sorted(_sockets()
                                                    - sockets_at_start)],
    }
    return {kind: leaked for kind, leaked in found.items() if leaked}


@pytest.fixture(scope="session", autouse=True)
def nothing_leaks():
    """Whatever the tests started, they stopped: at the end of the session
    — after a garbage collection and a short grace for processes on their
    way out — no live descendant process at all, no non-daemon thread
    beside the main one, and no socket descriptor of this process that
    was not open at the start (each is named)."""
    sockets_at_start = _sockets()
    yield
    gc.collect()  # an unreachable socket object closes its descriptor
    deadline = time.monotonic() + 5.0
    while (leaked := _leaks(sockets_at_start)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not leaked, f"the test session leaked: {leaked}"
