"""Repo-wide test hooks.

Setting ``REPRO_LOCK_SANITIZER=1`` (``make test-sanitized``, which CI's
``sanitizer`` job runs, and the ``make test-all`` slow lane do) patches
``threading.Lock``/``RLock`` with the order-checking wrappers from
:mod:`tests.lock_sanitizer` *before* any test imports the serving
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
    from tests.lock_sanitizer import install_from_env

    install_from_env()

# the detector the end-to-end benchmark runs on its own process groups
from benchmarks.e2e.measure import descendants  # noqa: E402


def _descriptors():
    """``{fd: its /proc/self/fd target}`` for every descriptor held."""
    held = {}
    for fd in (os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd")
               else ()):
        try:
            held[int(fd)] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, closed by now
    return held


def _name(fd, target):
    """One leaked descriptor by its target; a socket also by family and
    local address."""
    if target.startswith("socket:"):
        try:
            with socket.socket(fileno=os.dup(fd)) as sock:  # a copy to ask
                return (f"fd {fd} {target} {sock.family.name} "
                        f"{sock.getsockname()!r}")
        except OSError:
            pass
    return f"fd {fd} {target}"


def _leaks(descriptors_at_start):
    """What is alive now that was not at the start, by kind: descendant
    processes, threads besides the main one (daemon or not) and
    descriptors not open (to the same target) at the start."""
    found = {
        "processes": descendants(os.getpid()),
        "threads": [thread.name for thread in threading.enumerate()
                    if thread is not threading.main_thread()],
        "descriptors": [
            _name(fd, target)
            for fd, target in sorted(_descriptors().items())
            if descriptors_at_start.get(fd) != target],
    }
    return {kind: leaked for kind, leaked in found.items() if leaked}


@pytest.fixture(scope="session", autouse=True)
def nothing_leaks():
    """Whatever the tests started, they stopped: at the end of the session
    — after a garbage collection and a short grace for processes and
    threads on their way out — no live descendant process, no thread but
    the main one, and no descriptor of this process that was not open at
    the start (each is named)."""
    descriptors_at_start = _descriptors()
    yield
    gc.collect()  # an unreachable socket or file closes its descriptor
    deadline = time.monotonic() + 5.0
    while ((leaked := _leaks(descriptors_at_start))
           and time.monotonic() < deadline):
        time.sleep(0.1)
    assert not leaked, f"the test session leaked: {leaked}"
