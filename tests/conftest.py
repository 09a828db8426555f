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

import os
import threading
import time

import pytest

if os.environ.get("REPRO_LOCK_SANITIZER"):
    from repro.analysis import install_from_env

    install_from_env()

# the detector the end-to-end benchmark runs on its own process groups
from benchmarks.e2e.measure import descendants, shm_segments  # noqa: E402


def _leaks(segments_at_start):
    found = {
        "processes": descendants(os.getpid()),
        "non-daemon threads": [
            thread.name for thread in threading.enumerate()
            if thread is not threading.main_thread() and not thread.daemon],
        "/dev/shm segments": sorted(shm_segments() - segments_at_start),
    }
    return {kind: leaked for kind, leaked in found.items() if leaked}


@pytest.fixture(scope="session", autouse=True)
def nothing_leaks():
    """Whatever the tests started, they stopped: at the end of the session
    — after a short grace for processes on their way out — no live
    descendant process at all, no non-daemon thread beside the main one,
    and no ``/dev/shm/repro_wire_*`` segment that was not there at the
    start (the stack makes none; the check is the benchmark's own)."""
    segments_at_start = shm_segments()
    yield
    deadline = time.monotonic() + 5.0
    while (leaked := _leaks(segments_at_start)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not leaked, f"the test session leaked: {leaked}"
