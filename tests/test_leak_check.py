"""The session's leak check (``nothing_leaks`` in ``conftest.py``) names
every live thread and every new descriptor, not only non-daemon threads
and sockets: a daemon thread nobody stopped is a leak too."""

import threading

from tests.conftest import _descriptors, _leaks


def test_a_daemon_thread_and_an_open_file_are_both_named(tmp_path):
    at_start = _descriptors()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="leak-probe",
                              daemon=True)
    thread.start()
    path = tmp_path / "leak-probe.txt"
    handle = open(path, "w")
    try:
        leaked = _leaks(at_start)
    finally:
        handle.close()
        stop.set()
        thread.join(timeout=30)
    assert "leak-probe" in leaked["threads"]
    assert any(name.endswith(f" {path}") for name in leaked["descriptors"])
    after = _leaks(at_start)
    assert "leak-probe" not in after.get("threads", [])
    assert not any(str(path) in name for name in after.get("descriptors", ()))
