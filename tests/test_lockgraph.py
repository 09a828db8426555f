"""The static lock model the lock-discipline laws ride on: which
attributes and globals are locks, and the held-lock event walker."""

import ast
import textwrap

from tests.test_lock_discipline import _events, _lock_attrs, _module_locks


def test_collect_class_locks_kinds():
    tree = ast.parse(textwrap.dedent("""
        import threading

        class S:
            def __init__(self):
                self._lock = threading.Lock()
                self._rlock = threading.RLock()
                self._cond = threading.Condition()
                self._async = asyncio.Lock()
                self._data = {}
    """))
    assert _lock_attrs(tree.body[1]) == {"_lock", "_rlock", "_cond"}


def test_collect_module_locks():
    tree = ast.parse(textwrap.dedent("""
        import threading
        GUARD = threading.Lock()
        VALUE = 3
    """))
    assert _module_locks(tree) == {"GUARD"}


def test_event_walker_resets_held_state_in_nested_defs():
    tree = ast.parse(textwrap.dedent("""
        class S:
            def run(self):
                with self._lock:
                    self._sock.recv(1)

                    def worker():
                        self._sock.recv(2)
                    return worker

            def _flush_locked(self):
                self._sock.recv(3)
    """))
    held = {call.args[0].value: bool(locks)
            for method in tree.body[0].body
            for call, locks in _events(method)
            if isinstance(call, ast.Call) and call.func.attr == "recv"}
    assert held == {1: True, 2: False, 3: True}
