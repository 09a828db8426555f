"""The static lock model the concurrency rules ride on: which attributes
and globals are locks, and the held-lock event walker."""

import ast
import textwrap

from repro.analysis.concurrency import (
    collect_class_locks,
    collect_module_locks,
    iter_lock_events,
)


def test_collect_class_locks_kinds():
    tree = ast.parse(textwrap.dedent("""
        import threading

        class S:
            def __init__(self):
                self._lock = threading.Lock()
                self._rlock = threading.RLock()
                self._cond = threading.Condition()
                self._data = {}
    """))
    class_node = tree.body[1]
    locks = collect_class_locks(class_node)
    assert locks == {"_lock": "Lock", "_rlock": "RLock",
                     "_cond": "Condition"}


def test_collect_module_locks():
    tree = ast.parse(textwrap.dedent("""
        import threading
        GUARD = threading.Lock()
        VALUE = 3
    """))
    assert collect_module_locks(tree) == {"GUARD": "Lock"}


def test_event_walker_resets_held_state_in_nested_defs():
    source = textwrap.dedent("""
        import threading

        class S:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self):
                with self._lock:
                    def worker():
                        self._sock.recv(1)
                    return worker
    """)
    tree = ast.parse(source)
    method = tree.body[1].body[1]
    events = iter_lock_events(method, {"_lock": "Lock"})
    recv_calls = [
        e for e in events
        if e.kind == "call"
        and isinstance(e.node.func, ast.Attribute)
        and e.node.func.attr == "recv"
    ]
    assert recv_calls and all(not e.held for e in recv_calls)
