"""Golden-file tests: every shipped rule fires on a known-bad snippet and
stays quiet on the fixed version, and the suppression machinery is itself
linted (reason required, stale suppressions flagged)."""

import textwrap

import pytest

from repro.analysis import all_rules, lint_paths, rule_catalog

# ----------------------------------------------------------------------
# bad snippet -> rule id; fixed snippet -> quiet. One pair per rule.
# ----------------------------------------------------------------------
C202_BAD = """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def read(self):
            with self._lock:
                return self._count

        def bump(self):
            self._count += 1
"""
C202_GOOD = """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def read(self):
            with self._lock:
                return self._count

        def bump(self):
            with self._lock:
                self._count += 1
"""

C202_MUTATOR_BAD = """
    import threading

    class Registry:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def snapshot(self):
            with self._lock:
                return list(self._items)

        def push(self, item):
            self._items.append(item)
"""

C203_BAD = """
    import threading

    def start(target):
        worker = threading.Thread(target=target)
        worker.start()
        return worker
"""
C203_GOOD = """
    import threading

    def start(target):
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        return worker
"""

C204_BAD = """
    import threading

    class Client:
        def __init__(self, sock):
            self._lock = threading.Lock()
            self._sock = sock

        def fetch(self):
            with self._lock:
                return self._sock.recv(1024)
"""
C204_GOOD = """
    import threading

    class Client:
        def __init__(self, sock):
            self._lock = threading.Lock()
            self._sock = sock
            self._last = None

        def fetch(self):
            data = self._sock.recv(1024)
            with self._lock:
                self._last = data
            return data
"""

# The lock is created in a base class and taken in a subclass — the
# sharding engine's shape (``_rpc_lock`` lives in the mixin, the
# coordinator's critical sections in the subclass). ``*_SUBCLASS`` alone
# has an unresolvable base: no known lock, quiet, as before inheritance.
LOCK_OWNING_BASE = """
    import threading
    import time

    class Engine:
        def __init__(self):
            self._rpc_lock = threading.Lock()
            self._sizes = {}

        def stats(self):
            with self._rpc_lock:
                return dict(self._sizes)
"""
C202_SUBCLASS = """
    class Coordinator(Engine):
        def sizes(self):
            with self._rpc_lock:
                return sorted(self._sizes)

        def commit(self, shard, count):
            self._sizes[shard] = count
"""
C202_SUBCLASS_GOOD = """
    class Coordinator(Engine):
        def commit(self, shard, count):
            with self._rpc_lock:
                self._sizes[shard] = count
"""
C204_SUBCLASS = """
    class Coordinator(Engine):
        def repair(self, transport):
            with self._rpc_lock:
                time.sleep(0.1)
                return transport.recv()
"""
C204_SUBCLASS_GOOD = """
    class Coordinator(Engine):
        def repair(self, transport):
            reply = transport.recv()
            with self._rpc_lock:
                self._sizes[0] = reply
"""

#: row number -> case; the number is part of the test id, so a new row
#: takes the next free number and a deleted rule's rows leave a gap
GOLDEN = {
    0: ("C202", C202_BAD, C202_GOOD),
    1: ("C202", C202_MUTATOR_BAD, None),
    2: ("C203", C203_BAD, C203_GOOD),
    3: ("C204", C204_BAD, C204_GOOD),
    13: ("C202", LOCK_OWNING_BASE + C202_SUBCLASS,
         LOCK_OWNING_BASE + C202_SUBCLASS_GOOD),
    14: ("C202", LOCK_OWNING_BASE + C202_SUBCLASS, C202_SUBCLASS),
    15: ("C204", LOCK_OWNING_BASE + C204_SUBCLASS,
         LOCK_OWNING_BASE + C204_SUBCLASS_GOOD),
    16: ("C204", LOCK_OWNING_BASE + C204_SUBCLASS, C204_SUBCLASS),
}


@pytest.mark.parametrize(
    "rule,bad,good", GOLDEN.values(),
    ids=[f"{rule}-{n}" for n, (rule, _, _) in GOLDEN.items()],
)
def test_rule_fires_on_bad_and_not_on_good(lint_rules, rule, bad, good):
    assert rule in lint_rules(bad)
    if good is not None:
        assert rule not in lint_rules(good)


def test_every_checker_rule_has_a_golden_case():
    framework = {"E001", "S001", "S002"}
    assert {rule for rule, _, _ in GOLDEN.values()} == (
        set(rule_catalog()) - framework)


def test_parse_error_is_a_finding(lint_rules):
    assert lint_rules("def broken(:\n") == {"E001"}


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------
def test_c202_ignores_never_locked_attributes(lint_rules):
    # An attribute never touched under a lock is single-threaded by
    # convention; flagging it would bury the real races in noise.
    fired = lint_rules("""
        import threading

        class Loose:
            def __init__(self):
                self._lock = threading.Lock()
                self._scratch = 0

            def work(self):
                self._scratch += 1
    """)
    assert "C202" not in fired


def test_base_class_locks_resolve_across_the_linted_file_set(tmp_path):
    (tmp_path / "a.py").write_text(textwrap.dedent(LOCK_OWNING_BASE))
    bad, good = tmp_path / "b.py", tmp_path / "c.py"
    header = "import time\nfrom a import Engine\n"
    bad.write_text(header + textwrap.dedent(
        C202_SUBCLASS + C204_SUBCLASS.replace("Coordinator", "Repairer")))
    good.write_text(header + textwrap.dedent(
        C202_SUBCLASS_GOOD
        + C204_SUBCLASS_GOOD.replace("Coordinator", "Repairer")))

    def fired(*paths):
        report = lint_paths([str(path) for path in paths],
                            relative_to=str(tmp_path))
        return sorted((f.path, f.rule) for f in report.findings)

    # sleep and recv under the inherited lock: two C204 findings
    assert fired(tmp_path) == [("b.py", "C202"), ("b.py", "C204"),
                               ("b.py", "C204")]
    # without a.py the base is unresolvable: no known lock, as before
    assert fired(bad, good) == []


def test_c203_kwargs_passthrough_is_not_flagged(lint_rules):
    fired = lint_rules("""
        import threading

        def start(**kwargs):
            return threading.Thread(**kwargs)
    """)
    assert "C203" not in fired


def test_c204_condition_wait_on_held_object_is_exempt(lint_rules):
    fired = lint_rules("""
        import threading

        class Waiter:
            def __init__(self):
                self._condition = threading.Condition()
                self._items = []

            def take(self):
                with self._condition:
                    while not self._items:
                        self._condition.wait(0.1)
                    return self._items.pop()
    """)
    assert "C204" not in fired


def test_c204_queue_get_and_thread_join_fire_but_str_join_does_not(lint_source):
    report = lint_source("""
        import threading

        class Pump:
            def __init__(self, queue, thread):
                self._lock = threading.Lock()
                self._queue = queue
                self._thread = thread

            def drain(self):
                with self._lock:
                    item = self._queue.get()
                    self._thread.join()
                    return ", ".join([str(item)])
    """)
    c204 = [f for f in report.findings if f.rule == "C204"]
    # queue.get and thread.join block; ", ".join is string plumbing.
    assert len(c204) == 2


def test_c204_ignores_asyncio_locks(lint_rules):
    fired = lint_rules("""
        import asyncio

        class AsyncClient:
            def __init__(self, reader):
                self._lock = asyncio.Lock()
                self._reader = reader

            async def fetch(self):
                async with self._lock:
                    return await self._reader.readexactly(8)
    """)
    assert "C204" not in fired


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_with_reason_silences_the_finding(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            return threading.Thread(target=target)  # repro: allow[C203] lifetime owned by caller
    """)
    assert fired == set()


def test_standalone_suppression_covers_next_code_line(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            # repro: allow[C203] lifetime owned by caller
            return threading.Thread(target=target)
    """)
    assert fired == set()


def test_suppression_without_reason_is_its_own_finding(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            return threading.Thread(target=target)  # repro: allow[C203]
    """)
    assert fired == {"S001"}


def test_stale_suppression_is_flagged_on_full_runs_only(lint_rules):
    source = """
        X = 1  # repro: allow[C203] nothing here blocks
    """
    assert lint_rules(source) == {"S002"}
    assert lint_rules(source, rules=["C203"]) == set()


def test_suppression_matches_only_named_rules(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            return threading.Thread(target=target)  # repro: allow[C204] wrong rule id
    """)
    assert "C203" in fired  # the finding survives
    assert "S002" in fired  # and the suppression is reported stale


# ----------------------------------------------------------------------
# Catalog invariants
# ----------------------------------------------------------------------
def test_catalog_lists_every_rule_once_with_summary_and_hint():
    rules = all_rules()
    assert len({rule.id for rule in rules}) == len(rules)
    for rule in rules:
        assert rule.severity in ("error", "warning")
        assert rule.summary and rule.fix_hint
    assert set(rule_catalog()) == {rule.id for rule in rules}
