"""Runtime lock-order sanitizer: deterministic ABBA detection, RLock and
Condition protocol compatibility, and validation against the real
serving stack."""

import threading

import pytest

from tests.lock_sanitizer import (
    LockOrderError,
    disable_lock_sanitizer,
    enable_lock_sanitizer,
    lock_graph_snapshot,
    reset_lock_graph,
    sanitizer_active,
    sanitizer_enabled,
)


@pytest.fixture
def sanitized():
    """Enable the sanitizer for one test, restoring the prior state.

    When the suite already runs under REPRO_LOCK_SANITIZER=1 (the slow
    lane), the sanitizer stays enabled afterwards — only the observed
    graph is cleared.
    """
    was_enabled = sanitizer_enabled()
    enable_lock_sanitizer()
    reset_lock_graph()
    try:
        yield
    finally:
        reset_lock_graph()
        if not was_enabled:
            disable_lock_sanitizer()


def test_enable_disable_roundtrip():
    was_enabled = sanitizer_enabled()
    enable_lock_sanitizer()
    assert sanitizer_enabled() and sanitizer_active()
    lock = threading.Lock()
    assert "Sanitized" in repr(lock)
    if not was_enabled:
        disable_lock_sanitizer()
        assert not sanitizer_enabled()
        # the real factory is back...
        assert "Sanitized" not in repr(threading.Lock())
        # ...and locks created while enabled keep working
        with lock:
            pass


def test_seeded_abba_deadlock_is_detected_deterministically(sanitized):
    """The canonical ABBA fixture: thread 1 teaches the graph a->b, the
    main thread then tries b->a and must be stopped BEFORE acquiring —
    no timing, no actual deadlock."""
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    seeded = threading.Event()

    def seed_order():
        with lock_a:
            with lock_b:
                pass
        seeded.set()

    worker = threading.Thread(target=seed_order, daemon=True)
    worker.start()
    assert seeded.wait(5.0)
    worker.join(5.0)

    with lock_b:
        with pytest.raises(LockOrderError) as excinfo:
            lock_a.acquire()
    assert "cycle" in str(excinfo.value)
    # the refused acquisition must not have left lock_a held
    assert lock_a.acquire(timeout=1.0)
    lock_a.release()


def test_single_thread_inversion_is_also_caught(sanitized):
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with pytest.raises(LockOrderError):
            with lock_a:
                pass


def test_consistent_order_never_raises(sanitized):
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    for _ in range(3):
        with lock_a:
            with lock_b:
                pass
    snapshot = lock_graph_snapshot()
    assert any(snapshot.values())  # the a->b edge was observed


def test_lock_self_deadlock_is_reported(sanitized):
    lock = threading.Lock()
    with lock:
        with pytest.raises(LockOrderError) as excinfo:
            lock.acquire()
    assert "self-deadlock" in str(excinfo.value)


def test_rlock_reentrancy_is_fine(sanitized):
    rlock = threading.RLock()
    with rlock:
        with rlock:
            assert rlock._is_owned()


def test_condition_wait_does_not_false_positive(sanitized):
    # A bare Condition() creates its RLock through the patched factory;
    # wait() must release/reacquire through the wrapper's Condition
    # protocol without inventing ordering edges.
    condition = threading.Condition()
    results = []

    def waiter():
        with condition:
            results.append(condition.wait(0.2))

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    thread.join(5.0)
    assert results == [False]  # timed out, no LockOrderError raised

    def notifier():
        with condition:
            condition.notify_all()

    woken = []

    def waiter2():
        with condition:
            woken.append(condition.wait(5.0))

    thread = threading.Thread(target=waiter2, daemon=True)
    thread.start()
    import time

    time.sleep(0.05)
    notifier()
    thread.join(5.0)
    assert woken == [True]


def test_queue_roundtrip_under_sanitizer(sanitized):
    # queue.Queue builds its Conditions over a patched Lock: the whole
    # protocol (acquire/release/_release_save/_acquire_restore/_is_owned)
    # must hold up.
    import queue

    channel = queue.Queue()

    def producer():
        for n in range(10):
            channel.put(n)

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    got = [channel.get(timeout=5.0) for _ in range(10)]
    thread.join(5.0)
    assert got == list(range(10))


def test_nonblocking_acquire_never_raises_order_error(sanitized):
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        # non-blocking acquisition cannot deadlock; it must not raise
        got = lock_a.acquire(blocking=False)
        assert got
        lock_a.release()


def test_serving_stack_has_no_lock_order_cycles(sanitized):
    """Validation against reality: run the sharded service + query queue
    under the sanitizer with concurrent stats/knn/add traffic. A cycle
    anywhere in the serving layer's locking would raise here."""
    np = pytest.importorskip("numpy")
    from repro.api import QueryQueue, ShardedSimilarityService, get_backend

    rng = np.random.default_rng(7)
    trajectories = [rng.normal(size=(8, 2)).cumsum(axis=0) for _ in range(12)]
    backend = get_backend("hausdorff")
    errors = []

    with ShardedSimilarityService(backend=backend, num_workers=2,
                                  start_method="fork") as service:
        # the stack's own locks were created under the patched factories
        assert "Sanitized" in repr(service._rpc_lock)
        service.add(trajectories)
        with QueryQueue(service, max_batch=8, max_wait=0.002) as queue:

            def hammer(fn):
                try:
                    for _ in range(5):
                        fn()
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [
                threading.Thread(
                    target=hammer,
                    args=(lambda: queue.knn(trajectories[0], k=3),),
                    daemon=True),
                threading.Thread(
                    target=hammer, args=(service.stats,), daemon=True),
                threading.Thread(
                    target=hammer,
                    args=(lambda: service.add(
                        [rng.normal(size=(6, 2)).cumsum(axis=0)]),),
                    daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)

    assert not errors, errors
    # A healthy stack holds its locks one at a time (stats/add snapshot
    # bookkeeping under a dedicated state lock, RPC under the rpc lock,
    # never nested), so the observed order graph stays acyclic — and in
    # fact edge-free. Reaching here without LockOrderError is the check.
    assert lock_graph_snapshot() is not None


def test_sanitizer_sees_the_order_the_edge_stack_takes(sanitized):
    """The sanitizer is the only order checker, so it must not be blind
    (the deleted static graph found 0 edges in ``src/``): a tier takes
    its lock while the tier above holds its own, through a duck-typed
    ``self.service`` no static model follows. Down gateway -> queue ->
    client -> server -> an embedding service, the service holds its own
    lock around its encoder's; the queue holds none around the client,
    whose only caller is the queue's flush thread."""
    import json
    import urllib.request

    np = pytest.importorskip("numpy")
    from repro.api import (QueryQueue, RemoteSimilarityClient,
                           SimilarityServer, SimilarityService)
    from repro.api.gateway import SimilarityGateway

    class Ends:
        """An embedding model: a trajectory's first and last point."""

        output_dim = 4

        def encode(self, batch):
            return np.stack([np.concatenate([t[0], t[-1]]) for t in batch])

    rng = np.random.default_rng(11)
    trajectories = [rng.normal(size=(8, 2)).cumsum(axis=0).tolist()
                    for _ in range(6)]

    def post(gateway, path, body):
        request = urllib.request.Request(gateway.url + path,
                                         data=json.dumps(body).encode())
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    service = SimilarityService(backend=Ends())
    with SimilarityServer(service) as server, \
            RemoteSimilarityClient(*server.address) as client, \
            QueryQueue(client) as queue, \
            SimilarityGateway(queue) as gateway:
        post(gateway, "/add", {"trajectories": trajectories})
        reply = post(gateway, "/knn", {"queries": [trajectories[2]], "k": 2})
    assert reply["ids"][0][0] == 2

    edges = lock_graph_snapshot()

    def reaches(src_file, dst_file):
        return any(src.startswith(src_file) and dst.startswith(dst_file)
                   for src, dsts in edges.items() for dst in dsts)

    assert not reaches("serving.py:", "remote.py:")
    # two distinct service.py locks: SimilarityService's, then its encoder's
    assert reaches("service.py:", "service.py:")
    # acyclic: peeling locks nothing is taken under empties the graph
    graph = {src: set(dsts) for src, dsts in edges.items()}
    while graph:
        leaves = {src for src, dsts in graph.items() if not dsts & set(graph)}
        assert leaves, graph
        for src in leaves:
            del graph[src]


def test_sanitized_locks_support_stdlib_fork_hooks(sanitized):
    """``concurrent.futures.thread`` registers ``_at_fork_reinit`` of a
    module-level lock at import time; the wrappers must expose it or
    importing ThreadPoolExecutor under the sanitizer breaks."""
    import threading

    for lock in (threading.Lock(), threading.RLock()):
        assert "Sanitized" in repr(lock)
        lock._at_fork_reinit()  # must exist and leave the lock usable
        with lock:
            pass

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert sorted(pool.map(lambda x: x * x, range(4))) == [0, 1, 4, 9]


def test_resource_tracker_lock_works_under_sanitizer(sanitized):
    """``multiprocessing.resource_tracker`` asks its RLock for
    ``_recursion_count()`` — on every ``spawn`` start
    (``ShardedSimilarityService(start_method="spawn")``), and in
    ``_stop``; a wrapper without the method broke the tracker under the
    sanitizer. A fresh tracker's lock is a wrapper here, and stopping a
    tracker that never ran starts no process."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker.ResourceTracker()
    assert "Sanitized" in repr(tracker._lock)
    tracker._stop()
    with tracker._lock, tracker._lock:
        assert tracker._lock._recursion_count() == 2
