"""Span shims installed from the benchmark's own files.

``install(tracer)`` wraps the public entry points of each layer of the
program (``backend.encode``, ``Index.add/search``, ``kmeans``,
``SimilarityService.add/knn``, the sharded and cluster ``knn``/``add``
and their fan-out, ``QueryQueue.submit`` → result, ``wire.encode/decode``,
``RemoteSimilarityClient.knn``, the gateway's POST handler) so that every
call appends one ``(span id, request id, parent, name, t0, t1, n)`` row
to an in-memory list. Nothing under ``src/`` is edited; spans inside the
program are a later change.

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux — one clock for
every process on the box — so rows written by the load generator, the
server and the shard workers line up on one axis and a child in another
process is found by interval containment (sound while one closed-loop
client keeps requests from overlapping).

Every process that installed the shims switches them off on ``SIGUSR2``
and back on on ``SIGUSR1`` (forked pipe workers inherit the handlers), so
the traced run can time the same requests with and without them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import signal
import threading
from collections import namedtuple
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

Span = namedtuple("Span", "pid sid rid parent name t0 t1 n")


class Tracer:
    """In-memory span list of one process, dumped once at exit."""

    def __init__(self, dump_dir: Optional[str] = None):
        self.spans: List[tuple] = []
        #: last observed ``(memory_bytes, size)`` per index object
        self.gauges: Dict[int, tuple] = {}
        self.dump_dir = dump_dir
        #: False: every shim calls straight through and records nothing
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``count(args)`` sizes the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            rid = stack[0] if stack else sid
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, rid, parent, name, t0, t1,
                     count(args) if count is not None else 0))
                if after is not None:
                    after(args)

        return traced

    def dump(self) -> Optional[str]:
        if self.dump_dir is None:
            return None
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")
            memory = sum(value[0] for value in self.gauges.values())
            vectors = sum(value[1] for value in self.gauges.values())
            handle.write(json.dumps(
                {"gauge": "index", "memory_bytes": memory,
                 "vectors": vectors}) + "\n")
        return path


# ----------------------------------------------------------------------
# Shims
# ----------------------------------------------------------------------
def _first_len(args) -> int:
    """Size of the first real argument of a method call (after self)."""
    if len(args) < 2:
        return 0
    items = args[1]
    if getattr(items, "ndim", None) == 2 and items.shape[1] == 2:
        return 1  # a bare (L, 2) array is one trajectory
    return len(items)


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points (idempotence is the caller's job:
    call once per process, before the program's objects are built)."""
    from repro.api import (cluster, gateway, indexes, protocols, remote,
                           service, serving, wire)
    from repro.index import ivf, pq

    def patch(owner, attribute, name, count=None, after=None, source=None):
        original = getattr(source if source is not None else owner, attribute)
        setattr(owner, attribute, tracer.wrap(original, name, count, after))

    patch(protocols.EmbeddingBackend, "encode", "backend.encode", _first_len)

    def gauge(args):
        index = args[0]
        stats = index.stats()  # never trains a lazy index (adapters' rule)
        tracer.gauges[id(index)] = (int(stats.get("memory_bytes", 0)),
                                    int(stats.get("size", 0)))

    searched = set()

    def gauge_first_search(args):
        # a lazy index changes residency when its first search trains it
        if id(args[0]) not in searched:
            searched.add(id(args[0]))
            gauge(args)

    for value in vars(indexes).values():
        if (isinstance(value, type) and issubclass(value, protocols.Index)
                and value is not protocols.Index):
            patch(value, "add", "index.add", _first_len, gauge)
            patch(value, "search", "index.search", _first_len,
                  gauge_first_search)
    for module in (pq, ivf):
        patch(module, "kmeans", "index.kmeans")

    patch(service.SimilarityService, "add", "service.add", _first_len)
    patch(service.SimilarityService, "knn", "service.knn", _first_len)

    sharded = serving.ShardedSimilarityService
    patch(sharded, "knn", "sharded.knn", _first_len,
          source=serving.ShardMergeMixin)
    patch(sharded, "add", "sharded.add", _first_len)
    patch(sharded, "_shard_query", "sharded.fanout")
    coordinator = cluster.ClusterCoordinator
    patch(coordinator, "knn", "cluster.knn", _first_len,
          source=serving.ShardMergeMixin)
    patch(coordinator, "add", "cluster.add", _first_len)
    patch(coordinator, "_shard_query", "cluster.fanout")

    patch(wire, "encode", "wire.encode")
    patch(wire, "decode", "wire.decode")
    patch(remote.RemoteSimilarityClient, "knn", "remote.knn", _first_len)
    patch(remote.RemoteSimilarityClient, "add", "remote.add", _first_len)
    patch(gateway._GatewayHandler, "do_POST", "gateway.request")

    submit = serving.QueryQueue.submit

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        if not tracer.enabled:
            return submit(self, *args, **kwargs)
        stack = tracer.stack()
        sid = next(tracer._ids)
        parent = stack[-1] if stack else 0
        rid = stack[0] if stack else sid
        t0 = perf_counter()
        future = submit(self, *args, **kwargs)
        # the span ends when the flush thread resolves the future
        future.add_done_callback(lambda _future: tracer.spans.append(
            (sid, rid, parent, "queue.submit", t0, perf_counter(), 1)))
        return future

    serving.QueryQueue.submit = traced_submit

    # Forked pipe workers leave through os._exit and run no atexit hook:
    # wrap their target so they dump their own rows on the way out.
    worker = serving._shard_worker

    @functools.wraps(worker)
    def traced_worker(*args, **kwargs):
        tracer.spans.clear()
        tracer.gauges.clear()
        try:
            return worker(*args, **kwargs)
        finally:
            tracer.dump()

    serving._shard_worker = traced_worker

    def switch(signum, _frame):
        tracer.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, switch)
    signal.signal(signal.SIGUSR2, switch)


def _catches(pid: int, signum: int) -> bool:
    """Whether the process has a handler for ``signum`` (``SigCgt`` mask)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("SigCgt:"):
                    return bool(int(line.split()[1], 16) >> (signum - 1) & 1)
    except OSError:
        pass
    return False


def catching_pids(pids: Sequence[int]) -> List[int]:
    """Those of ``pids`` that carry the shims' signal handlers. The others
    must not be signalled: the default action would end them."""
    return [pid for pid in pids if _catches(pid, signal.SIGUSR1)
            and _catches(pid, signal.SIGUSR2)]


def switch_spans(pids: Sequence[int], on: bool) -> None:
    """Tell every process in ``pids`` (see ``catching_pids``) to record
    spans, or to stop, and give up the CPU once so that processes sharing
    this hardware thread run their handlers before the caller goes on."""
    for pid in pids:
        os.kill(pid, signal.SIGUSR1 if on else signal.SIGUSR2)
    if pids:
        os.sched_yield()


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
def load(run_dir: str) -> Dict:
    """``{"spans": [Span...], "index_memory_bytes", "index_vectors"}``
    merged over every ``spans-<pid>.jsonl`` in ``run_dir``."""
    spans: List[Span] = []
    memory = vectors = 0
    for name in sorted(os.listdir(run_dir)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        pid = int(name[len("spans-"):-len(".jsonl")])
        with open(os.path.join(run_dir, name)) as handle:
            for line in handle:
                row = json.loads(line)
                if isinstance(row, dict):
                    memory += row["memory_bytes"]
                    vectors += row["vectors"]
                else:
                    spans.append(Span(pid, *row))
    return {"spans": spans, "index_memory_bytes": memory,
            "index_vectors": vectors}


def select(spans: Sequence[Span], name: str,
           window: Optional[tuple] = None) -> List[Span]:
    """Spans called ``name`` lying inside ``window`` (``(t0, t1)``)."""
    return [span for span in spans if span.name == name and (
        window is None or (window[0] <= span.t0 and span.t1 <= window[1]))]


def durations_ms(spans: Sequence[Span]) -> List[float]:
    return [(span.t1 - span.t0) * 1e3 for span in spans]


def self_times_ms(spans: Sequence[Span], every: Sequence[Span]) -> List[float]:
    """Each span's duration minus what its direct children cover."""
    children: Dict[tuple, float] = {}
    for span in every:
        if span.parent:
            key = (span.pid, span.parent)
            children[key] = children.get(key, 0.0) + (span.t1 - span.t0)
    return [((span.t1 - span.t0) - children.get((span.pid, span.sid), 0.0))
            * 1e3 for span in spans]


def _overlapping(parent: Span, ordered: Sequence[Span],
                 starts: Sequence[float], longest: float):
    """Spans of ``ordered`` (sorted by start) that overlap ``parent``."""
    position = bisect.bisect_left(starts, parent.t0 - longest)
    while position < len(ordered) and ordered[position].t0 < parent.t1:
        if ordered[position].t1 > parent.t0:
            yield ordered[position]
        position += 1


def _by_start(candidates: Sequence[Span]):
    ordered = sorted(candidates, key=lambda span: span.t0)
    longest = max((span.t1 - span.t0 for span in ordered), default=0.0)
    return ordered, [span.t0 for span in ordered], longest


def covered_ms(parents: Sequence[Span],
               candidates: Sequence[Span]) -> List[float]:
    """Per parent, how much of its interval candidate spans cover — from
    any process, overlaps counted once. A parent minus this is its self
    time across a process boundary: with the shards of a fan-out running
    side by side the cover is the slowest one, with all of them taking
    turns on one hardware thread it is their sum."""
    ordered, starts, longest = _by_start(candidates)
    out = []
    for parent in parents:
        covered, reach = 0.0, parent.t0
        for span in _overlapping(parent, ordered, starts, longest):
            begin, end = max(span.t0, reach), min(span.t1, parent.t1)
            if end > begin:
                covered += end - begin
                reach = end
        out.append(covered * 1e3)
    return out


def slowest_contained_ms(parents: Sequence[Span],
                         candidates: Sequence[Span]) -> List[float]:
    """Per parent, the longest candidate span inside its interval, from any
    process (0.0 when none is): the slowest shard of one fan-out."""
    ordered, starts, longest = _by_start(candidates)
    return [max((span.t1 - span.t0
                 for span in _overlapping(parent, ordered, starts, longest)
                 if parent.t0 <= span.t0 and span.t1 <= parent.t1),
                default=0.0) * 1e3 for parent in parents]
