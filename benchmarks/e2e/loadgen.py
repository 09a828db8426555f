"""The load generator: an operation tally, a closed loop and an open loop.

Closed loop — each caller sends its next request when the previous reply
arrived — is what every end-to-end metric uses: the callers of this
system wait for their answers. The open loop sends on a fixed schedule
and times each request from the moment it was *due*, so a stall shows up
as latency of the requests queued behind it instead of vanishing
(coordinated omission); it runs in the traced run only.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from time import perf_counter, sleep
from typing import Callable, Dict, List, Sequence, Tuple

from measure import median

#: an open-loop row is void when the generator sent later than this share
#: of the row's own median latency, or when its backlog kept growing: the
#: row then times the generator's queue, not the program
VOID_LATENESS_SHARE = 0.25


class Tally:
    """Every operation the benchmark attempts, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.reasons[reason or "failed"] += 1

    def run(self, call: Callable, check: Callable) -> Tuple[bool, object]:
        """``call()`` counted once: a raise, or a result ``check`` rejects,
        is a failure (a refused request misses every limit)."""
        try:
            result = call()
        except Exception as error:  # the tally is the failure boundary
            self.record(False, getattr(error, "reason", type(error).__name__))
            return False, None
        ok = bool(check(result))
        self.record(ok, "" if ok else "wrong_shape")
        return ok, result

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def as_dict(self) -> Dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed_frac,
                "reasons": dict(self.reasons)}


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def _closed_worker(call, items, deadline, tally, check, out) -> None:
    for item in items:
        t0 = perf_counter()
        if t0 >= deadline:
            break
        ok, _result = tally.run(lambda: call(item), check)
        if ok:
            out.append((t0, perf_counter()))


def closed_loop_slice(calls: Sequence[Callable], item_lists: Sequence[list],
                      seconds: float, tally: Tally,
                      check: Callable) -> Tuple[List[float], Tuple[int, float]]:
    """One slice: every caller loops over its own items for ``seconds``.

    Returns the pooled latencies of the completed calls and the slice's
    ``(completions, elapsed)`` — elapsed up to the last completion, so a
    slice is not quantised to whole calls.
    """
    start = perf_counter()
    deadline = start + seconds
    outs: List[list] = [[] for _ in calls]
    if len(calls) == 1:
        _closed_worker(calls[0], item_lists[0], deadline, tally, check,
                       outs[0])
    else:
        threads = [threading.Thread(
            target=_closed_worker, daemon=True,
            args=(call, items, deadline, tally, check, out))
            for call, items, out in zip(calls, item_lists, outs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    samples = [sample for out in outs for sample in out]
    if not samples:
        return [], (0, 0.0)
    elapsed = max(t1 for _t0, t1 in samples) - start
    return [t1 - t0 for t0, t1 in samples], (len(samples), elapsed)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def open_loop(calls: Sequence[Callable], items: list, rate: float,
              seconds: float, tally: Tally, check: Callable) -> Dict:
    """Requests due every ``1 / rate`` s, timed from their due time.

    ``len(calls)`` connections share one schedule; a request whose turn
    comes while every connection is busy is sent late, and that wait is
    part of its latency. ``lateness`` (send time minus due time) says how
    far behind the generator ran; ``void`` is set when that is more than
    ``VOID_LATENESS_SHARE`` of the median latency or the backlog grows.
    """
    total = min(len(items), int(rate * seconds))
    counter = itertools.count()
    rows: List[Tuple[float, float, float]] = []  # (due, lateness, latency)
    lock = threading.Lock()
    start = perf_counter() + 0.01

    def worker(call) -> None:
        while True:
            position = next(counter)
            if position >= total:
                return
            due = start + position / rate
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            ok, _result = tally.run(lambda: call(items[position]), check)
            if ok:
                done = perf_counter()
                with lock:
                    rows.append((due, sent - due, done - due))

    threads = [threading.Thread(target=worker, args=(call,), daemon=True)
               for call in calls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rows.sort()
    lateness = [row[1] for row in rows]
    third = max(1, len(rows) // 3)
    early, late = median(lateness[:third]), median(lateness[-third:])
    latencies = [row[2] for row in rows]
    # a queue that keeps growing: the tail of the run is sent far later
    # than its head
    backlog_grows = bool(late > 2 * early + 0.005)
    return {
        "rate": rate,
        "sent": total,
        "completed": len(rows),
        "latencies_s": latencies,
        "lateness_ms": median(lateness) * 1e3,
        "backlog_grows": backlog_grows,
        "void": bool(backlog_grows or median(lateness)
                     > VOID_LATENESS_SHARE * median(latencies)),
    }
