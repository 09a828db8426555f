"""``run.py --selftest``: the benchmark's own parts against planted inputs.

Runs in seconds and starts no service: the estimators, the open loop
against a fake slow server, the oracle's tie-breaking, the tally, the
leak detector, and the agreement of ``BENCHMARK.json`` with the metric
catalogue.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Callable, List

import numpy as np

import measure
from loadgen import Tally, closed_loop_slice, open_loop
from metrics import DEMOTED, END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_slice_median() -> None:
    # ten slices at 100/s, one disturbed slice at 10/s, a slow first one
    slices = [(50, 1.0)] + [(100, 1.0)] * 9 + [(10, 1.0)]
    check(measure.slice_median_rate(slices) == 100.0,
          "a disturbed slice and the first slice must not move the median")
    check(measure.slice_median_rate([(0, 0.0)]) == 0.0, "empty slices")
    check(abs(measure.slice_median_rate([(7, 0.5), (9, 0.5)]) - 18.0) < 1e-9,
          "rates use each slice's own elapsed time")


def test_percentiles() -> None:
    check(measure.highest_supported_percentile(50) is None,
          "50 samples leave fewer than 10 beyond p90")
    check(measure.highest_supported_percentile(100) == 90.0, "100 -> p90")
    check(measure.highest_supported_percentile(200) == 95.0, "200 -> p95")
    check(measure.highest_supported_percentile(1000) == 99.0, "1000 -> p99")
    check(measure.highest_supported_percentile(10000) == 99.9,
          "10000 -> p99.9")
    summary = measure.latency_summary([0.001 * i for i in range(1, 201)])
    check(summary["count"] == 200 and summary["tail_percentile"] == 95.0
          and summary["tail_samples_beyond"] == 10, "summary names its tail")
    check(abs(summary["p50_ms"] - 100.5) < 1e-6, "median in ms")
    check(abs(measure.iqr_share([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
              - 5.5 / 5.5) < 1e-9, "IQR share follows statistics.quantiles")


def test_oracle_ties() -> None:
    database = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                         [3.0, 3.0]])
    query = np.array([0.0, 0.0])
    distances, ids = measure.oracle_topk(query, database, 3)
    check(ids.tolist() == [0, 1, 2], "equal distances rank by id")
    check(distances.tolist() == [0.0, 1.0, 1.0], "L1 in float64")
    hits, same = measure.recall_against([0, 1, 2], distances, ids,
                                        database, query)
    check((hits, same) == (3, True), "identical answer")
    hits, same = measure.recall_against([0, 3, 2], distances, ids,
                                        database, query)
    check((hits, same) == (3, False), "a tie at the k-th distance is a hit")
    hits, _ = measure.recall_against([0, 4, 4], distances, ids,
                                     database, query)
    check(hits == 1, "a far id, and the same id twice, are not hits")
    hits, _ = measure.recall_against([0, -1, 99], distances, ids,
                                     database, query)
    check(hits == 1, "padding and out-of-range ids are not hits")


def test_tally() -> None:
    tally = Tally()

    class Refused(RuntimeError):
        reason = "http_503"

    def refuse():
        raise Refused("503")

    def crash():
        raise ValueError("boom")

    accept = lambda result: len(result) == 3  # noqa: E731
    check(tally.run(lambda: [1, 2, 3], accept)[0], "a good answer passes")
    check(not tally.run(crash, accept)[0], "a raise fails")
    check(not tally.run(refuse, accept)[0], "a non-200 fails")
    check(not tally.run(lambda: [1, 2], accept)[0], "a short answer fails")
    check((tally.attempted, tally.failed) == (4, 3), "counts")
    check(tally.reasons == {"ValueError": 1, "http_503": 1,
                            "wrong_shape": 1}, "reasons")
    check(abs(tally.failed_frac - 0.75) < 1e-12, "failed_frac")


def test_closed_loop() -> None:
    tally = Tally()
    latencies, (count, elapsed) = closed_loop_slice(
        [lambda item: time.sleep(0.002)], [list(range(1000))], 0.1, tally,
        lambda result: True)
    check(20 <= count <= 50 and 0.08 <= elapsed <= 0.15,
          f"closed loop ran {count} calls in {elapsed:.3f} s")
    check(len(latencies) == count == tally.attempted, "every call tallied")
    latencies, (count, elapsed) = closed_loop_slice(
        [lambda item: None], [[1, 2, 3]], 1.0, tally, lambda result: True)
    check(count == 3 and elapsed < 0.1,
          "an exhausted pool ends the slice early, timed to its last call")


def test_open_loop() -> None:
    """A server that stalls once: closed-loop timing would hide the
    requests queued behind the stall, due-time timing must not."""
    stall_at, stall = 20, 0.2

    def server(item):
        time.sleep(stall if item == stall_at else 0.001)

    tally = Tally()
    row = open_loop([server], list(range(100)), rate=200.0, seconds=0.5,
                    tally=tally, check=lambda result: True)
    latencies = row["latencies_s"]
    check(row["completed"] == 100, "every request completes")
    delayed = sum(1 for value in latencies if value > 0.05)
    check(delayed >= 20,
          f"the stall must show on the requests behind it ({delayed})")
    check(row["lateness_ms"] > 1.0, "lateness is reported")
    check(not row["backlog_grows"], "the queue drains after one stall")
    slow = open_loop([lambda item: time.sleep(0.01)], list(range(60)),
                     rate=200.0, seconds=0.3, tally=tally,
                     check=lambda result: True)
    check(slow["backlog_grows"] and slow["void"],
          "a server slower than the rate backs up, and its row is void")
    fast = open_loop([lambda item: time.sleep(0.002)], list(range(40)),
                     rate=200.0, seconds=0.2, tally=tally,
                     check=lambda result: True)
    check(not fast["void"] and fast["lateness_ms"] < 1.0,
          "a generator that keeps its schedule leaves a valid row")


def test_span_cover() -> None:
    from spans import Span, covered_ms, self_times_ms, slowest_contained_ms

    def span(pid, sid, parent, name, t0, t1):
        return Span(pid, sid, sid, parent, name, t0, t1, 1)

    fanouts = [span(1, 1, 0, "fanout", 0.0, 10.0),
               span(1, 2, 0, "fanout", 20.0, 30.0)]
    shards = [span(2, 1, 0, "knn", 1.0, 4.0), span(3, 1, 0, "knn", 3.0, 6.0),
              span(2, 2, 0, "knn", 9.0, 12.0), span(2, 3, 0, "knn", 25.0, 26.0)]
    check(covered_ms(fanouts, shards) == [6000.0, 1000.0],
          "cover counts overlapping shards once and clips at the parent")
    check(slowest_contained_ms(fanouts, shards) == [3000.0, 1000.0],
          "the slowest shard is the longest span inside the fan-out")
    tree = [span(1, 1, 0, "knn", 0.0, 1.0), span(1, 2, 1, "encode", 0.1, 0.5),
            span(1, 3, 1, "search", 0.5, 0.8), span(2, 2, 1, "other", 0.0, 1.0)]
    check(abs(self_times_ms(tree[:1], tree)[0] - 300.0) < 1e-9,
          "self time is the span minus its own process's direct children")


def test_span_switch() -> None:
    import signal

    from spans import Tracer, _catches, catching_pids

    tracer = Tracer()
    traced = tracer.wrap(lambda: 7, "call")
    tracer.enabled = False
    check(traced() == 7 and not tracer.spans,
          "a switched-off shim calls through and records nothing")
    tracer.enabled = True
    check(traced() == 7 and len(tracer.spans) == 1, "switched on, it records")

    previous = signal.signal(signal.SIGUSR1, lambda *_: None)
    try:
        check(_catches(os.getpid(), signal.SIGUSR1), "a handler is seen")
    finally:
        signal.signal(signal.SIGUSR1, previous)
    bystander = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(30)"])
    try:
        time.sleep(0.2)
        check(catching_pids([bystander.pid]) == [],
              "a process without the handlers is never signalled")
    finally:
        bystander.kill()
        bystander.wait()


def test_leak_detector() -> None:
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys, time\n"
         "subprocess.Popen([sys.executable, '-c',"
         " 'import time; time.sleep(30)'])\n"
         "time.sleep(0.3)"], start_new_session=True)
    try:
        child.wait(timeout=10)
        leaked = measure.process_group_members(child.pid)
        check(len(leaked) == 1, f"the planted orphan is found ({leaked})")
    finally:
        try:
            os.killpg(child.pid, 9)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5
    while measure.process_group_members(child.pid):
        check(time.monotonic() < deadline, "the orphan dies when killed")
        time.sleep(0.05)

    sleeper = subprocess.Popen([sys.executable, "-c",
                                "import time; time.sleep(30)"])
    try:
        check(sleeper.pid in measure.descendants(os.getpid()),
              "descendants finds a live child")
        check(measure.vm_hwm_mb(sleeper.pid) > 1.0, "VmHWM reads in MB")
    finally:
        sleeper.kill()
        sleeper.wait()
    check(measure.vm_hwm_mb(sleeper.pid) == 0.0, "a gone process reads 0")

    before = measure.shm_segments()
    planted = f"/dev/shm/repro_wire_selftest_{os.getpid()}"
    with open(planted, "w") as handle:
        handle.write("x")
    try:
        check(measure.shm_segments() - before == {planted},
              "the planted segment is found")
    finally:
        os.unlink(planted)


def test_catalogue() -> None:
    """BENCHMARK.json and metrics.py / workloads.py / run.py agree."""
    import run
    from workloads import WORKLOADS

    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(w.name, w.why) for w in WORKLOADS.values()],
          "workload names and reasons")
    check(all(len(w.why) <= 200 and "\n" not in w.why
              for w in WORKLOADS.values()), "a why is one line of <= 200")
    check([(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END],
          "end-to-end metrics")
    check([(m["name"], m["unit"], m["better"])
           for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER],
          "per-layer metrics")
    check(all(bound <= 0.1 for name, _unit, _better, bound
              in END_TO_END + DEMOTED if name != "setup_s"),
          "no bound but the contract's set-up bound exceeds a tenth")
    check(not {m[0] for m in DEMOTED} & {m[0] for m in END_TO_END},
          "a demoted metric is not a contract metric")
    check(spec["run_seconds"] == run.DEFAULT_SECONDS, "run_seconds")
    check(spec["paths"] == ["benchmarks/e2e"], "paths")
    check(spec["command"] == ["python3", "benchmarks/e2e/run.py"], "command")


TESTS: List[Callable[[], None]] = [
    test_slice_median, test_percentiles, test_oracle_ties, test_tally,
    test_closed_loop, test_open_loop, test_span_cover, test_span_switch,
    test_leak_detector, test_catalogue,
]


def main() -> int:
    failed = 0
    for test in TESTS:
        start = time.perf_counter()
        try:
            test()
        except Exception as error:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {test.__name__}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {test.__name__} "
                  f"({(time.perf_counter() - start) * 1e3:.0f} ms)")
    print(f"{len(TESTS) - failed}/{len(TESTS)} selftests passed")
    return 1 if failed else 0
