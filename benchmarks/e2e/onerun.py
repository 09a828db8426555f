"""One benchmark run in this process: prep, set-up, phases, verification.

``run.py`` starts this file as a child (own session, pinned thread and
hash environment) and relays its last stdout line. The program under
test only ever sees the generated inputs — never the workload name or
the seed.

Untraced run (end-to-end metrics), ``T = --seconds``::

    prep | 2 set-ups | warm-up 0.1 T | 12 rounds of (single slice, batch
    slice) sharing 0.5 T and 0.4 T | recall check | ingest | self check

Interleaving the single and batch slices spreads each metric's samples
over the whole query window, so a slow spell of the box moves a few
slices of both instead of all slices of one.

Traced run (per-layer metrics): one set-up with span shims in every
process, then one single window (0.3 T), a cache-hit replay, one-query
calls with the spans switched off and on in turn (0.2 T), one batch window
(0.1 T), round-trip probes, two open loops (0.2 T each, served workloads
only), recall check, four ingest chunks.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List

# interpreter start is over, the heavy imports (numpy, the program) are
# not: prep_s counts from here
PROCESS_START = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import numpy as np

import layers
from loadgen import Tally, closed_loop_slice, open_loop
from measure import (REFERENCE_SECONDS, SpeedMark, latency_summary, median,
                     oracle_topk, recall_against, reference_scale,
                     slice_median_rate, vm_hwm_mb)
from metrics import DEMOTED, END_TO_END, PER_LAYER
from workloads import (CITY, K, SETUP_CHUNK, SYSTEMS, WORKLOADS,
                       build_backend)

#: set-ups of an untraced run; ``setup_s`` is their median, the last one
#: serves the run. A third would cost 3-5 s of each of the driver's 92 runs.
SETUPS = 2
ROUNDS = 12
BATCH = 16
INGEST_CHUNK = 256
INGEST_CHUNKS = 10
TRACED_INGEST_CHUNKS = 4
#: recall check: an exact index must score 1.0 on every query, so 128 do;
#: an approximate one is an estimate, and 128 queries leave it +-0.02
VERIFY_EXACT = 128
VERIFY_APPROXIMATE = 512
SELF_CHECKS = 32
REPLAY_QUERIES = 200
#: traced run: share of T spent on calls with the spans off and on in turn
OVERHEAD_SHARE = 0.2
BASE_POOL = 768
#: pool sizing only: requests prepared per caller-second. A program that
#: outruns its pool ends the slice early, and the slice rate still reads
#: right because a slice is timed to its last completion.
SINGLE_POOL_RATE = {"inproc": 600, "remote": 400, "http": 60}
BATCH_POOL_RATE = {"inproc": 100, "remote": 80, "http": 30}


class Inputs:
    """Everything the run feeds the program, generated from ``--seed``."""

    def __init__(self, db_size: int, seed: int):
        from repro.datasets import generate_city, get_preset

        preset = get_preset(CITY)
        self.database: List[np.ndarray] = generate_city(
            preset, db_size, seed=seed)
        self._base = generate_city(preset, BASE_POOL, seed=seed + 1_000_003)
        self._rng = np.random.default_rng(seed + 2_000_003)
        self._cursor = 0

    def fresh(self, count: int) -> List[np.ndarray]:
        """Never-seen trajectories: a base trip moved by a few metres, so
        its content hash — the embedding-cache key — is new every time."""
        out = []
        for _ in range(count):
            base = self._base[self._cursor % len(self._base)]
            self._cursor += 1
            out.append(base + self._rng.uniform(-25.0, 25.0, size=(1, 2)))
        return out


def encode_all(backend, trajectories: List[np.ndarray]) -> np.ndarray:
    """Embeddings in the service's own 256-chunks (same batch shapes, so
    the same last bits wherever the program encodes in that order)."""
    blocks = [backend.encode(trajectories[start:start + 256])
              for start in range(0, len(trajectories), 256)]
    return np.concatenate(blocks).astype(np.float64)


def shape_check(queries: int):
    def check(result) -> bool:
        distances, ids = result
        return (np.shape(distances) == (queries, K)
                and np.shape(ids) == (queries, K))
    return check


def accept_none(_result) -> bool:
    return True


class Run:
    """State of one run; ``execute`` walks the phases."""

    def __init__(self, args, cpu: int):
        self.args = args
        workload = WORKLOADS[args.workload]
        if args.scale != 1.0:
            workload = dataclasses.replace(
                workload, db_size=max(256, int(workload.db_size * args.scale)))
        self.workload = workload
        self.cpu = cpu  # the hardware thread this run is confined to
        self.seconds = float(args.seconds)
        self.traced = bool(args.trace)
        self.tally = Tally()
        self.details: Dict = {"workload": workload.name, "seed": args.seed,
                              "seconds": self.seconds, "trace": args.trace,
                              "db_size": workload.db_size}
        self.marks: Dict[str, tuple] = {}
        self.kernel_seconds: List[float] = []  # of every speed mark taken
        self.tracer = None
        if self.traced:
            from spans import Tracer, install

            self.tracer = Tracer(args.run_dir)
            install(self.tracer)
        self.system = SYSTEMS[workload.system](
            workload, trace_dir=args.run_dir if self.traced else None)
        self.failures: List[str] = []

    # -- prep ----------------------------------------------------------
    def prepare(self) -> None:
        system, workload, T = self.system, self.workload, self.seconds
        inputs = Inputs(workload.db_size, self.args.seed)
        # the in-process system already built the encoder; its weights are
        # configuration, so the oracle may read them from the same object
        self.oracle_backend = getattr(system, "backend", None) \
            or build_backend()
        self.oracle_db = encode_all(self.oracle_backend, inputs.database)
        self.prepared_db = [
            system.prepare_add(inputs.database[start:start + SETUP_CHUNK])
            for start in range(0, workload.db_size, SETUP_CHUNK)]

        def singles(count):
            return [system.prepare_query([q]) for q in inputs.fresh(count)]

        def batches(count):
            return [system.prepare_query(inputs.fresh(BATCH))
                    for _ in range(count)]

        single_rate = SINGLE_POOL_RATE[workload.system]
        batch_rate = BATCH_POOL_RATE[workload.system]
        clients = workload.clients
        self.first_query = inputs.fresh(1)
        self.warm_pools = [singles(math.ceil(0.07 * T * single_rate) + 4)
                           for _ in range(clients)]
        self.warm_batches = batches(math.ceil(0.03 * T * batch_rate) + 2)
        # traced: one window each; untraced: ROUNDS interleaved slices
        single_share, batch_share, rounds = (
            (0.3, 0.1, 1) if self.traced else (0.5, 0.4, ROUNDS))
        self.single_slice = single_share * T / rounds
        self.batch_slice = batch_share * T / rounds

        def single_pools(seconds):
            return [singles(math.ceil(seconds * single_rate) + 4)
                    for _ in range(clients)]

        self.single_pools = [single_pools(self.single_slice)
                             for _ in range(rounds)]
        self.batch_pools = [batches(math.ceil(self.batch_slice * batch_rate)
                                    + 2) for _ in range(rounds)]
        verify = inputs.fresh(VERIFY_EXACT if workload.exact
                              else VERIFY_APPROXIMATE)
        groups = ([verify[i:i + 1] for i in range(BATCH)]
                  + [verify[i:i + BATCH]
                     for i in range(BATCH, len(verify), BATCH)])
        self.verify_calls = [(group, system.prepare_query(group))
                             for group in groups]
        chunks = TRACED_INGEST_CHUNKS if self.traced else INGEST_CHUNKS
        self.ingest_raw = [inputs.fresh(INGEST_CHUNK) for _ in range(chunks)]
        self.ingest_chunks = [system.prepare_add(chunk)
                              for chunk in self.ingest_raw]
        if self.traced:
            self.overhead_pool = singles(
                math.ceil(OVERHEAD_SHARE * T * single_rate) + 4)
            if system.served:
                # both open loops (50 % + 80 % of capacity) share one pool
                self.open_pool = singles(
                    math.ceil(1.3 * 0.2 * T * single_rate * clients) + 4)
        self.details["prep_s"] = perf_counter() - PROCESS_START

    # -- phases --------------------------------------------------------
    def knn_calls(self) -> List:
        callers = [self.system.caller(i)
                   for i in range(self.workload.clients)]
        if self.tracer is None:
            return [caller.knn for caller in callers]
        return [self.tracer.wrap(caller.knn, "client.knn")
                for caller in callers]

    def oracle_row(self, query: np.ndarray):
        embedding = self.oracle_backend.encode([query])[0]
        return embedding, oracle_topk(embedding, self.oracle_db, K)

    def speed_mark(self) -> SpeedMark:
        mark = SpeedMark(self.cpu)
        self.kernel_seconds.append(mark.kernel_seconds)
        return mark

    def one_setup(self) -> List[tuple]:
        """First call into the program → first correct answer, as
        ``(seconds, scale)`` per step: processes and handshake, every chunk
        of the database, the first ``knn``. A speed mark after each step."""
        steps: List[tuple] = []
        mark = self.speed_mark()

        def step(call: Callable):
            nonlocal mark
            start = perf_counter()
            result = call()
            seconds = perf_counter() - start
            before, mark = mark, self.speed_mark()
            steps.append((seconds, reference_scale(before, mark)))
            return result

        def open_system():
            self.system.start()
            return self.system.caller()

        window = perf_counter()
        caller = step(open_system)
        for chunk in self.prepared_db:
            step(lambda: caller.add(chunk))
        first = step(lambda: caller.knn(
            self.system.prepare_query(self.first_query)))
        self.marks["setup"] = (window, perf_counter())
        ids = np.asarray(first[1][0])
        if self.workload.exact:
            embedding, (oracle_d, oracle_i) = self.oracle_row(
                self.first_query[0])
            hits, _same = recall_against(ids, oracle_d, oracle_i,
                                         self.oracle_db, embedding)
            right = hits == K
        else:
            # one approximate answer may miss neighbours; recall is
            # judged over the verification queries, this one on form
            right = (len(set(ids.tolist())) == K and ids.min() >= 0
                     and ids.max() < self.workload.db_size)
        self.tally.record(bool(right), "first_answer_wrong")
        return steps

    def setup(self) -> None:
        self.setups = []
        for attempt in range(1 if self.traced else SETUPS):
            if attempt:
                self.system.close()
            self.setups.append(self.one_setup())

    def warm_up(self) -> None:
        """Both call shapes, so each process has grown its heap to the
        size the timed phases need before they start."""
        calls = self.knn_calls()
        closed_loop_slice(calls, self.warm_pools, 0.07 * self.seconds,
                          self.tally, shape_check(1))
        closed_loop_slice(calls[:1], [self.warm_batches],
                          0.03 * self.seconds, self.tally,
                          shape_check(BATCH))

    def query_rounds(self) -> None:
        """Single and batch slices in turn, a speed mark between any two."""
        calls = self.knn_calls()
        self.single_rounds, self.batch_rounds = [], []
        start = perf_counter()
        mark = self.speed_mark()
        for single_pools, batch_pool in zip(self.single_pools,
                                            self.batch_pools):
            if self.traced:
                self.stats_single = [self.system.stats()]
            window = perf_counter()
            latencies, counted = closed_loop_slice(
                calls, single_pools, self.single_slice, self.tally,
                shape_check(1))
            self.marks.setdefault("single", (window, perf_counter()))
            middle = self.speed_mark()
            self.single_rounds.append(
                (latencies, counted, reference_scale(mark, middle)))
            if self.traced:
                # twice: the second call prices the stats() round itself
                self.stats_single += [self.system.stats(),
                                      self.system.stats()]
                self.replay_seen()
                self.overhead_window(calls[0])
                middle = self.speed_mark()
            window = perf_counter()
            latencies, _counted = closed_loop_slice(
                calls[:1], [batch_pool], self.batch_slice, self.tally,
                shape_check(BATCH))
            self.marks.setdefault("batch", (window, perf_counter()))
            mark = self.speed_mark()
            self.batch_rounds.append(
                (latencies, reference_scale(middle, mark)))
        self.details["query_window_s"] = perf_counter() - start

    @property
    def single_slices(self):
        return [counted for _latencies, counted, _scale in self.single_rounds]

    def replay_seen(self) -> None:
        """Cache hits: queries of the single window, sent once more (for
        at most 0.05 T, so a 50 ms edge does not spend 10 s here)."""
        seen = [self.single_pools[0][0][:REPLAY_QUERIES]]
        latencies, _counted = closed_loop_slice(
            [self.system.caller().knn], seen, 0.05 * self.seconds,
            self.tally, shape_check(1))
        self.details["cache_hit_knn_ms"] = median(latencies) * 1e3

    def overhead_window(self, call: Callable) -> None:
        """What tracing costs: one-query calls from one caller, the spans
        switched off in every process before every other call and on again
        before the next. Alternating call by call, both halves see the same
        box, second by second; slices of 0.2 s each do not (their medians
        differ by 10-20 % on this box, the overhead is 0.1 %)."""
        from spans import catching_pids, switch_spans

        pids = catching_pids([pid for pid in self.system.program_pids()
                              if pid != os.getpid()])
        latencies: Dict[bool, List[float]] = {False: [], True: []}
        untraced_windows = []
        deadline = perf_counter() + OVERHEAD_SHARE * self.seconds
        for position, item in enumerate(self.overhead_pool):
            on = position % 2 == 1
            self.tracer.enabled = on
            switch_spans(pids, on)
            start = perf_counter()
            if start >= deadline:
                break
            ok, _result = self.tally.run(lambda: call(item), shape_check(1))
            if ok:
                latencies[on].append(perf_counter() - start)
                if not on:
                    untraced_windows.append((start, perf_counter()))
        self.tracer.enabled = True
        switch_spans(pids, True)
        untraced, traced = median(latencies[False]), median(latencies[True])
        self.details["tracing"] = {
            "untraced_p50_ms": untraced * 1e3, "traced_p50_ms": traced * 1e3,
            "untraced_samples": len(latencies[False]),
            "traced_samples": len(latencies[True]),
            "overhead_pct": (100.0 * (traced - untraced) / untraced
                             if untraced else 0.0),
            "untraced_windows": untraced_windows}

    def open_loops(self) -> None:
        if not self.system.served:
            return
        count, elapsed = self.single_slices[0]
        capacity = count / elapsed if elapsed else 0.0
        calls = [self.system.caller(i).knn
                 for i in range(self.workload.clients)]
        rows = {}
        cursor = 0
        for share in (0.5, 0.8):
            rate = share * capacity
            wanted = int(rate * 0.2 * self.seconds)
            items = self.open_pool[cursor:cursor + wanted]
            cursor += wanted
            rows[share] = open_loop(calls, items, rate, 0.2 * self.seconds,
                                    self.tally, shape_check(1))
        self.details["open_loop"] = {
            str(share): {key: value for key, value in row.items()
                         if key != "latencies_s"}
            | latency_summary(row["latencies_s"])
            for share, row in rows.items()}
        self.open_rows = rows

    def verify_recall(self) -> None:
        """Fresh queries against the oracle: the first 16 one by one, the
        rest in 16-query calls, so both call shapes are checked."""
        caller = self.system.caller()
        hits = identical = 0
        for raws, prepared in self.verify_calls:
            ok, result = self.tally.run(lambda: caller.knn(prepared),
                                        shape_check(len(raws)))
            if not ok:
                continue
            for raw, ids in zip(raws, result[1]):
                embedding, (oracle_d, oracle_i) = self.oracle_row(raw)
                row_hits, same = recall_against(
                    ids, oracle_d, oracle_i, self.oracle_db, embedding)
                hits += row_hits
                identical += int(same)
        queries = sum(len(raws) for raws, _prepared in self.verify_calls)
        self.recall = hits / (queries * K)
        self.details["verify_identical_rows"] = identical
        if self.recall < self.workload.recall_floor:
            self.failures.append(
                f"recall_at_10 {self.recall:.4f} below "
                f"{self.workload.recall_floor}")

    def ingest(self) -> None:
        caller = self.system.caller()
        self.ingest_rows = []
        window = perf_counter()
        mark = self.speed_mark()
        for chunk in self.ingest_chunks:
            start = perf_counter()
            ok, _result = self.tally.run(lambda: caller.add(chunk),
                                         accept_none)
            seconds = perf_counter() - start
            before, mark = mark, self.speed_mark()
            if ok:
                self.ingest_rows.append(
                    (seconds, reference_scale(before, mark)))
        self.marks["ingest"] = (window, perf_counter())

    def self_check(self) -> None:
        """Newly added trajectories must find themselves (16 per call)."""
        caller = self.system.caller()
        total = len(self.ingest_raw) * INGEST_CHUNK
        positions = list(range(0, total, max(1, total // SELF_CHECKS)))
        positions = positions[:SELF_CHECKS]
        for start in range(0, len(positions), BATCH):
            group = positions[start:start + BATCH]
            raws = [self.ingest_raw[p // INGEST_CHUNK][p % INGEST_CHUNK]
                    for p in group]
            prepared = self.system.prepare_query(raws)
            ok, result = self.tally.run(lambda: caller.knn(prepared),
                                        shape_check(len(raws)))
            if not ok:
                continue
            for position, distances, ids in zip(group, *result):
                own = self.workload.db_size + position
                found = ids == own
                if self.workload.exact:
                    found &= distances <= 1e-6
                self.tally.record(bool(np.any(found)), "ingested_not_found")

    # -- the run -------------------------------------------------------
    def execute(self) -> Dict:
        self.prepare()
        try:
            self.setup()
            self.warm_up()
            gc.collect()
            gc.freeze()
            self.query_rounds()
            if self.traced:
                self.probes = layers.probe(self)
                self.open_loops()
            self.verify_recall()
            stats_before = self.system.stats() if self.traced else None
            self.ingest()
            self.self_check()
            self.final_stats = self.system.stats()
            self.stats_before_ingest = stats_before
            self.peak_rss_mb = sum(vm_hwm_mb(pid)
                                   for pid in self.system.program_pids())
        finally:
            self.system.close()
            if self.tracer is not None:
                self.tracer.dump()
        return self.report()

    def timings(self, at_reference_speed: bool) -> Dict[str, float]:
        """The five timings, as measured or carried to reference speed."""
        def scaled(scale: float) -> float:
            return scale if at_reference_speed else 1.0

        single = [latency * scaled(scale)
                  for latencies, _counted, scale in self.single_rounds
                  for latency in latencies]
        slices = [(count, elapsed * scaled(scale))
                  for _latencies, (count, elapsed), scale
                  in self.single_rounds]
        batch = median([latency * scaled(scale)
                        for latencies, scale in self.batch_rounds
                        for latency in latencies])
        chunk = median([seconds * scaled(scale)
                        for seconds, scale in self.ingest_rows])
        return {
            "setup_s": median([sum(seconds * scaled(scale)
                                   for seconds, scale in steps)
                               for steps in self.setups]),
            "knn_p50_ms": median(single) * 1e3,
            "knn_qps": slice_median_rate(slices),
            "batch_knn_qps": BATCH / batch if batch else 0.0,
            "ingest_tps": INGEST_CHUNK / chunk if chunk else 0.0,
        }

    def report(self) -> Dict:
        details = self.details
        details["tally"] = self.tally.as_dict()
        details["single_latency"] = latency_summary(
            [latency for latencies, _counted, _scale in self.single_rounds
             for latency in latencies])
        details["batch_call_latency"] = latency_summary(
            [latency for latencies, _scale in self.batch_rounds
             for latency in latencies])
        details["single_slice_rates"] = [
            count / elapsed if elapsed else 0.0
            for count, elapsed in self.single_slices]
        details["ingest_chunk_s"] = [row[0] for row in self.ingest_rows]
        details["setup_steps_s"] = [[seconds for seconds, _scale in steps]
                                    for steps in self.setups]
        details["reference_scale"] = {
            "setup_steps": [[scale for _seconds, scale in steps]
                            for steps in self.setups],
            "single_slices": [row[2] for row in self.single_rounds],
            "batch_slices": [row[1] for row in self.batch_rounds],
            "ingest_chunks": [row[1] for row in self.ingest_rows],
        }
        # how far from reference speed the box was while this run measured
        details["reference_slowdown"] = (median(self.kernel_seconds)
                                         / REFERENCE_SECONDS)
        details["failures"] = self.failures
        details["wall_s"] = perf_counter() - PROCESS_START
        other = {"peak_rss_mb": self.peak_rss_mb,
                 "recall_at_10": self.recall}
        details["as_measured"] = self.timings(False) | other
        values = self.timings(True) | other
        details["end_to_end"] = {name: values[name]
                                 for name, *_rest in END_TO_END}
        details["demoted"] = {name: values[name] for name, *_rest in DEMOTED}
        if self.traced:
            values = layers.per_layer(self)
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit, _better in PER_LAYER}
        else:
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _better, _bound in END_TO_END}
        correct = self.tally.failed == 0 and not self.failures
        return {"correct": correct, "attempted": self.tally.attempted,
                "failed": self.tally.failed, "metrics": metrics,
                "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True,
                        help="scratch directory of this run (spans, details)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="database size multiplier (--quick smoke runs)")
    args = parser.parse_args(argv)

    # One hardware thread for the load generator and everything it starts.
    # The host runs this guest's two virtual CPUs on one core or on two as
    # it pleases, for minutes at a time, so anything that computes in
    # parallel reads one of two values run by run (remote_sharded
    # knn_p50_ms: 4.1 or 8.4 ms). Confined to one thread, a run no longer
    # depends on that; the other thread is left to the kernel.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    report = Run(args, cpu).execute()
    details = report.pop("details")
    with open(os.path.join(args.run_dir, "details.json"), "w") as handle:
        json.dump(details, handle)
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
