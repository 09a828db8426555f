"""Frame-size sweep of the local worker link: one round trip.

One frame holding a ``(rows, 64)`` float32 array goes to a forked
:class:`~repro.api.transport.ServiceNode` that echoes it back; the row
is the median round trip in milliseconds (with quartiles) at 64 KiB,
1 MiB, 16 MiB and 64 MiB, with both processes pinned to one CPU and
with one CPU each. The link, ``socketpair``, is
:class:`~repro.api.transport.SocketTransport` over an ``AF_UNIX``
``socket.socketpair()``, the link a ``ShardedSimilarityService`` puts
under each worker. (The ``pipe_*@parent`` rows of
``BENCH_transport.json`` are the ``multiprocessing`` pipe link, with and
without shared memory, recorded before it was removed.)

A second scenario, ``ingest_512``, times the codec alone on the
stack's busiest payload: ``wire.encode`` and ``wire.decode`` of one
set-up chunk as an owner deals it to a shard — 512 porto trajectories
(``(L, 2)`` float64) beside their ``(512, 64)`` float32 embeddings —
as medians with quartiles, plus the frame's byte count.

A third scenario, ``shard_store``, is memory, not time: 4 000 porto
trajectories and their ``(·, 64)`` float32 embeddings go to one
vector-fed :class:`~repro.api.shard.Shard` as an owner deals them —
512-row chunks, each through ``encode_frame`` and ``decode_payload``
over a buffer sized like a transport's receive — and the row is the
tracemalloc bytes the shard then holds per trajectory, beside the bytes
per trajectory of what it was sent (points and vectors).

Rows merge into ``benchmarks/results/BENCH_transport.json`` by name
(``<link>_<size>_cpu<n>``, ``ingest_512`` and ``shard_store``, plus
``@label``), so a
before row is the same command against another checkout::

    PYTHONPATH=/path/to/parent/src python benchmarks/bench_transport.py \
        --scenarios ingest --label parent \
        --output benchmarks/results/BENCH_transport.json

Run via ``make bench-transport``, which pins the e2e benchmark's malloc
settings (no mmap, no trim). Peak memory is about four copies of the
largest frame across the two processes. Not part of tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: frame sizes swept, bytes of float32 payload (``rows`` x 64 columns)
SIZES = {"64KiB": 64 << 10, "1MiB": 1 << 20, "16MiB": 16 << 20,
         "64MiB": 64 << 20}
COLUMNS = 64
#: round trips timed per size: enough samples for quartiles, bounded time
REPEATS = {"64KiB": 400, "1MiB": 100, "16MiB": 20, "64MiB": 8}
#: trajectories in one set-up chunk (``benchmarks/e2e``'s SETUP_CHUNK)
INGEST_CHUNK = 512
INGEST_DIM = 64
#: encode + decode pairs timed for ``ingest_512``
INGEST_REPEATS = 300
#: trajectories the ``shard_store`` shard is fed
STORE_TRAJECTORIES = 4000


def _links() -> Dict[str, Callable[[], Tuple]]:
    """``{name: () -> (parent_end, child_end)}`` for this checkout."""
    import socket

    from repro.api import transport

    sockets = transport.SocketTransport
    return {"socketpair": getattr(sockets, "pair", None) or (
        lambda: tuple(map(sockets, socket.socketpair())))}


def _echo_node(child_end, cpus) -> None:
    from repro.api.transport import ServiceNode

    os.sched_setaffinity(0, cpus)
    ServiceNode(child_end, {"echo": lambda array: array}).serve_forever()


def _quartiles(samples: Sequence[float]) -> Dict:
    q1, median, q3 = (round(float(q), 4)
                      for q in np.percentile(samples, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def _round_trips(make_link: Callable, cpus: Sequence[int]) -> Dict[str, Dict]:
    import multiprocessing

    from repro.api.transport import request

    parent_cpu, child_cpu = cpus[0], cpus[-1]
    os.sched_setaffinity(0, {parent_cpu})
    parent, child = make_link()
    worker = multiprocessing.get_context("fork").Process(
        target=_echo_node, args=(child, {child_cpu}), daemon=True)
    worker.start()
    out = {}
    try:
        for size in SIZES:
            array = np.arange(SIZES[size] // 4, dtype=np.float32).reshape(
                -1, COLUMNS)
            back = request(parent, "echo", array)  # warm-up, and the check
            assert back.tobytes() == array.tobytes()
            del back
            samples = []
            for _ in range(REPEATS[size]):
                start = time.perf_counter()
                request(parent, "echo", array)
                samples.append((time.perf_counter() - start) * 1e3)
            out[size] = {"ms": _quartiles(samples),
                         "frame_bytes": SIZES[size]}
        request(parent, "stop")
    finally:
        worker.join(timeout=10)
        if worker.is_alive():
            worker.kill()
            worker.join()
        parent.close()
    return out


def _ingest_codec(cpu: int) -> Dict:
    """``wire.encode`` / ``wire.decode`` of one owner → shard set-up
    chunk, in ms, on one CPU."""
    from repro.api import wire
    from repro.datasets import generate_city, get_preset

    os.sched_setaffinity(0, {cpu})
    trajectories = [np.asarray(t, dtype=np.float64) for t in generate_city(
        get_preset("porto"), INGEST_CHUNK, seed=0)]
    vectors = np.random.default_rng(0).standard_normal(
        (INGEST_CHUNK, INGEST_DIM)).astype(np.float32)
    message = ("add", {0: (trajectories, vectors)})
    payload = wire.encode(message)
    back = wire.decode(payload)[1][0]             # warm-up, and the check
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(back[0], trajectories))
    encode_ms, decode_ms = [], []
    for _ in range(INGEST_REPEATS):
        start = time.perf_counter()
        wire.encode(message)
        middle = time.perf_counter()
        wire.decode(payload)
        end = time.perf_counter()
        encode_ms.append((middle - start) * 1e3)
        decode_ms.append((end - middle) * 1e3)
    return {"encode_ms": _quartiles(encode_ms),
            "decode_ms": _quartiles(decode_ms),
            "frame_bytes": 8 + len(payload),
            "trajectories": INGEST_CHUNK,
            "points": sum(len(t) for t in trajectories)}


def _shard_store(cpu: int) -> Dict:
    """Bytes one vector-fed shard holds per trajectory once fed through
    the codec, beside the bytes per trajectory it was sent."""
    import tracemalloc

    from repro.api.backends import shard_backend_state
    from repro.api.protocols import BackendDescription
    from repro.api.shard import Shard
    from repro.api.transport import FRAME_HEADER, decode_payload, encode_frame
    from repro.datasets import generate_city, get_preset

    os.sched_setaffinity(0, {cpu})
    trajectories = [np.asarray(t, dtype=np.float64) for t in generate_city(
        get_preset("porto"), STORE_TRAJECTORIES, seed=0)]
    vectors = np.random.default_rng(0).standard_normal(
        (STORE_TRAJECTORIES, INGEST_DIM)).astype(np.float32)
    recipe = shard_backend_state(
        BackendDescription("trajcl", 1.0, INGEST_DIM))

    def feed(shard: Shard, sent: List[bytes]) -> None:
        for frame in sent:
            # what a transport receives the frame body into
            body = np.empty(len(frame) - FRAME_HEADER.size, dtype=np.uint8)
            body[:] = np.frombuffer(frame, np.uint8, offset=FRAME_HEADER.size)
            shard.add(decode_payload(body)[1][0])

    # the owner's side, encoded before anything is counted
    sent = [encode_frame(("add", {0: (trajectories[start:start + INGEST_CHUNK],
                                      vectors[start:start + INGEST_CHUNK])}))
            for start in range(0, STORE_TRAJECTORIES, INGEST_CHUNK)]
    feed(Shard(recipe, index="bruteforce"), sent[:1])  # imports, uncounted
    tracemalloc.start()
    try:
        shard = Shard(recipe, index="bruteforce")
        feed(shard, sent)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(shard) == STORE_TRAJECTORIES
    data = sum(t.nbytes for t in trajectories) + vectors.nbytes
    return {"trajectories": STORE_TRAJECTORIES, "chunk": INGEST_CHUNK,
            "held_bytes": held,
            "held_per_trajectory": round(held / STORE_TRAJECTORIES, 1),
            "data_per_trajectory": round(data / STORE_TRAJECTORIES, 1),
            "held_per_data_byte": round(held / data, 3)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="suffix every row `@label`")
    parser.add_argument("--scenarios", nargs="+",
                        choices=["links", "ingest", "store"],
                        default=["links", "ingest", "store"],
                        help="the link sweep, the ingest codec, the shard "
                             "store's bytes, or any of them")
    parser.add_argument("--output",
                        help="merge the rows here, keyed by name (e.g. "
                             "benchmarks/results/BENCH_transport.json)")
    args = parser.parse_args(argv)

    available = sorted(os.sched_getaffinity(0))
    links = _links()
    suffix = f"@{args.label}" if args.label else ""
    scenarios: Dict[str, Dict] = {}
    rows: List[List] = []
    # cpu1: both processes on one CPU; cpu2: one CPU each
    for count in (1, 2) if "links" in args.scenarios else ():
        if count > len(available):
            print(f"skipping cpu{count}: only {len(available)} CPU(s) here")
            continue
        cpus = available[:count]
        for name in sorted(links):
            for size, result in _round_trips(links[name], cpus).items():
                row = f"{name}_{size}_cpu{count}{suffix}"
                scenarios[row] = {"results": {"link": name, "cpus": count,
                                              **result}}
                ms = result["ms"]
                rows.append([row, ms["median"], f"{ms['q1']}-{ms['q3']}"])
    if "ingest" in args.scenarios:
        row = f"ingest_{INGEST_CHUNK}{suffix}"
        result = _ingest_codec(available[0])
        scenarios[row] = {"results": result}
        for step in ("encode_ms", "decode_ms"):
            ms = result[step]
            rows.append([f"{row} {step[:6]}", ms["median"],
                         f"{ms['q1']}-{ms['q3']}"])
    if "store" in args.scenarios:
        row = f"shard_store{suffix}"
        result = _shard_store(available[0])
        scenarios[row] = {"results": result}
        rows.append([f"{row} B/traj", result["held_per_trajectory"],
                     f"data {result['data_per_trajectory']}"])
    os.sched_setaffinity(0, available)

    from repro.eval import format_table

    print(format_table(["scenario", "ms", "quartiles"], rows))
    if args.output:
        from common import merge_bench_scenarios

        existing = None
        if os.path.exists(args.output):
            with open(args.output) as handle:
                existing = json.load(handle)
        merged = merge_bench_scenarios(
            existing, scenarios,
            {"columns": COLUMNS, "dtype": "float32", "repeats": REPEATS,
             "ingest_repeats": INGEST_REPEATS,
             "malloc": {key: os.environ.get(key) for key in
                        ("MALLOC_MMAP_MAX_", "MALLOC_TRIM_THRESHOLD_")}})
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(merged, handle, indent=2)
        print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
