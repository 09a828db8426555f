"""Cold-start benchmark: what a process pays to import what it serves.

For each entry point — ``numpy`` (the floor), ``repro``, ``repro.index``,
``repro.trajectory``, ``repro.api``, ``repro.api.cluster``,
``repro.api.gateway``, ``repro.cli`` — a fresh interpreter imports it and reports the import's
wall time, ``ru_maxrss`` afterwards, and how many ``repro.*`` and
third-party modules ended up in ``sys.modules``; the record keeps the
median over ``--repeats`` interpreters. Then a real
``python -m repro cluster-worker`` from ``exec`` to its ready file: the
price of every worker a coordinator starts, restarts or rejoins. The
last rows are the two recovery costs of a ``trajcl`` cluster (the
end-to-end benchmark's model: d = 64, L = 32, a 16 x 16 cell table) over
two workers with replication 2: the ``join`` handshake in milliseconds
and bytes per worker, and ``rejoin()`` of a worker whose two shards hold
2000 trajectories, refilled from the surviving replica, and
``ClusterCoordinator.load`` of a snapshot of those 2000 onto two fresh
workers — seconds each, and how many trajectories were encoded again on
the way.

Runs are kept by ``--label`` in ``benchmarks/results/BENCH_startup.json``
so a before/after pair sits side by side; ``--src`` points the child
interpreters at another checkout (the parent commit)::

    python benchmarks/bench_startup.py --label after \
        --output benchmarks/results/BENCH_startup.json
    python benchmarks/bench_startup.py --label before \
        --src /path/to/parent/src --output benchmarks/results/BENCH_startup.json

Run via ``make bench-startup``. Not part of the tier-1 test suite;
``tests/test_import_graph.py`` gates the module sets behind these numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

ENTRY_POINTS = [
    "numpy", "repro", "repro.index", "repro.trajectory", "repro.api",
    "repro.api.cluster", "repro.api.gateway", "repro.cli",
]

_CHILD = """
import json, resource, sys, time
start = time.perf_counter()
import {module}
elapsed = time.perf_counter() - start
third_party = [
    name for name in sys.modules
    if name.split(".")[0] not in sys.stdlib_module_names
    and name.split(".")[0] not in ("repro", "__main__")
]
print(json.dumps({{
    "import_s": elapsed,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "repro_modules": sum(name.startswith("repro.") for name in sys.modules),
    "third_party_modules": len(third_party),
    "third_party": sorted({{name.split(".")[0] for name in third_party
                           if not name.startswith("_")}}),
}}))
"""


#: trajectories held by the worker that ``rejoin()`` refills
REJOIN_TRAJECTORIES = 2000
RECOVERY_REPEATS = 3

_RECOVERY_CHILD = """
import json, shutil, tempfile, time
import numpy as np
from repro.api import get_backend
from repro.api.cluster import ClusterCoordinator, ShardWorker
from repro.core import FeatureEnrichment, TrajCL, TrajCLConfig
from repro.trajectory import Grid

rng = np.random.default_rng(20230403)
extent = 10000.0
grid = Grid(0.0, 0.0, extent, extent, extent / 16)
config = TrajCLConfig(structural_dim=64, max_len=32, projection_dim=16,
                      queue_size=64, batch_size=8, max_epochs=1,
                      momentum=0.95)
features = FeatureEnrichment(
    grid, rng.normal(0.0, 0.1, size=(grid.n_cells, 64)), max_len=32)
backend = get_backend("trajcl", model=TrajCL(
    features, config, encoder_variant="dual", rng=np.random.default_rng(1)))
trajectories = [
    extent / 2 + np.cumsum(rng.normal(0.0, 30.0, size=(length, 2)), axis=0)
    for length in rng.integers(10, 32, size={count})]


def sent(cluster):
    return cluster.stats()["transport"]["bytes_sent"]


workers = [ShardWorker(), ShardWorker()]
start = time.perf_counter()
cluster = ClusterCoordinator([w.address for w in workers], backend=backend,
                             replication=2, heartbeat_interval=0)
join_s = time.perf_counter() - start
# each stats() is one small round to every worker: two isolate the joins
first, second = sent(cluster), sent(cluster)
cluster.add(trajectories)
snapshot = tempfile.mkdtemp()
cluster.save(snapshot)
workers[1].close()
cluster.knn(trajectories[0], k=1)  # the coordinator notices the death
replacement = ShardWorker()
encoded = cluster.stats()["cache"]["misses"]
start = time.perf_counter()
cluster.rejoin("worker-1", address=replacement.address)
rejoin_s = time.perf_counter() - start
encoded = cluster.stats()["cache"]["misses"] - encoded
cluster.close()
for worker in (workers[0], replacement):
    worker.close()
fresh = [ShardWorker(), ShardWorker()]
start = time.perf_counter()
loaded = ClusterCoordinator.load(snapshot, [w.address for w in fresh],
                                 heartbeat_interval=0)
load_s = time.perf_counter() - start
load_encodes = loaded.stats()["cache"]["misses"]
loaded.close()
for worker in fresh:
    worker.close()
shutil.rmtree(snapshot)
print(json.dumps({{
    "join_ms": join_s * 1e3 / 2,
    "join_bytes": (first - (second - first)) / 2,
    "rejoin_s": rejoin_s,
    "rejoin_encodes": encoded,
    "load_s": load_s,
    "load_encodes": load_encodes,
}}))
"""


def fingerprint() -> Dict:
    import numpy

    return {
        "host": platform.node(), "machine": platform.machine(),
        "kernel": platform.release(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def _env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def measure_import(module: str, src: str, repeats: int) -> Dict:
    runs: List[Dict] = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD.format(module=module)],
            check=True, capture_output=True, text=True, env=_env(src),
        ).stdout
        runs.append(json.loads(out))
    del runs[0]  # the first interpreter warms the page cache for the rest
    times = sorted(run["import_s"] for run in runs)
    return {
        "import_s": round(statistics.median(times), 4),
        "import_s_min": round(times[0], 4),
        "import_s_max": round(times[-1], 4),
        "maxrss_mb": round(statistics.median(
            run["maxrss_mb"] for run in runs), 1),
        "repro_modules": runs[0]["repro_modules"],
        "third_party_modules": runs[0]["third_party_modules"],
        "third_party": runs[0]["third_party"],
    }


def measure_worker_ready(src: str, repeats: int) -> Dict:
    """Seconds from spawning ``cluster-worker`` to its ready file."""
    times: List[float] = []
    with tempfile.TemporaryDirectory() as scratch:
        for attempt in range(repeats):
            ready = os.path.join(scratch, f"ready-{attempt}.txt")
            start = time.perf_counter()
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster-worker",
                 "--port", "0", "--ready-file", ready],
                env=_env(src), stdout=subprocess.DEVNULL,
            )
            try:
                while not os.path.exists(ready):
                    if worker.poll() is not None:
                        raise RuntimeError(
                            f"cluster-worker exited {worker.returncode} "
                            "before it was ready")
                    if time.perf_counter() - start > 60:
                        raise RuntimeError("cluster-worker not ready in 60 s")
                    time.sleep(0.002)
                times.append(time.perf_counter() - start)
            finally:
                worker.terminate()
                worker.wait(timeout=30)
    times.sort()
    return {
        "ready_s": round(statistics.median(times), 4),
        "ready_s_min": round(times[0], 4),
        "ready_s_max": round(times[-1], 4),
    }


def measure_recovery(src: str) -> Dict:
    """``join`` per worker, ``rejoin()`` from a replica and ``load`` of a
    snapshot (medians)."""
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c",
         _RECOVERY_CHILD.format(count=REJOIN_TRAJECTORIES)],
        check=True, capture_output=True, text=True, env=_env(src),
    ).stdout) for _ in range(RECOVERY_REPEATS)]

    def middle(key: str, digits: int) -> float:
        return round(statistics.median(run[key] for run in runs), digits)

    return {
        "join_ms_per_worker": middle("join_ms", 2),
        "join_bytes_per_worker": int(middle("join_bytes", 0)),
        "rejoin_s": middle("rejoin_s", 4),
        "rejoin_trajectories": REJOIN_TRAJECTORIES,
        "rejoin_encodes": int(middle("rejoin_encodes", 0)),
        "load_s": middle("load_s", 4),
        "load_encodes": int(middle("load_encodes", 0)),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description="cold-start cost per entry point, in fresh interpreters")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="the src/ directory the child interpreters "
                             "import repro from (default: this checkout)")
    parser.add_argument("--label", default="current",
                        help="key of this run in the output file")
    parser.add_argument("--repeats", type=int, default=9,
                        help="fresh interpreters per row (median is kept)")
    parser.add_argument("--output",
                        help="merge the run into this JSON, keyed by --label")
    args = parser.parse_args(argv)
    if args.repeats < 7:
        parser.error("--repeats must be at least 7")
    src = os.path.abspath(args.src)

    entry_points = {}
    for module in ENTRY_POINTS:
        row = entry_points[module] = measure_import(module, src, args.repeats)
        print(f"{module:20s} {row['import_s']:7.3f} s  "
              f"{row['maxrss_mb']:6.1f} MB  "
              f"{row['repro_modules']:3d} repro.*  "
              f"{row['third_party_modules']:4d} third-party")
    worker = measure_worker_ready(src, args.repeats)
    print(f"{'cluster-worker ready':20s} {worker['ready_s']:7.3f} s")
    recovery = measure_recovery(src)
    print(f"{'join (per worker)':20s} {recovery['join_ms_per_worker']:7.2f} ms"
          f"  {recovery['join_bytes_per_worker']:8d} bytes")
    print(f"{'rejoin from replica':20s} {recovery['rejoin_s']:7.3f} s  "
          f"{recovery['rejoin_trajectories']:6d} trajectories, "
          f"{recovery['rejoin_encodes']} encoded again")
    print(f"{'load of a snapshot':20s} {recovery['load_s']:7.3f} s  "
          f"{recovery['rejoin_trajectories']:6d} trajectories, "
          f"{recovery['load_encodes']} encoded again")

    if args.output:
        record = {"runs": {}}
        if os.path.exists(args.output):
            with open(args.output) as handle:
                record = json.load(handle)
        record["runs"][args.label] = {
            "fingerprint": fingerprint(), "repeats": args.repeats,
            "entry_points": entry_points, "cluster_worker": worker,
            "recovery": recovery,
        }
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
