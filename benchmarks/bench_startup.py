"""Cold-start benchmark: what a process pays to import what it serves.

For each entry point — ``numpy`` (the floor), ``repro``, ``repro.index``,
``repro.api``, ``repro.api.cluster``, ``repro.api.gateway``,
``repro.cli`` — a fresh interpreter imports it and reports the import's
wall time, ``ru_maxrss`` afterwards, and how many ``repro.*`` and
third-party modules ended up in ``sys.modules``; the record keeps the
median over ``--repeats`` interpreters. The last row is a real
``python -m repro cluster-worker`` from ``exec`` to its ready file: the
price of every worker a coordinator starts, restarts or rejoins.

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
    "numpy", "repro", "repro.index", "repro.api", "repro.api.cluster",
    "repro.api.gateway", "repro.cli",
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

    if args.output:
        record = {"runs": {}}
        if os.path.exists(args.output):
            with open(args.output) as handle:
                record = json.load(handle)
        record["runs"][args.label] = {
            "fingerprint": fingerprint(), "repeats": args.repeats,
            "entry_points": entry_points, "cluster_worker": worker,
        }
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
