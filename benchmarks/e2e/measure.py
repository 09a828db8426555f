"""Estimators, the kNN oracle and /proc helpers shared by the benchmark.

Everything here is pure or reads only ``/proc`` and ``/dev/shm``; nothing
imports the program under test, so ``--selftest`` can exercise it in
seconds without starting a service.
"""

from __future__ import annotations

import glob
import os
import platform
import statistics
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: percentiles a latency summary may report, lowest first
_TAIL_CANDIDATES = (90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a percentile before it is reported
_MIN_BEYOND = 10

#: shared-memory segments the program's pipe transport creates
SHM_PATTERN = "/dev/shm/repro_wire_*"


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (0.0 when empty)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even p90 is not supported."""
    best = None
    for q in _TAIL_CANDIDATES:
        if round(count * (100.0 - q) / 100.0, 6) >= _MIN_BEYOND:
            best = q
    return best


def latency_summary(samples_s: Sequence[float]) -> Dict:
    """Median plus the highest supported tail, with the sample count.

    Tails go to the result file only: they do not repeat within a tenth
    on a shared box, so they are never end-to-end metrics.
    """
    ms = [s * 1e3 for s in samples_s]
    out = {"count": len(ms), "p50_ms": median(ms)}
    tail = highest_supported_percentile(len(ms))
    if tail is not None:
        out["tail_percentile"] = tail
        out["tail_ms"] = percentile(ms, tail)
        out["tail_samples_beyond"] = int(round(
            len(ms) * (100.0 - tail) / 100.0, 6))
    return out


def slice_median_rate(slices: Sequence[Tuple[int, float]]) -> float:
    """Median rate over equal slices, the first (post-warm-up) one dropped.

    A median over slices — never a best window, never total / wall — so a
    burst from a noisy neighbour moves one slice, not the estimate.
    """
    rates = [count / elapsed for count, elapsed in slices
             if count > 0 and elapsed > 0]
    return median(rates[1:] if len(rates) > 1 else rates)


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` of one set of runs (0 when degenerate)."""
    mid = median(values)
    return (max(values) - min(values)) / mid if len(values) and mid else 0.0


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
#: Reference speed is a definition, not a calibration: the speed at which
#: one pass of the reference kernel takes this long. A time "at reference
#: speed" is the measured time in kernel passes of its own moment, times
#: this constant — on any host. (1 ms is about what this box needs when
#: nothing disturbs it, so the numbers read like its quiet wall-clock.)
REFERENCE_SECONDS = 1.0e-3
#: kernel passes per speed mark; an interval lies between two marks
MARK_PASSES = 5

_REF_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_REF_B = np.linspace(0.0, 1.0, 64 * 256).reshape(64, 256)
_REF_C = np.linspace(0.0, 1.0, 1250 * 64).reshape(1250, 64)


def reference_kernel_seconds() -> float:
    """How long a fixed piece of work takes right now (median of passes).

    Interpreter loop, small matrix products with a transcendental, one
    streaming pass — about 0.15 / 0.5 / 0.35 of a pass, the mix a one-query
    call showed when its time was regressed on the three parts (README
    "Noise"): a neighbour on the core slows the three by different
    factors, and a kernel of another mix than the program mis-corrects by
    the difference. None of it is the program's code, so no edit to the
    program changes the work. It runs in the load generator, so on the
    in-process workloads it shares heap and caches with the program; what
    the program leaves there reaches it.
    """
    seconds = []
    for _ in range(MARK_PASSES):
        start = perf_counter()
        total = 0
        for value in range(3800):
            total += value * value
        for _ in range(6):
            np.tanh(_REF_A @ _REF_B)
        for _ in range(2):
            np.abs(_REF_C - _REF_C[7]).sum(axis=1)
        seconds.append(perf_counter() - start)
    return float(statistics.median(seconds))


def cpu_ticks(cpu: int) -> Tuple[int, int]:
    """``(busy, total)`` jiffies of one CPU since boot (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(f"cpu{cpu} "):
                fields = [int(value) for value in line.split()[1:9]]
                idle = fields[3] + fields[4]  # idle + iowait
                return sum(fields) - idle, sum(fields)
    return 0, 0


class SpeedMark:
    """One reading of the box: the reference kernel's time, and the CPU's
    tick counters just before and just after it ran."""

    def __init__(self, cpu: int):
        self.before = cpu_ticks(cpu)
        self.kernel_seconds = reference_kernel_seconds()
        self.after = cpu_ticks(cpu)


def reference_scale(first: SpeedMark, second: SpeedMark) -> float:
    """Factor carrying a wall time measured between two marks to reference
    speed.

    The box's speed drifts by tens of percent for minutes at a time. Of
    the interval, only the part the CPU was busy scales with that speed;
    timers and sleeps do not. With ``slowdown`` the kernel's time now over
    its reference time and ``busy`` the CPU's busy share of the interval,
    the interval would have taken ``(1 - busy) + busy / slowdown`` of its
    wall time at reference speed.
    """
    slowdown = ((first.kernel_seconds + second.kernel_seconds) / 2
                / REFERENCE_SECONDS)
    busy_ticks = second.before[0] - first.after[0]
    total_ticks = second.before[1] - first.after[1]
    busy = min(1.0, max(0.0, busy_ticks / total_ticks)) if total_ticks else 1.0
    return (1.0 - busy) + busy / slowdown


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def oracle_topk(query: np.ndarray, database: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact float64 L1 top-``k`` of one query: ``(distances, ids)``,
    equal distances ordered by id."""
    distances = np.abs(database.astype(np.float64)
                       - query.astype(np.float64)).sum(axis=1)
    order = np.lexsort((np.arange(len(distances)), distances))[:k]
    return distances[order], order.astype(np.int64)


def recall_against(ids: Sequence[int], oracle_d: np.ndarray,
                   oracle_i: np.ndarray, database: np.ndarray,
                   query: np.ndarray) -> Tuple[int, bool]:
    """``(hits, identical)`` of one answer against its oracle row.

    A returned id is a hit when it is in the oracle's top-k, or ties the
    oracle's k-th distance within float round-off (the service encodes
    in other batch shapes than the oracle, which moves the last bits).
    """
    ids = np.asarray(ids, dtype=np.int64)
    identical = bool(len(ids) == len(oracle_i)
                     and np.array_equal(ids, oracle_i))
    if identical:
        return len(oracle_i), True
    kth = float(oracle_d[-1])
    tolerance = 1e-9 * max(1.0, abs(kth))
    wanted = set(int(i) for i in oracle_i)
    hits, seen = 0, set()
    for item in ids:
        item = int(item)
        if item < 0 or item >= len(database) or item in seen:
            continue
        seen.add(item)
        if item in wanted:
            hits += 1
        else:
            own = float(np.abs(database[item].astype(np.float64)
                               - query.astype(np.float64)).sum())
            if own <= kth + tolerance:
                hits += 1
    return min(hits, len(oracle_i)), False


# ----------------------------------------------------------------------
# Processes, memory, leaks
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the
    # last ')'
    return text[text.rfind(")") + 2:].split()


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> List[int]:
    """Live descendants of ``root`` (children, grandchildren, ...)."""
    parents: Dict[int, int] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z":
            parents[pid] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        current = frontier.pop()
        for pid, parent in parents.items():
            if parent == current:
                found.append(pid)
                frontier.append(pid)
    return sorted(found)


def process_group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if (fields is not None and fields[0] != "Z"
                and int(fields[2]) == pgid):
            members.append(pid)
    return sorted(members)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process in MB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments() -> set:
    return set(glob.glob(SHM_PATTERN))


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def fingerprint() -> Dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("name", "unknown")
    except Exception:  # numpy builds differ in what show_config offers
        pass
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
    }
