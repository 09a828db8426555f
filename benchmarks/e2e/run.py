#!/usr/bin/env python3
"""End-to-end benchmark of the similarity-serving stack.

    python benchmarks/e2e/run.py
        every workload, untraced then traced; prints each metric as
        ``name value unit`` and writes benchmarks/e2e/results/run-*.json
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one run; the last stdout line is one JSON object
        {"correct", "attempted", "failed", "metrics"}
    python benchmarks/e2e/run.py --repeat-check
        two sets of five untraced runs per workload on the same code; a
        metric passes when the set medians differ by at most half its
        bound and each set's (max - min) / median stays within the bound
    python benchmarks/e2e/run.py --selftest
        the estimators, the open loop, the oracle, the tally and the leak
        detector against planted inputs; seconds, no services
    python benchmarks/e2e/run.py --quick
        quarter-size databases, 3 s of phases: a smoke run, never a claim

Each run is a child process in its own session with pinned threads, hash
seed and allocator; when it ends — cleanly, wrongly or by Ctrl-C —
whatever is left of its process group is killed and reported, and so is
any ``/dev/shm/repro_wire_*`` segment it left behind. Exit code 0 only
when every answer was right and nothing leaked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUNS_DIR = os.path.join(HERE, ".runs")
RESULTS_DIR = os.path.join(HERE, "results")

#: ``--seconds`` of a recorded run; ``run_seconds`` in BENCHMARK.json
DEFAULT_SECONDS = 10
QUICK_SECONDS = 3
QUICK_SCALE = 0.25
#: the contract gives a run 180 s; stop a wedged child before that
RUN_TIMEOUT = 170.0
REPEAT_SETS = 2
REPEAT_RUNS = 5

#: Pins for the load generator and — through inheritance — every server
#: and worker. One numeric thread and a fixed hash seed are the usual
#: ones. The memory pins are this box's: a page fault on guest memory the
#: host has not backed yet costs ~240 us here, numpy's huge-page advice
#: steers every large temporary onto such memory, and glibc hands a
#: temporary back to the kernel after each call — unpinned, one 16-query
#: call takes anything from 47 ms to 4.5 s (README "Noise"). So every
#: process keeps the memory it frees and asks for no huge pages.
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINS)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (source + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else source)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_once(workload: str, seed: int, seconds: float, trace: int,
             scale: float = 1.0) -> Tuple[Optional[Dict], Optional[Dict],
                                          List[str]]:
    """One run in a fresh child: ``(report, details, problems)``.

    ``problems`` lists what the supervisor itself found wrong: a crash, a
    timeout, a leaked process, a leaked shared-memory segment.
    """
    from measure import process_group_members, shm_segments

    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    shm_before = shm_segments()
    problems: List[str] = []
    report = details = None
    command = [sys.executable, os.path.join(HERE, "onerun.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--run-dir", run_dir, "--scale", str(scale)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=child_environment(), start_new_session=True)
    try:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            problems.append(f"run exceeded {RUN_TIMEOUT:.0f} s")
            _kill_group(child.pid)
            output, _ = child.communicate()
        lines = [line for line in output.splitlines() if line.strip()]
        try:
            report = json.loads(lines[-1]) if lines else None
        except ValueError:
            report = None
        if report is None:
            problems.append(f"no result line (exit code {child.returncode})")
        details_path = os.path.join(run_dir, "details.json")
        if os.path.exists(details_path):
            with open(details_path) as handle:
                details = json.load(handle)
    finally:
        # also the Ctrl-C path: nothing of this run may survive it
        if child.poll() is None:
            _kill_group(child.pid)
            child.wait()
        leaked = process_group_members(child.pid)
        if leaked:
            problems.append(f"leaked processes {leaked}")
            _kill_group(child.pid)
        for segment in sorted(shm_segments() - shm_before):
            problems.append(f"leaked shared memory {segment}")
            try:
                os.unlink(segment)
            except OSError:
                pass
        shutil.rmtree(run_dir, ignore_errors=True)
    return report, details, problems


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def single_run(args) -> int:
    report, _details, problems = run_once(
        args.workload, args.seed, args.seconds, args.trace, args.scale)
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    if report is None:
        return 1
    if problems:
        report["correct"] = False
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


def full_run(args) -> int:
    from measure import fingerprint
    from metrics import DEMOTED
    from workloads import WORKLOADS

    record = {"fingerprint": fingerprint(), "seed": args.seed,
              "seconds": args.seconds, "scale": args.scale,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "workloads": {}}
    failed = False
    for name in WORKLOADS:
        entry: Dict = {}
        for trace in (0, 1):
            report, details, problems = run_once(
                name, args.seed, args.seconds, trace, args.scale)
            kind = "traced" if trace else "untraced"
            entry[kind] = {"report": report, "details": details,
                           "problems": problems}
            for problem in problems:
                print(f"benchmark: {name} {kind}: {problem}",
                      file=sys.stderr)
            if report is None or problems or not report["correct"]:
                failed = True
            if report is not None:
                for metric, value in report["metrics"].items():
                    print(f"{name}.{metric} {value['value']:.6g} "
                          f"{value['unit']}")
            if details is not None and not trace:
                for metric, unit, _better, _bound in DEMOTED:
                    print(f"{name}.{metric} {details['demoted'][metric]:.6g}"
                          f" {unit} (demoted)")
        record["workloads"][name] = entry
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR,
                        time.strftime("run-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if failed else 0


def repeat_check(args) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    from measure import fingerprint, iqr_share, median, spread
    from metrics import DEMOTED, END_TO_END
    from workloads import WORKLOADS

    record = {"fingerprint": fingerprint(), "seconds": args.seconds,
              "sets": REPEAT_SETS, "runs_per_set": REPEAT_RUNS,
              "workloads": {}}
    passed = True
    for name in WORKLOADS:
        sets: List[List[Dict[str, float]]] = []
        seed = args.seed
        for _ in range(REPEAT_SETS):
            rows = []
            for _ in range(REPEAT_RUNS):
                report, details, problems = run_once(
                    name, seed, args.seconds, 0, args.scale)
                seed += 1
                if report is None or problems or not report["correct"]:
                    print(f"benchmark: {name} seed {seed - 1} failed: "
                          f"{problems}", file=sys.stderr)
                    passed = False
                    continue
                rows.append(details["end_to_end"] | details["demoted"])
            sets.append(rows)
        entry = {}
        for metric, unit, better, bound in END_TO_END + DEMOTED:
            columns = [[row[metric] for row in rows] for rows in sets]
            if any(not column for column in columns):
                continue
            medians = [median(column) for column in columns]
            ranges = [spread(column) for column in columns]
            worse = (medians[1] - medians[0]) / medians[0]
            if better == "higher":
                worse = -worse
            gap = abs(medians[1] - medians[0]) / medians[0]
            share = iqr_share([value for column in columns
                               for value in column])
            # the issue's rule (gap, in-set range) and the driver's
            # (interquartile share of the ten runs), both
            ok = gap <= bound / 2 and max(ranges) <= bound and share <= bound
            demoted = (metric, unit, better, bound) in DEMOTED
            passed = passed and (ok or demoted)
            entry[metric] = {
                "unit": unit, "bound": bound, "set_medians": medians,
                "set_ranges": ranges, "median_gap": gap,
                "second_worse_by": worse, "iqr_share_of_all_runs": share,
                "values": columns, "pass": ok, "demoted": demoted}
            print(f"{name}.{metric}: medians {medians[0]:.5g} / "
                  f"{medians[1]:.5g} {unit}, (max-min)/median "
                  f"{ranges[0]:.3f} / {ranges[1]:.3f}, gap {gap:.3f}, "
                  f"IQR share {share:.3f}, bound {bound} "
                  f"{'ok' if ok else 'FAIL'}{' (demoted)' if demoted else ''}")
        record["workloads"][name] = entry
    record["pass"] = passed
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "repeatability.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}; "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmark: the program under test (src/repro) is not in "
              f"{ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    args.scale = QUICK_SCALE if args.quick else 1.0
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        return single_run(args)
    if args.repeat_check:
        return repeat_check(args)
    return full_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:  # run_once has already killed the run's group
        sys.exit(130)
