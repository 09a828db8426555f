"""End-to-end smoke for the cluster subsystem (``make cluster-smoke``).

Boots two real ``python -m repro cluster-worker`` processes, a
``python -m repro cluster`` front-end over them, runs one ``knn
--remote`` round-trip through a fourth process, and verifies *exact
parity* of the neighbour rows against the plain local CLI path. The
front-end shuts itself down via ``--max-requests`` and, with
``--shutdown-workers``, takes the workers down with it — so a clean run
proves the whole lifecycle: worker boot, coordinator join, sharded kNN,
and cascaded shutdown.
"""

import os
import sys
import tempfile

from smoke_common import (
    TIMEOUT,
    fail,
    popen,
    run,
    terminate,
    wait_for_ready,
)

N_WORKERS = 2


def neighbour_rows(text):
    """The '#n: trajectory ...' result lines, whitespace-normalized."""
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith("#")]


def main() -> int:
    python = sys.executable

    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as tmp:
        data = os.path.join(tmp, "city.npz")
        generated = run([python, "-m", "repro", "generate", "--city", "porto",
                         "--count", "25", "--seed", "0", "--output", data])
        if generated.returncode != 0:
            return fail("cluster-smoke: dataset generation failed")

        worker_procs, workers = [], []
        front = None
        try:
            for n in range(N_WORKERS):
                ready = os.path.join(tmp, f"worker-{n}.ready")
                proc = popen([python, "-m", "repro", "cluster-worker",
                              "--port", "0", "--ready-file", ready])
                worker_procs.append(proc)
                try:
                    workers.append(wait_for_ready(ready, proc, f"worker {n}"))
                except RuntimeError as error:
                    return fail(f"cluster-smoke: {error}")
            print(f"cluster-smoke: workers ready on {', '.join(workers)}",
                  flush=True)

            # knn --remote issues two requests (knn + stats): the front-end
            # trips --max-requests, exits, and shuts the workers down too.
            ready = os.path.join(tmp, "front.ready")
            front = popen([python, "-m", "repro", "cluster", "--data", data,
                           "--backend", "frechet",
                           "--workers", ",".join(workers), "--port", "0",
                           "--ready-file", ready, "--max-requests", "2",
                           "--shutdown-workers"])
            try:
                address = wait_for_ready(ready, front, "cluster front-end")
            except RuntimeError as error:
                return fail(f"cluster-smoke: {error}")
            print(f"cluster-smoke: front-end ready on {address}", flush=True)

            remote = run([python, "-m", "repro", "knn", "--data", data,
                          "--query", "1", "--k", "3", "--remote", address],
                         capture_output=True, text=True)
            sys.stdout.write(remote.stdout)
            sys.stderr.write(remote.stderr)
            if remote.returncode != 0:
                return fail("cluster-smoke: remote knn failed")

            local = run([python, "-m", "repro", "knn", "--data", data,
                         "--backend", "frechet", "--query", "1", "--k", "3"],
                        capture_output=True, text=True)
            if local.returncode != 0:
                return fail("cluster-smoke: local knn failed")
            rows = neighbour_rows(remote.stdout)
            if not rows:
                return fail("cluster-smoke: remote knn returned no "
                            "neighbours")
            if rows != neighbour_rows(local.stdout):
                print("remote:", rows, file=sys.stderr)
                print("local: ", neighbour_rows(local.stdout),
                      file=sys.stderr)
                return fail("cluster-smoke: cluster kNN disagrees with the "
                            "local service")
            print("cluster-smoke: cluster kNN matches the local service",
                  flush=True)

            front.wait(timeout=TIMEOUT)
            if front.returncode != 0:
                return fail(
                    f"cluster-smoke: front-end exited {front.returncode}")
            for n, proc in enumerate(worker_procs):
                proc.wait(timeout=TIMEOUT)
                if proc.returncode != 0:
                    return fail(f"cluster-smoke: worker {n} exited "
                                f"{proc.returncode}")
        finally:
            if front is not None:
                terminate(front)
            for proc in worker_procs:
                terminate(proc)
    print("cluster-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
