"""End-to-end fault-tolerance smoke (``make chaos-smoke``).

The ROADMAP's headline robustness claim, exercised against real worker
processes:

1. boots three ``python -m repro cluster-worker`` processes and a
   replicated (``replication=2``) in-process coordinator over them;
2. runs seeded kNN traffic and SIGKILLs one worker mid-stream — every
   query must still answer, bit-identical to a single local service
   (zero failed queries, zero shrunken answers);
3. boots a replacement process, ``rejoin``\\ s it under the dead
   worker's id, and verifies the cluster reports fully healthy again
   (all shards back to R healthy replicas) with parity intact;
4. re-fronts the same workers through the test harness's
   ``ChaosCoordinator`` (``tests/chaos.py``): a seeded schedule of
   connection drops and latency spikes on every link, and demands the
   same — injected faults, zero failed queries, exact answers.

Everything is deterministic — fixed data seed, fixed chaos seed — so a
run that passes once passes forever.
"""

import os
import sys

import numpy as np

from smoke_common import (TIMEOUT, fail, popen, repo_root, terminate,
                          wait_for_ready)

sys.path.insert(0, os.path.join(repo_root(), "src"))
sys.path.insert(0, repo_root())  # the fault-injection harness, tests/chaos.py

N_WORKERS = 3
KILL_AT = 8          # query index at which worker 1 is SIGKILLed
ROUNDS = 20


def boot_worker(python, tmp, name):
    ready = os.path.join(tmp, f"{name}.ready")
    proc = popen([python, "-m", "repro", "cluster-worker",
                  "--port", "0", "--ready-file", ready])
    address = wait_for_ready(ready, proc, name)
    return proc, address


def expect_parity(got, expected, what):
    if (got[0].tobytes() != expected[0].tobytes()
            or got[1].tobytes() != expected[1].tobytes()):
        raise RuntimeError(f"{what}: cluster kNN diverged from the "
                           "single-service reference")


def main() -> int:
    import tempfile

    from repro.api import ClusterCoordinator, SimilarityService
    from tests.chaos import ChaosConfig, ChaosCoordinator

    # Seeded so the schedule is reproducible: drops land on query traffic
    # (handled by replica failover), never on the join handshake.
    chaos = ChaosConfig(seed=4, drop_rate=0.04, latency_rate=0.3,
                        latency_ms=2.0)

    python = sys.executable
    rng = np.random.default_rng(0)
    trajectories = [rng.normal(size=(int(rng.integers(6, 14)), 2))
                    .cumsum(axis=0) for _ in range(30)]
    reference = SimilarityService(backend="hausdorff").add(trajectories)
    expected = reference.knn(trajectories[:4], k=5, exclude=1)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        procs = {}
        cluster = None
        try:
            addresses = []
            for n in range(N_WORKERS):
                proc, address = boot_worker(python, tmp, f"worker-{n}")
                procs[n] = proc
                addresses.append(address)
            print(f"chaos-smoke: workers ready on {', '.join(addresses)}",
                  flush=True)

            # -- phase 1+2: replicated traffic with a SIGKILL mid-stream --
            cluster = ClusterCoordinator(addresses, backend="hausdorff",
                                         replication=2,
                                         heartbeat_interval=0.5,
                                         heartbeat_timeout=2.0)
            cluster.add(trajectories)
            failures = 0
            for round_number in range(ROUNDS):
                if round_number == KILL_AT:
                    procs[1].kill()  # worker death, the ungraceful kind
                    print("chaos-smoke: SIGKILLed worker 1 mid-traffic",
                          flush=True)
                try:
                    got = cluster.knn(trajectories[:4], k=5, exclude=1)
                except Exception as error:
                    print(f"chaos-smoke: query {round_number} failed: "
                          f"{error}", file=sys.stderr)
                    failures += 1
                    continue
                expect_parity(got, expected, f"query {round_number}")
            if failures:
                return fail(f"chaos-smoke: {failures} failed queries after "
                            "the worker kill (expected zero)")
            print(f"chaos-smoke: {ROUNDS} queries exact across the kill, "
                  "zero failures", flush=True)

            # -- phase 3: replacement process rejoins under the same id --
            proc, address = boot_worker(python, tmp, "worker-1-replacement")
            procs["replacement"] = proc
            restored = cluster.rejoin("worker-1", address=address)
            stats = cluster.stats()
            if stats["degraded"] or stats["underreplicated"]:
                return fail(f"chaos-smoke: cluster not healthy after "
                            f"rejoin: {stats['degraded']} degraded, "
                            f"{stats['underreplicated']} under-replicated")
            got = cluster.knn(trajectories[:4], k=5, exclude=1)
            expect_parity(got, expected, "post-rejoin query")
            print(f"chaos-smoke: worker-1 rejoined ({restored}), cluster "
                  "fully replicated again", flush=True)
            cluster.close()
            cluster = None

            # -- phase 4: seeded chaos schedule on every link --
            cluster = ChaosCoordinator(
                chaos, [addresses[0], address, addresses[2]],
                backend="hausdorff", replication=2, heartbeat_interval=0)
            cluster.add(trajectories)
            failures = 0
            for round_number in range(12):
                try:
                    got = cluster.knn(trajectories[:4], k=5, exclude=1)
                except Exception as error:
                    print(f"chaos-smoke: chaos query {round_number} "
                          f"failed: {error}", file=sys.stderr)
                    failures += 1
                    continue
                expect_parity(got, expected, f"chaos query {round_number}")
            injected = cluster.stats()["chaos"]
            if failures:
                return fail(f"chaos-smoke: {failures} failed queries under "
                            f"{chaos} (expected zero)")
            if not injected["operations"]:
                return fail("chaos-smoke: chaos stats recorded no "
                            "operations — injection was not armed")
            if not injected["drops"]:
                return fail("chaos-smoke: the seeded schedule injected no "
                            "connection drops — nothing was survived")
            print(f"chaos-smoke: 12 queries exact under {chaos} "
                  f"(injected: {injected})", flush=True)
            cluster.close(shutdown_workers=True)
            cluster = None

            for name in (0, 2, "replacement"):
                procs[name].wait(timeout=TIMEOUT)
                if procs[name].returncode != 0:
                    return fail(f"chaos-smoke: worker {name} exited "
                                f"{procs[name].returncode}")
        except RuntimeError as error:
            return fail(f"chaos-smoke: {error}")
        finally:
            if cluster is not None:
                cluster.close()
            for proc in procs.values():
                terminate(proc)
    print("chaos-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
