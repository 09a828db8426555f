"""End-to-end smoke for the ANN index benchmark.

Drives ``benchmarks/bench_index.py`` as a real subprocess — the same
entry point ``make bench-index`` and CI use — on a downscaled sweep and
checks the acceptance envelope the full 10^5 run is held to:

* the result JSON parses and carries one scenario per requested index;
* pq at 32 subspaces x 256 centroids reaches recall@10 >= 0.8 at >= 4x
  memory reduction vs float32;
* the same pq with its float16 refine tail reaches recall@10 >= 0.98 and
  at least int8's: the tail is the best approximate recall, the reason
  it is kept;
* hnsw reaches recall@10 >= 0.9 while evaluating far fewer distances
  per query than the bruteforce scan (one per database vector);
* int8 lands at ~4x memory reduction with near-exact recall;
* the float indexes store what they are given: the sweep's float32
  vectors cost bruteforce ``4 * dim`` bytes each, and so do the
  (untrained) pq adapter's — 256 at d = 64, not 512 — before and after a
  snapshot round-trip.

Exits nonzero on the first failure, like the other smoke scripts.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from smoke_common import repo_root, run  # noqa: E402

COUNT = 5000
QUERIES = 100
SCENARIOS = ("bruteforce", "pq", "pq_refine", "int8", "hnsw")


def fail(message: str) -> None:
    print(f"FAIL: {message}", flush=True)
    sys.exit(1)


def check_float32_residency(root: str, dim: int) -> None:
    """float32 in -> itemsize x dim bytes per vector, snapshot included."""
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "benchmarks"))
    from bench_index import synthetic_embeddings
    from repro.api import get_index

    vectors = synthetic_embeddings(COUNT, dim)
    for name in ("bruteforce", "pq"):  # pq: the buffer its first search trains on
        index = get_index(name)
        for start in range(0, COUNT, 512):
            index.add(vectors[start:start + 512])
        restored = type(index).restore(*index.state())
        for label, candidate in (("", index), (" after a snapshot", restored)):
            per_vector = candidate.stats()["bytes_per_vector"]
            if per_vector != 4 * dim:
                fail(f"{name}{label} holds float32 vectors at {per_vector} "
                     f"B/vector, not {4 * dim}")


def main() -> None:
    root = repo_root()
    with tempfile.TemporaryDirectory() as tmp:
        output = os.path.join(tmp, "BENCH_index.json")
        proc = run(
            [sys.executable, "benchmarks/bench_index.py",
             "--count", str(COUNT), "--queries", str(QUERIES),
             "--train-sample", str(COUNT), "--pq-subspaces", "32",
             "--indexes", *SCENARIOS, "--output", output],
            cwd=root, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            fail(f"bench_index.py exited {proc.returncode}:\n"
                 f"{proc.stdout}\n{proc.stderr}")
        print(proc.stdout, flush=True)
        with open(output) as handle:
            payload = json.load(handle)

    scenarios = payload.get("scenarios", {})
    expected = {f"{name}_n{COUNT}" for name in SCENARIOS}
    if not expected <= set(scenarios):
        fail(f"missing scenarios: {sorted(expected - set(scenarios))}")

    def results(name):
        return scenarios[f"{name}_n{COUNT}"]["results"]

    if results("bruteforce")["recall_at_10"] != 1.0:
        fail("bruteforce is the ground truth; its recall must be 1.0")

    pq = results("pq")
    if pq["recall_at_10"] < 0.8:
        fail(f"pq recall@10 {pq['recall_at_10']} < 0.8")
    if pq["memory_reduction_vs_float32"] < 4.0:
        fail(f"pq memory reduction {pq['memory_reduction_vs_float32']} < 4x")

    hnsw = results("hnsw")
    if hnsw["recall_at_10"] < 0.9:
        fail(f"hnsw recall@10 {hnsw['recall_at_10']} < 0.9")
    if hnsw["distance_evals_per_query"] >= COUNT:
        fail(f"hnsw evaluated {hnsw['distance_evals_per_query']} distances "
             f"per query; a bruteforce scan does {COUNT}")

    int8 = results("int8")
    if int8["recall_at_10"] < 0.9:
        fail(f"int8 recall@10 {int8['recall_at_10']} < 0.9")
    if int8["memory_reduction_vs_float32"] < 3.5:
        fail(f"int8 memory reduction "
             f"{int8['memory_reduction_vs_float32']} < 3.5x")

    refine = results("pq_refine")["recall_at_10"]
    if refine < 0.98 or refine < int8["recall_at_10"]:
        fail(f"pq_refine recall@10 {refine} is below 0.98 or int8's "
             f"{int8['recall_at_10']}")

    dim = payload["scenarios"][f"bruteforce_n{COUNT}"]["config"]["dim"]
    if results("bruteforce")["bytes_per_vector"] != 4 * dim:
        fail(f"bruteforce stored the sweep's float32 vectors at "
             f"{results('bruteforce')['bytes_per_vector']} B/vector, "
             f"not {4 * dim}")
    check_float32_residency(root, dim)

    print(f"bench-index smoke OK: pq recall {pq['recall_at_10']} at "
          f"{pq['memory_reduction_vs_float32']}x reduction (refined "
          f"{refine}, int8 {int8['recall_at_10']}), hnsw recall "
          f"{hnsw['recall_at_10']} at {hnsw['distance_evals_per_query']} "
          f"evals/query (bruteforce: {COUNT})", flush=True)


if __name__ == "__main__":
    main()
