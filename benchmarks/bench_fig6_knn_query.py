"""Paper Fig. 6 — kNN query response time vs database size.

1,000 queries in the paper, scaled down here: kNN over TrajCL embeddings
via the IVF index vs exact Hausdorff kNN via the segment index with
pruning. Paper shape: the embedding index answers queries about two
orders of magnitude faster, and the gap widens with |D|.
"""

import time

import numpy as np

from repro.datasets import generate_city, get_preset
from repro.eval import format_table
from repro.index import IVFFlatIndex, SegmentHausdorffIndex

from benchmarks.common import SEED, save_result

DB_SIZES = [100, 200, 400]
N_QUERIES = 10
K = 5


def test_fig6_knn_query_time(benchmark, xian_pipeline):
    preset = get_preset("xian")
    pool = generate_city(preset, DB_SIZES[-1], seed=SEED + 80)
    queries = generate_city(preset, N_QUERIES, seed=SEED + 81)
    model = xian_pipeline.model
    query_embeddings = model.encode(queries)

    def run():
        rows = []
        for size in DB_SIZES:
            database = pool[:size]
            embeddings = model.encode(database)
            ivf = IVFFlatIndex(embeddings.shape[1], n_lists=8, n_probe=2)
            ivf.train(embeddings, rng=np.random.default_rng(SEED))
            ivf.add(embeddings)

            start = time.perf_counter()
            ivf.search(query_embeddings, k=K)
            ivf_seconds = time.perf_counter() - start

            segment = SegmentHausdorffIndex()
            segment.build(database)
            start = time.perf_counter()
            for query in queries:
                segment.knn(query, k=K)
            segment_seconds = time.perf_counter() - start

            rows.append([size, ivf_seconds, segment_seconds,
                         segment_seconds / max(ivf_seconds, 1e-9)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["|D|", "TrajCL+IVF (s)", "Hausdorff+segment (s)", "speedup"],
        rows,
    )
    save_result("fig6_knn_query_time", table)

    assert all(row[1] < row[2] for row in rows), (
        "embedding kNN must be faster than heuristic kNN at every size"
    )
    assert rows[-1][3] > 10, "speedup should be at least an order of magnitude"
