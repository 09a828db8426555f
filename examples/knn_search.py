"""kNN trajectory search with an IVF vector index (paper §V-E, Fig. 6).

Stands up two :class:`repro.api.SimilarityService` instances over the same
database — TrajCL embeddings behind the IVFFlat (Faiss-style Voronoi)
index, and the Hausdorff heuristic behind the segment (DFT-style) index —
and contrasts build time, query latency and memory, the Fig. 6 / Table IX
comparison.

Run:  python examples/knn_search.py
"""

import time

import numpy as np

from repro.api import SimilarityService
from repro.datasets import generate_city, get_preset
from repro.eval import build_city_pipeline, format_table


def main() -> None:
    print("Pre-training TrajCL on Xi'an-like data...")
    pipeline = build_city_pipeline("xian", n_trajectories=240, train_epochs=2, seed=0)

    print("Generating the search database...")
    database = generate_city(get_preset("xian"), 600, seed=10)
    queries = generate_city(get_preset("xian"), 20, seed=11)

    # --- TrajCL + IVF ---------------------------------------------------
    trajcl = SimilarityService(
        backend=pipeline.model, index="ivf",
        index_kwargs={"n_lists": 16, "n_probe": 4, "seed": 0},
    )
    t0 = time.perf_counter()
    trajcl.add(database)  # encode + index
    _ = trajcl.knn(queries[:1], k=1)  # force the lazy quantizer build
    ivf_build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, ivf_neighbors = trajcl.knn(queries, k=3)
    ivf_query_seconds = time.perf_counter() - t0

    # --- Hausdorff + segment index --------------------------------------
    hausdorff = SimilarityService(backend="hausdorff", index="segment")
    t0 = time.perf_counter()
    hausdorff.add(database)
    _ = hausdorff.knn(queries[:1], k=1)  # force the lazy box build
    segment_build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, segment_neighbors = hausdorff.knn(queries, k=3)
    segment_query_seconds = time.perf_counter() - t0

    print()
    print(format_table(
        ["method", "build (s)", "query 20x3NN (s)", "memory (MB)"],
        [
            ["TrajCL + IVF", ivf_build_seconds, ivf_query_seconds,
             trajcl.index.memory_bytes / 1e6],
            ["Hausdorff + segment idx", segment_build_seconds,
             segment_query_seconds,
             hausdorff.index.memory_bytes / 1e6],
        ],
    ))

    agreement = np.mean([
        len(set(ivf_neighbors[i].tolist()) & set(segment_neighbors[i].tolist())) / 3
        for i in range(len(queries))
    ])
    print(f"\nTop-3 agreement between the two methods: {agreement:.2f}")
    print("(The paper's Fig. 6: embedding kNN is orders of magnitude faster "
          "at scale, and Table IX: the segment index needs far more memory.)")


if __name__ == "__main__":
    main()
