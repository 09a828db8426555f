"""Paper Table IX — index construction cost (time and memory) vs |D|.

TrajCL+IVF (embed the database, then build the Voronoi inverted lists)
against the segment-based Hausdorff index. Paper shape: the TrajCL index
takes somewhat longer to build (embedding dominates) but needs far less
memory; segment-index memory balloons with the number of segments (the
paper's 10M-trajectory OOM).
"""

import time

import numpy as np

from repro.datasets import generate_city, get_preset
from repro.eval import format_table
from repro.index import IVFFlatIndex, SegmentHausdorffIndex

from benchmarks.common import SEED, save_result

DB_SIZES = [100, 200, 400]


def test_table9_index_build_costs(benchmark, xian_pipeline):
    preset = get_preset("xian")
    pool = generate_city(preset, DB_SIZES[-1], seed=SEED + 60)
    model = xian_pipeline.model

    def run():
        rows = []
        for size in DB_SIZES:
            database = pool[:size]

            start = time.perf_counter()
            embeddings = model.encode(database)
            ivf = IVFFlatIndex(embeddings.shape[1], n_lists=16, n_probe=4)
            ivf.train(embeddings, rng=np.random.default_rng(SEED))
            ivf.add(embeddings)
            ivf_seconds = time.perf_counter() - start

            start = time.perf_counter()
            segment = SegmentHausdorffIndex()
            segment.build(database)
            segment_seconds = time.perf_counter() - start

            rows.append([
                size,
                ivf_seconds, ivf.memory_bytes / 1e6,
                segment_seconds, segment.memory_bytes / 1e6,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["|D|", "TrajCL+IVF (s)", "IVF mem (MB)",
         "segment idx (s)", "segment mem (MB)"],
        rows,
    )
    save_result("table9_index_build", table)

    largest = rows[-1]
    assert largest[2] < largest[4], (
        "the embedding index must use less memory than the segment index"
    )
