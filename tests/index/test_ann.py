"""Tests for the compressed-residency ANN structures: product
quantization (flat, with its blocked ADC and refine tail), int8 scalar
quantization, and the HNSW graph — recall floors against the exact scan,
determinism under a fixed seed, snapshot-grade state round-trips, memory
accounting, and the empty/one-vector edges."""

import numpy as np
import pytest

import repro.index.pq
from repro.index import (
    BruteForceIndex,
    HNSWIndex,
    Int8FlatIndex,
    PQIndex,
    ProductQuantizer,
    ScalarQuantizer,
    topk_rows,
)


def clustered(count, dim=32, rank=6, clusters=24, seed=0):
    """Low-rank clustered gaussians — the distribution learned embeddings
    live on, and the one PQ codebooks are meant to exploit."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    mix = rng.normal(size=(rank, dim))
    assign = rng.integers(0, clusters, size=count)
    return centers[assign] + (rng.normal(size=(count, rank)) @ mix) * 0.5


def recall(truth, found):
    hits = sum(
        len(set(t[t >= 0]) & set(f[f >= 0])) for t, f in zip(truth, found)
    )
    return hits / float(truth.shape[0] * truth.shape[1])


@pytest.fixture(scope="module")
def corpus():
    pool = clustered(1550)
    return pool[:1500], pool[1500:]


@pytest.fixture(scope="module")
def ground_truth(corpus):
    data, queries = corpus
    exact = BruteForceIndex(data.shape[1])
    exact.add(data)
    return exact.search(queries, 10)[1]


class TestTopkRows:
    def test_ranks_by_distance_then_id(self):
        distances = np.array([[3.0, 1.0, 1.0, 2.0]], dtype=np.float32)
        got_d, got_i = topk_rows(distances, 3)
        np.testing.assert_array_equal(got_i, [[1, 2, 3]])
        np.testing.assert_allclose(got_d, [[1.0, 1.0, 2.0]])

    def test_pads_short_rows(self):
        got_d, got_i = topk_rows(np.array([[5.0, 4.0]]), 4)
        np.testing.assert_array_equal(got_i, [[1, 0, -1, -1]])
        assert np.isinf(got_d[0, 2:]).all()


class TestScalarQuantizer:
    def test_round_trip_error_bounded_by_step(self):
        data = clustered(400, seed=1)
        quantizer = ScalarQuantizer(data.shape[1])
        quantizer.train(data)
        decoded = quantizer.decode(quantizer.encode(data))
        step = (data.max(axis=0) - data.min(axis=0)) / 255.0
        assert np.all(np.abs(decoded - data) <= step + 1e-6)

    def test_constant_dimension_survives(self):
        data = np.ones((32, 4))
        quantizer = ScalarQuantizer(4)
        quantizer.train(data)
        np.testing.assert_allclose(
            quantizer.decode(quantizer.encode(data)), data, atol=1e-6)


class TestRecallFloors:
    def test_pq_recall_at_10(self, corpus, ground_truth):
        data, queries = corpus
        index = PQIndex(data.shape[1], n_subspaces=16)
        index.train(data, rng=np.random.default_rng(0))
        index.add(data)
        assert recall(ground_truth, index.search(queries, 10)[1]) >= 0.8

    def test_hnsw_recall_at_10_at_default_ef(self, corpus, ground_truth):
        data, queries = corpus
        index = HNSWIndex(data.shape[1])
        index.add(data)
        assert recall(ground_truth, index.search(queries, 10)[1]) >= 0.9

    def test_int8_recall_at_10(self, corpus, ground_truth):
        data, queries = corpus
        index = Int8FlatIndex(data.shape[1])
        index.train(data)
        index.add(data)
        assert recall(ground_truth, index.search(queries, 10)[1]) >= 0.9

    def test_pq_refine_improves_recall(self, corpus, ground_truth):
        data, queries = corpus
        rough = PQIndex(data.shape[1], n_subspaces=8)
        rough.train(data, rng=np.random.default_rng(0))
        rough.add(data)
        refined = PQIndex(data.shape[1], n_subspaces=8, refine_factor=8,
                          refine_dtype="float32")
        refined.train(data, rng=np.random.default_rng(0))
        refined.add(data)
        base = recall(ground_truth, rough.search(queries, 10)[1])
        better = recall(ground_truth, refined.search(queries, 10)[1])
        assert better > base
        assert better >= 0.9


@pytest.mark.parametrize("factory", [
    lambda dim: Int8FlatIndex(dim),
    lambda dim: PQIndex(dim, n_subspaces=8, n_centroids=32),
    lambda dim: PQIndex(dim, n_subspaces=8, n_centroids=32,
                        refine_dtype="float16"),
    lambda dim: HNSWIndex(dim),
], ids=["int8", "pq", "pq-refine16", "hnsw"])
def test_compressed_search_distances_stay_float32(corpus, factory):
    """A compressed scan never widens to float64: that would double its
    working set and hand the caller 8-byte distances."""
    data, queries = (part.astype(np.float32) for part in corpus)
    index = factory(data.shape[1])
    if hasattr(index, "train"):
        index.train(data[:400], rng=np.random.default_rng(0))
    index.add(data[:400])
    distances, ids = index.search(queries, 5)
    assert distances.dtype == np.float32 and ids.dtype == np.int64


class TestDeterminism:
    def test_pq_fixed_seed_reproduces(self, corpus):
        data, queries = corpus
        runs = []
        for _ in range(2):
            index = PQIndex(data.shape[1], n_subspaces=8)
            index.train(data, rng=np.random.default_rng(7))
            index.add(data)
            runs.append(index.search(queries, 5))
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()

    def test_hnsw_fixed_seed_reproduces(self, corpus):
        data, queries = corpus
        runs = []
        for _ in range(2):
            index = HNSWIndex(data.shape[1], seed=7)
            index.add(data[:400])
            runs.append(index.search(queries, 5))
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()


class TestProductQuantizerShapes:
    def test_uneven_dim_is_padded(self):
        # dim 10 over 4 subspaces -> sub_dim 3 with 2 padded zeros; the
        # padding must be distance-neutral.
        data = clustered(300, dim=10, seed=2)
        pq = ProductQuantizer(10, n_subspaces=4, n_centroids=32)
        pq.train(data, rng=np.random.default_rng(0))
        assert pq.codebooks.shape == (4, 32, 3)
        codes = pq.encode(data)
        assert codes.shape == (300, 4) and codes.dtype == np.uint8
        decoded = pq.decode(codes)
        assert decoded.shape == (300, 10)
        assert np.abs(decoded - data).mean() < np.abs(data).mean()

    def test_subspaces_clamped_to_dim(self):
        pq = ProductQuantizer(3, n_subspaces=8)
        assert pq.n_subspaces == 3

    def test_adc_matches_decoded_distances(self):
        data = clustered(200, dim=16, seed=3)
        pq = ProductQuantizer(16, n_subspaces=4, n_centroids=16)
        pq.train(data, rng=np.random.default_rng(0))
        codes = pq.encode(data)
        queries = data[:5]
        adc = pq.adc(pq.lut(queries), codes)
        decoded = pq.decode(codes)
        direct = np.abs(queries[:, None] - decoded[None]).sum(axis=2)
        np.testing.assert_allclose(adc, direct, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("m", [1, 16, 24])
    @pytest.mark.parametrize("n_queries", [1, 3, 17])
    @pytest.mark.parametrize("elements", [1, 100, None],
                             ids=["one-row", "uneven", "shipped"])
    def test_blocked_adc_keeps_the_bits_of_one_pass(self, monkeypatch, m,
                                                    n_queries, elements):
        """Row blocks of ``ADC_BLOCK_ELEMENTS // |Q|`` take the sub-spaces
        in order. One row a block, 1001 rows cut unevenly (with a one-row
        last block at one query) and the shipped constant (one block
        here) all give the bits of one pass over the whole matrix."""
        rng = np.random.default_rng(m + n_queries)
        pq = ProductQuantizer(2 * m, n_subspaces=m)
        # magnitudes 1e-3..1e3: a sum taken in another order rounds apart
        tables = (rng.random((n_queries, m, 256))
                  * 10.0 ** rng.integers(-3, 4, size=(n_queries, m, 256))
                  ).astype(np.float32)
        codes = rng.integers(0, 256, size=(1001, m)).astype(np.uint8)
        want = np.zeros((n_queries, len(codes)), dtype=np.float32)
        for j in range(m):
            want += tables[:, j, codes[:, j]]
        if elements is not None:
            monkeypatch.setattr(repro.index.pq, "ADC_BLOCK_ELEMENTS",
                                elements)
        got = pq.adc(tables, codes)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestEdges:
    @pytest.mark.parametrize("factory", [
        lambda: PQIndex(8, n_subspaces=4),
        lambda: Int8FlatIndex(8),
        lambda: HNSWIndex(8),
    ])
    def test_empty_search_raises(self, factory):
        with pytest.raises(RuntimeError):
            factory().search(np.zeros((1, 8)), 1)

    def test_one_vector_hnsw(self):
        index = HNSWIndex(4)
        index.add(np.arange(4.0))
        distances, ids = index.search(np.zeros((1, 4)), 3)
        assert ids[0, 0] == 0
        np.testing.assert_array_equal(ids[0, 1:], [-1, -1])
        assert np.isinf(distances[0, 1:]).all()

    def test_one_vector_pq(self):
        data = np.arange(8.0).reshape(1, 8)
        index = PQIndex(8, n_subspaces=4)
        index.train(data, rng=np.random.default_rng(0))
        index.add(data)
        distances, ids = index.search(data, 2)
        assert ids[0, 0] == 0 and ids[0, 1] == -1

    def test_add_before_train_raises(self):
        with pytest.raises(RuntimeError):
            Int8FlatIndex(4).add(np.zeros((2, 4)))


class TestIncrementalAdd:
    def test_pq_encodes_new_vectors_against_frozen_codebooks(self, corpus):
        data, _ = corpus
        index = PQIndex(data.shape[1], n_subspaces=16)
        index.train(data[:1000], rng=np.random.default_rng(0))
        index.add(data[:1000])
        before = index.pq.codebooks.tobytes()
        index.add(data[1000:])
        assert index.pq.codebooks.tobytes() == before  # no retrain
        assert len(index) == len(data)
        _, ids = index.search(data[1200:1201], 5)
        assert 1200 in ids[0]

    def test_int8_clips_out_of_range_adds_to_trained_grid(self):
        data = clustered(500, dim=8, seed=4)
        index = Int8FlatIndex(8)
        index.train(data)
        index.add(data)
        index.add(data[:1] + 1000.0)  # far outside the trained range
        _, ids = index.search(data[:1] + 1000.0, 1)
        assert ids[0, 0] == len(data)  # still nearest to itself


class TestMemoryAndState:
    def test_pq_memory_well_under_float32(self, corpus):
        data, _ = corpus
        # 64 centroids: at this corpus size the fixed codebook cost must
        # not drown the 16 B/vector codes (vs 128 B float32 rows).
        index = PQIndex(data.shape[1], n_subspaces=16, n_centroids=64)
        index.train(data, rng=np.random.default_rng(0))
        index.add(data)
        assert index.memory_bytes < data.astype(np.float32).nbytes / 4

    def test_int8_memory_quarter_of_float32(self, corpus):
        data, _ = corpus
        index = Int8FlatIndex(data.shape[1])
        index.train(data)
        index.add(data)
        float32 = data.astype(np.float32).nbytes
        assert float32 / 4.5 < index.memory_bytes < float32 / 3.5

    def test_hnsw_graph_export_import_is_bit_identical(self, corpus):
        data, queries = corpus
        index = HNSWIndex(data.shape[1], seed=3)
        index.add(data[:500])
        meta, arrays = index.export()
        clone = HNSWIndex(data.shape[1], seed=3)
        clone.restore(meta, arrays)
        want_d, want_i = index.search(queries, 5)
        got_d, got_i = clone.search(queries, 5)
        assert want_d.tobytes() == got_d.tobytes()
        assert want_i.tobytes() == got_i.tobytes()

    def test_hnsw_counts_fewer_evaluations_than_bruteforce(self, corpus):
        data, queries = corpus
        index = HNSWIndex(data.shape[1])
        index.add(data)
        before = index.distance_evaluations
        index.search(queries, 10)
        per_query = (index.distance_evaluations - before) / len(queries)
        assert per_query < len(data) / 2
