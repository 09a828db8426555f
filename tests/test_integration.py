"""End-to-end integration tests across the whole library.

These exercise the same paths as the benchmarks at an even smaller scale:
data generation → node2vec → contrastive pre-training → evaluation →
fine-tuning → indexing, plus determinism and failure-injection checks.
"""

import numpy as np
import pytest

from repro.core import HeuristicApproximator, load_pipeline, save_pipeline
from repro.datasets import perturb_instance
from repro.eval import (
    approximation_metrics,
    build_city_pipeline,
    evaluate_mean_rank,
    make_instance,
)
from repro.index import IVFFlatIndex
from repro.measures import get_measure


@pytest.fixture(scope="module")
def pipeline():
    """One small trained pipeline shared by the integration tests."""
    return build_city_pipeline("porto", n_trajectories=120, train_epochs=2,
                               grid_cells_per_side=24, seed=3)


@pytest.fixture(scope="module")
def instance(pipeline):
    return make_instance(pipeline.trajectories, n_queries=10,
                         database_size=60, seed=4)


class TestEndToEnd:
    def test_trained_model_near_perfect_mean_rank(self, pipeline, instance):
        rank = evaluate_mean_rank(pipeline.model, instance)
        assert rank <= 2.0, f"mean rank {rank} too far from 1"

    def test_beats_edr_under_downsampling(self, pipeline, instance):
        """The paper's robustness headline, miniature edition."""
        perturbed = perturb_instance(instance, "downsample", 0.3,
                                     np.random.default_rng(5))
        trajcl = evaluate_mean_rank(pipeline.model, perturbed)
        edr = evaluate_mean_rank(get_measure("edr"), perturbed)
        assert trajcl < edr

    def test_finetune_to_hausdorff(self, pipeline):
        trajectories = pipeline.trajectories
        approximator = HeuristicApproximator(pipeline.model, mode="all",
                                             rng=np.random.default_rng(6))
        measure = get_measure("hausdorff")
        approximator.fit(trajectories[:60], measure, epochs=4,
                         pairs_per_epoch=128, batch_size=32,
                         rng=np.random.default_rng(7))
        metrics = approximation_metrics(
            approximator, measure, trajectories[60:66], trajectories[60:110]
        )
        assert metrics["hr5"] > 0.2
        assert metrics["r5at20"] >= metrics["hr5"]

    def test_index_pipeline(self, pipeline):
        embeddings = pipeline.model.encode(pipeline.trajectories)
        index = IVFFlatIndex(embeddings.shape[1], n_lists=8, n_probe=8)
        index.train(embeddings, rng=np.random.default_rng(8))
        index.add(embeddings)
        _, neighbors = index.search(embeddings[:5], k=1)
        np.testing.assert_array_equal(neighbors[:, 0], np.arange(5))

    def test_checkpoint_roundtrip_full_pipeline(self, pipeline, tmp_path):
        path = str(tmp_path / "e2e.npz")
        save_pipeline(path, pipeline.model)
        restored = load_pipeline(path)
        original = pipeline.model.encode(pipeline.trajectories[:4])
        loaded = restored.encode(pipeline.trajectories[:4])
        np.testing.assert_allclose(original, loaded, atol=1e-12)


class TestFloat32Fidelity:
    """The serving dtype against the float64 stack it replaced: measured
    on the trained fixture, not assumed."""

    def test_top10_of_the_service_is_the_float64_scan(self, pipeline):
        from repro.api import SimilarityService
        from repro.datasets import generate_city, get_preset

        city = generate_city(get_preset("porto"), 1200, seed=21)
        database, queries = city[:1000], city[1000:]
        service = SimilarityService(backend=pipeline.model).add(database)
        _, served = service.knn(queries, k=10)

        exact_db = pipeline.model.encode(database, dtype="float64")
        exact_q = pipeline.model.encode(queries, dtype="float64")
        assert exact_db.dtype == np.float64
        scanned = np.stack([
            np.argsort(np.abs(exact_db - query).sum(axis=1),
                       kind="stable")[:10]
            for query in exact_q])
        overlap = np.mean([len(set(a) & set(b)) / 10
                           for a, b in zip(served, scanned)])
        assert overlap >= 0.999, overlap
        np.testing.assert_array_equal(served[:, 0], scanned[:, 0])

    def test_mean_rank_equal_to_three_decimals(self, pipeline, instance):
        from repro.eval import mean_rank
        from repro.index import distance

        perturbed = perturb_instance(instance, "downsample", 0.3,
                                     np.random.default_rng(5))
        for case in (instance, perturbed):
            served = evaluate_mean_rank(pipeline.model, case)
            exact = mean_rank(distance.pairwise(
                pipeline.model.encode(case.queries, dtype="float64"),
                pipeline.model.encode(case.database, dtype="float64")),
                case.ground_truth)
            assert round(served, 3) == round(exact, 3)


class TestDeterminism:
    def test_same_seed_same_pipeline(self):
        a = build_city_pipeline("xian", n_trajectories=40, train_epochs=1,
                                grid_cells_per_side=16, seed=11)
        b = build_city_pipeline("xian", n_trajectories=40, train_epochs=1,
                                grid_cells_per_side=16, seed=11)
        emb_a = a.model.encode(a.trajectories[:5])
        emb_b = b.model.encode(b.trajectories[:5])
        np.testing.assert_allclose(emb_a, emb_b, atol=1e-12)

    def test_different_seed_different_model(self):
        a = build_city_pipeline("xian", n_trajectories=40, train_epochs=1,
                                grid_cells_per_side=16, seed=11)
        c = build_city_pipeline("xian", n_trajectories=40, train_epochs=1,
                                grid_cells_per_side=16, seed=12)
        emb_a = a.model.encode(a.trajectories[:5])
        emb_c = c.model.encode(a.trajectories[:5])
        assert not np.allclose(emb_a, emb_c)


class TestFailureInjection:
    def test_encode_rejects_malformed_trajectory(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.model.encode([np.array([[1.0, 2.0, 3.0]])])

    def test_encode_rejects_nan_points(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.model.encode([np.array([[np.nan, 0.0], [1.0, 1.0]])])

    def test_unknown_city(self):
        with pytest.raises(KeyError):
            build_city_pipeline("atlantis", n_trajectories=10)

    def test_instance_needs_enough_pool(self, pipeline):
        with pytest.raises(ValueError):
            make_instance(pipeline.trajectories[:10], n_queries=5,
                          database_size=100)

    def test_truncated_checkpoint_rejected(self, pipeline, tmp_path):
        path = str(tmp_path / "broken.npz")
        save_pipeline(path, pipeline.model)
        # Corrupt: drop half the weight arrays.
        import numpy as _np

        state = dict(_np.load(path))
        keys = [k for k in state if k.startswith("model/")]
        for key in keys[: len(keys) // 2]:
            del state[key]
        _np.savez(path, **state)
        with pytest.raises(KeyError):
            load_pipeline(path)
