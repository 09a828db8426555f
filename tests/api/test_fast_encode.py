"""End-to-end tests for the fast encode path through the similarity API:
kNN parity with the fast engine on/off, dtype preservation in the
embedding cache, and snapshot round-trips of the encode preferences."""

import numpy as np
import pytest

from repro.api import SimilarityService, get_backend
from repro.api.backends import backend_state, restore_backend

from .test_registry import make_trajectories


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=24, seed=5)


@pytest.fixture(scope="module")
def trained_model(trajectories):
    backend = get_backend("trajcl", trajectories=trajectories, dim=8,
                          max_len=16, epochs=1, seed=0)
    return backend.model


def service_with(model, trajectories, fast, dtype, index=None):
    backend = get_backend("trajcl", model=model, fast_encode=fast,
                          encode_dtype=dtype)
    return SimilarityService(backend=backend, index=index).add(trajectories)


class TestKnnParity:
    @pytest.mark.parametrize("index", ["bruteforce"])
    def test_float64_fast_knn_identical(self, trained_model, trajectories,
                                        index):
        reference = service_with(trained_model, trajectories, fast=False,
                                 dtype="float64", index=index)
        fast = service_with(trained_model, trajectories, fast=True,
                            dtype="float64", index=index)
        ref_d, ref_i = reference.knn(trajectories[:6], k=5, exclude=2)
        fast_d, fast_i = fast.knn(trajectories[:6], k=5, exclude=2)
        np.testing.assert_array_equal(fast_i, ref_i)
        np.testing.assert_allclose(fast_d, ref_d, rtol=1e-9, atol=1e-9)

    def test_float32_fast_knn_same_neighbours(self, trained_model,
                                              trajectories):
        reference = service_with(trained_model, trajectories, fast=False,
                                 dtype="float64")
        fast = service_with(trained_model, trajectories, fast=True,
                            dtype="float32")
        ref_d, ref_i = reference.knn(trajectories[:6], k=5)
        fast_d, fast_i = fast.knn(trajectories[:6], k=5)
        np.testing.assert_array_equal(fast_i, ref_i)
        np.testing.assert_allclose(fast_d, ref_d, rtol=1e-3, atol=1e-3)

    def test_pairwise_parity(self, trained_model, trajectories):
        reference = service_with(trained_model, trajectories, fast=False,
                                 dtype="float64")
        fast = service_with(trained_model, trajectories, fast=True,
                            dtype="float64")
        np.testing.assert_allclose(
            fast.pairwise(trajectories[:4]),
            reference.pairwise(trajectories[:4]),
            rtol=1e-9, atol=1e-9,
        )


class TestDtypePreservation:
    def test_float32_backend_cached_as_float32(self, trajectories):
        class Float32Encoder:
            output_dim = 4

            def encode(self, batch):
                return np.array(
                    [[len(t), t[0, 0], t[-1, 1], 1.0] for t in batch],
                    dtype=np.float32,
                )

        service = SimilarityService(backend=Float32Encoder(),
                                    cache_size=64).add(trajectories)
        vectors = service.encode_batch(trajectories[:4])
        assert vectors.dtype == np.float32
        assert all(v.dtype == np.float32 for v in service.encoder.cache.values())

    def test_float32_cache_halves_memory(self, trajectories):
        class Encoder:
            output_dim = 8

            def __init__(self, dtype):
                self.dtype = dtype

            def encode(self, batch):
                return np.ones((len(batch), 8), dtype=self.dtype)

        f32 = SimilarityService(backend=Encoder(np.float32)).add(trajectories)
        f64 = SimilarityService(backend=Encoder(np.float64)).add(trajectories)
        f32.encode_batch(trajectories)
        f64.encode_batch(trajectories)
        bytes32 = sum(v.nbytes for v in f32.encoder.cache.values())
        bytes64 = sum(v.nbytes for v in f64.encoder.cache.values())
        assert bytes32 * 2 == bytes64

    def test_non_float_encoders_upcast(self, trajectories):
        class IntEncoder:
            output_dim = 2

            def encode(self, batch):
                return np.array([[len(t), 1] for t in batch], dtype=np.int64)

        service = SimilarityService(backend=IntEncoder()).add(trajectories[:4])
        vectors = service.encode_batch(trajectories[:4])
        assert vectors.dtype == np.float64

    def test_trajcl_float32_service_embeddings(self, trained_model,
                                               trajectories):
        service = service_with(trained_model, trajectories, fast=True,
                               dtype="float32")
        assert service.encode_batch(trajectories[:3]).dtype == np.float32


class TestEncodePreferencePersistence:
    def test_backend_state_roundtrip(self, trained_model):
        backend = get_backend("trajcl", model=trained_model,
                              fast_encode=False, encode_dtype="float32")
        meta, arrays = backend_state(backend)
        assert meta["encode"] == {"fast": False, "dtype": "float32"}
        restored = restore_backend(meta, arrays)
        assert restored.model.encode_fast is False
        assert restored.model.encode_dtype == "float32"

    def test_wrapping_a_model_keeps_its_preferences(self, trained_model):
        """get_backend('trajcl', model=...) without encode kwargs must not
        clobber preferences already set on the caller's model."""
        trained_model.encode_fast = False
        trained_model.encode_dtype = "float32"
        try:
            get_backend("trajcl", model=trained_model)
            assert trained_model.encode_fast is False
            assert trained_model.encode_dtype == "float32"
            get_backend("trajcl", model=trained_model, fast_encode=True)
            assert trained_model.encode_fast is True
            assert trained_model.encode_dtype == "float32"  # untouched
        finally:
            trained_model.encode_fast = True
            trained_model.encode_dtype = "float64"

    def test_service_snapshot_keeps_preferences(self, trained_model,
                                                trajectories, tmp_path):
        service = service_with(trained_model, trajectories, fast=True,
                               dtype="float32")
        path = str(tmp_path / "svc.npz")
        service.save(path)
        restored = SimilarityService.load(path)
        assert restored.backend.model.encode_fast is True
        assert restored.backend.model.encode_dtype == "float32"
        before = service.knn(trajectories[1], k=3)
        after = restored.knn(trajectories[1], k=3)
        np.testing.assert_array_equal(before[1], after[1])
        np.testing.assert_allclose(before[0], after[0], rtol=1e-6, atol=1e-6)
