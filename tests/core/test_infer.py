"""Parity suite for the autograd-free inference engine (fast encode path).

Covers the acceptance bars of the engine: float64 near-bit-exact /
float32 ~1e-5-relative parity against the reference Tensor-graph encoder
for every Fig. 7 encoder variant, invariance to length bucketing (input
order and chunking must not change embeddings) and recompilation after
weight updates. (The L1 distance helper that used to live beside the
engine is now ``repro.index.distance``; its tests are in
``tests/index/test_distance.py``.)
"""

import numpy as np
import pytest

from repro.core import InferenceEncoder, TrajCL
from repro.core.infer import resolve_dtype

from .conftest import make_trajectories


@pytest.fixture(scope="module")
def mixed_trajectories():
    """Lengths from 1 to ~50 so bucketing and truncation are exercised."""
    trajectories = make_trajectories(n=30, seed=4, min_pts=2, max_pts=50)
    trajectories.append(np.array([[3000.0, 3000.0]]))  # single point
    return trajectories


def make_model(small_setup, variant="dual"):
    config, features, _ = small_setup
    return TrajCL(features, config, encoder_variant=variant,
                  rng=np.random.default_rng(7))


class TestParity:
    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_float64_near_bit_exact(self, small_setup, mixed_trajectories,
                                    variant):
        model = make_model(small_setup, variant)
        reference = model.encode(mixed_trajectories, fast=False)
        fast = model.encode(mixed_trajectories, fast=True, dtype="float64")
        assert fast.dtype == np.float64
        np.testing.assert_allclose(fast, reference, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_float32_within_1e5_relative(self, small_setup,
                                         mixed_trajectories, variant):
        model = make_model(small_setup, variant)
        reference = model.encode(mixed_trajectories, fast=False)
        fast = model.encode(mixed_trajectories, fast=True, dtype="float32")
        assert fast.dtype == np.float32
        scale = np.abs(reference).max()
        np.testing.assert_allclose(fast, reference, rtol=1e-4,
                                   atol=1e-5 * scale)
        assert np.abs(fast - reference).max() <= 1e-5 * scale

    def test_default_encode_routes_through_engine(self, small_setup,
                                                  mixed_trajectories):
        model = make_model(small_setup)
        default = model.encode(mixed_trajectories)
        reference = model.encode(mixed_trajectories, fast=False)
        # Default is the fast float64 engine: near-bit-exact, not identical.
        np.testing.assert_allclose(default, reference, rtol=1e-10, atol=1e-12)
        assert "float64" in model._inference_cache

    def test_from_model_rejects_unknown_variant(self, small_setup):
        model = make_model(small_setup)
        model.encoder_variant = "custom"
        with pytest.raises(ValueError, match="unsupported encoder variant"):
            InferenceEncoder.from_model(model)

    def test_unknown_variant_falls_back_to_reference(self, small_setup,
                                                     mixed_trajectories):
        model = make_model(small_setup)
        expected = model.encode(mixed_trajectories, fast=False)
        model.encoder_variant = "custom"
        assert model.inference_encoder() is None
        out = model.encode(mixed_trajectories)  # fast requested, falls back
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestBucketing:
    def test_permutation_invariance(self, small_setup, mixed_trajectories):
        """Shuffling the batch must return the same embedding per id even
        though the length buckets regroup completely."""
        model = make_model(small_setup)
        base = model.encode(mixed_trajectories, batch_size=8)
        perm = np.random.default_rng(0).permutation(len(mixed_trajectories))
        shuffled = model.encode([mixed_trajectories[i] for i in perm],
                                batch_size=8)
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-9,
                                   atol=1e-12)

    def test_batch_size_invariance(self, small_setup, mixed_trajectories):
        model = make_model(small_setup)
        whole = model.encode(mixed_trajectories, batch_size=1024)
        chunked = model.encode(mixed_trajectories, batch_size=3)
        np.testing.assert_allclose(whole, chunked, rtol=1e-9, atol=1e-12)

    def test_single_trajectory(self, small_setup, mixed_trajectories):
        model = make_model(small_setup)
        batch = model.encode(mixed_trajectories)
        one = model.encode(mixed_trajectories[:1])
        np.testing.assert_allclose(one[0], batch[0], rtol=1e-9, atol=1e-12)


class TestEngineLifecycle:
    def test_engine_cached_until_weights_change(self, small_setup,
                                                mixed_trajectories):
        model = make_model(small_setup)
        model.encode(mixed_trajectories)
        first = model._inference_cache["float64"]
        model.encode(mixed_trajectories)
        assert model._inference_cache["float64"] is first  # cache hit

        # An in-place weight update (what the optimizer does) must
        # invalidate the compiled engine and change the embeddings.
        before = model.encode(mixed_trajectories)
        param = model.encoder.parameters()[0]
        param.data += 0.05
        after = model.encode(mixed_trajectories)
        assert model._inference_cache["float64"] is not first
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after, model.encode(mixed_trajectories, fast=False),
            rtol=1e-10, atol=1e-12,
        )

    def test_dtype_resolution(self):
        assert resolve_dtype(None) == np.float64
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float64) == np.float64
        with pytest.raises(ValueError):
            resolve_dtype("int32")
        with pytest.raises(ValueError):
            resolve_dtype(np.float16)

    def test_rejects_malformed_input(self, small_setup):
        model = make_model(small_setup)
        with pytest.raises(ValueError):
            model.encode([np.zeros((3, 5))])
        with pytest.raises(ValueError):
            model.encode([np.array([[np.nan, 0.0], [1.0, 1.0]])])
        with pytest.raises(ValueError):
            model.encode([])


class TestDistanceMatrix:
    def test_matches_broadcast(self, small_setup, mixed_trajectories):
        model = make_model(small_setup)
        matrix = model.distance_matrix(mixed_trajectories[:3],
                                       mixed_trajectories[:6])
        emb_q = model.encode(mixed_trajectories[:3])
        emb_d = model.encode(mixed_trajectories[:6])
        expected = np.abs(emb_q[:, None, :] - emb_d[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(matrix, expected, atol=1e-12)
