"""The one serving dtype through the similarity API: float32 from
``backend.encode`` to ``index.search``, kNN parity with the float64
routes the engine can still be asked for by name, dtype preservation in
the embedding cache, and the refusal of snapshots from the float64 era."""

import json

import numpy as np
import pytest

from repro.api import SimilarityService, get_backend
from repro.api.backends import backend_state
from repro.trajectory import unpack_trajectories

from .shard_laws import Sharded, assert_same_bits
from .test_registry import make_trajectories


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=24, seed=5)


@pytest.fixture(scope="module")
def trained_model(trajectories):
    backend = get_backend("trajcl", trajectories=trajectories, dim=8,
                          max_len=16, epochs=1, seed=0)
    return backend.model


class Route:
    """The trained model asked for one engine route and dtype by name —
    what the parity suite compares, and nothing a service is built with."""

    def __init__(self, model, fast, dtype):
        self.model, self.fast = model, fast
        self.dtype = np.dtype(dtype)
        self.output_dim = model.encoder.output_dim

    def encode(self, batch):
        return self.model.encode(batch, fast=self.fast, dtype=self.dtype)


def service_with(model, trajectories, fast, dtype, index=None):
    return SimilarityService(backend=Route(model, fast, dtype),
                             index=index).add(trajectories)


def served(model, trajectories, **kwargs):
    """The service as anyone gets it: no dtype named anywhere."""
    return SimilarityService(backend=get_backend("trajcl", model=model),
                             **kwargs).add(trajectories)


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
        fast = served(trained_model, trajectories)
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
        service = served(trained_model, trajectories)
        assert service.encode_batch(trajectories[:3]).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_batch_has_the_backend_dtype(self, trajectories, dtype):
        """An empty result concatenated with a non-empty one must not
        promote it."""
        class Encoder:
            output_dim = 5

            def __init__(self):
                self.dtype = dtype

            def encode(self, batch):
                return np.ones((len(batch), 5), dtype=self.dtype)

        service = SimilarityService(backend=Encoder()).add(trajectories)
        empty = service.encode_batch([])
        assert empty.shape == (0, 5) and empty.dtype == dtype
        assert service.encoder.encode([]).dtype == dtype
        joined = np.concatenate([empty, service.encode_batch(trajectories[:2])])
        assert joined.dtype == dtype


# ----------------------------------------------------------------------
# No float64 between encode and search — one law per test
# ----------------------------------------------------------------------
class TestOneServingDtype:
    def test_backend_declares_float32(self, trained_model):
        backend = get_backend("trajcl", model=trained_model)
        assert backend.dtype == np.float32
        assert backend.encode([np.zeros((3, 2))]).dtype == np.float32

    def test_cache_entries_are_float32(self, trained_model, trajectories):
        service = served(trained_model, trajectories)
        assert len(service.encoder.cache) == len(trajectories)
        assert all(vector.dtype == np.float32
                   for vector in service.encoder.cache.values())

    def test_bruteforce_rows_are_four_bytes_a_dimension(self, trained_model,
                                                        trajectories):
        service = served(trained_model, trajectories, index="bruteforce")
        dim = trained_model.encoder.output_dim
        assert service.index.stats()["bytes_per_vector"] == 4 * dim

    def test_pairwise_is_float32(self, trained_model, trajectories):
        service = served(trained_model, trajectories)
        assert service.pairwise(trajectories[:3]).dtype == np.float32

    def test_knn_distances_are_float64_with_float32_values(
            self, trained_model, trajectories):
        """The public reply keeps its shape; its values are the scan's."""
        service = served(trained_model, trajectories)
        distances, ids = service.knn(trajectories[:3], k=4)
        assert distances.dtype == np.float64 and ids.dtype == np.int64
        assert (distances == distances.astype(np.float32)).all()

    def test_shards_receive_float32_vectors(self, trained_model,
                                            trajectories):
        backend = get_backend("trajcl", model=trained_model)
        single = SimilarityService(backend=backend).add(trajectories)
        with Sharded("tcp", backend, shards=2) as sharded:
            sharded.service.add(trajectories)
            held = sharded.service._shard_query("export", None)
            assert sum(len(ids) for ids, _ in held) == len(trajectories)
            for _, (_, vectors) in held:
                assert vectors.dtype == np.float32
            assert_same_bits(sharded.service.knn(trajectories[:5], k=4),
                             single.knn(trajectories[:5], k=4))

    def test_the_knobs_are_gone(self, trained_model):
        for knob in ({"encode_dtype": "float64"}, {"fast_encode": False}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                get_backend("trajcl", model=trained_model, **knob)
        assert not hasattr(trained_model, "encode_dtype")
        assert not hasattr(trained_model, "encode_fast")
        assert "encode" not in backend_state(
            get_backend("trajcl", model=trained_model))[0]


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def write_parent_snapshot(model, trajectories, path, index):
    """What a float64-era ``save(include_cache=True)`` left on disk, built
    by hand: format version 1, one ``traj_{i}`` member per trajectory and a
    ``count``, float64 index rows (and trained tables), float64 warm-cache
    entries, and the ``encode`` preference block."""
    service = service_with(model, trajectories, fast=True, dtype="float64",
                           index=index)
    service.knn(trajectories[:2], k=3)  # trains what trains
    service.backend = get_backend("trajcl", model=model)  # what save writes
    service.save(path, include_cache=True)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays["__service__"]).decode("utf-8"))
    meta.update(format_version=1, count=len(trajectories))
    meta["backend"]["encode"] = {"fast": True, "dtype": "float64"}
    arrays["__service__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    for i, points in enumerate(unpack_trajectories(arrays, "data/")):
        arrays[f"traj_{i}"] = points
    del arrays["data/points"], arrays["data/offsets"]
    float_arrays = [key for key, value in arrays.items()
                    if key.startswith(("index/", "cache/"))
                    and value.dtype.kind == "f"]
    assert float_arrays and "cache/vectors" in float_arrays
    assert all(arrays[key].dtype == np.float64 for key in float_arrays)
    np.savez_compressed(path, **arrays)


class TestLegacySnapshot:
    @pytest.mark.parametrize("index", ["bruteforce", "ivf"])
    def test_float64_era_snapshot_is_refused(
            self, trained_model, trajectories, tmp_path, index):
        path = str(tmp_path / "parent.npz")
        write_parent_snapshot(trained_model, trajectories, path, index)
        with pytest.raises(ValueError, match="snapshot version 1"):
            SimilarityService.load(path)

    def test_float32_snapshot_roundtrip_is_byte_identical(
            self, trained_model, trajectories, tmp_path):
        service = served(trained_model, trajectories)
        path = str(tmp_path / "svc.npz")
        service.save(path, include_cache=True)
        restored = SimilarityService.load(path)
        saved_meta, saved = service.index.state()
        loaded_meta, loaded = restored.index.state()
        assert saved_meta == loaded_meta
        for key, value in saved.items():
            assert_same_bits(loaded[key], value)
        for key, vector in service.encoder.cache.items():
            assert_same_bits(restored.encoder.cache[key], vector)
        assert_same_bits(restored.knn(trajectories[1], k=3),
                         service.knn(trajectories[1], k=3))
