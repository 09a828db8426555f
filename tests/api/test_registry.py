"""Tests for the repro.api backend registry and protocols."""

import numpy as np
import pytest

from repro.api import (
    DISTANCE,
    EMBEDDING,
    EmbeddingBackend,
    MeasureBackend,
    as_backend,
    available_backends,
    backend_spec,
    get_backend,
)

HEURISTICS = {"hausdorff", "frechet", "edr", "edwp"}
SELF_SUPERVISED = {"t2vec", "e2dtc", "trjsr", "cstrm"}
SUPERVISED = {"neutraj", "traj2simvec", "t3s", "trajgat"}


def make_trajectories(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.standard_normal((int(rng.integers(10, 16)), 2)) * 50,
                  axis=0) + 2000.0
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def tiny_trajectories():
    return make_trajectories()


def build_tiny(name, trajectories):
    """Instantiate any backend at smoke scale from raw trajectories."""
    if name in HEURISTICS:
        return get_backend(name)
    kwargs = dict(trajectories=trajectories, dim=8, max_len=16, epochs=1,
                  seed=0)
    if name in SUPERVISED:
        kwargs.update(pairs=16)
    return get_backend(name, **kwargs)


class TestRegistry:
    def test_all_method_families_registered(self):
        names = set(available_backends())
        assert {"trajcl"} | HEURISTICS | SELF_SUPERVISED | SUPERVISED <= names
        assert len(names) >= 13

    def test_unknown_backend_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("no-such-method")

    def test_specs_have_kind_and_description(self):
        for name in available_backends():
            spec = backend_spec(name)
            assert spec.kind in (EMBEDDING, DISTANCE)
            assert spec.description

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_heuristics_resolve_and_score(self, name, tiny_trajectories):
        backend = get_backend(name)
        assert backend.kind == DISTANCE
        a, b = tiny_trajectories[:2]
        assert backend.distance(a, b) >= 0.0
        assert backend.pairwise([a], [a, b]).shape == (1, 2)

    @pytest.mark.parametrize(
        "name", ["trajcl"] + sorted(SELF_SUPERVISED | SUPERVISED)
    )
    def test_learned_backends_encode_right_shape(self, name, tiny_trajectories):
        backend = build_tiny(name, tiny_trajectories)
        assert backend.kind == EMBEDDING
        embeddings = backend.encode(tiny_trajectories[:3])
        assert embeddings.shape[0] == 3
        assert embeddings.shape[1] > 0
        assert np.isfinite(embeddings).all()
        # distance/pairwise come for free from the embedding contract
        assert backend.distance(*tiny_trajectories[:2]) >= 0.0

    def test_distance_backend_refuses_encode(self):
        with pytest.raises(NotImplementedError):
            get_backend("edr").encode([np.zeros((3, 2))])

    def test_learned_backend_requires_a_source(self):
        with pytest.raises(TypeError, match="model= or trajectories="):
            get_backend("t2vec")


class TestTrajCLHistory:
    """The ``trajcl`` factory keeps the training record it made."""

    def test_one_loss_per_epoch(self, tiny_trajectories):
        backend = get_backend("trajcl", trajectories=tiny_trajectories,
                              dim=8, max_len=16, epochs=2, seed=0)
        history = backend.history
        assert history.epochs_run == len(history.losses) == 2
        assert np.isfinite(history.losses).all()
        assert len(history.epoch_seconds) == 2

    def test_empty_when_nothing_trained(self, tiny_trajectories):
        backend = get_backend("trajcl", trajectories=tiny_trajectories,
                              dim=8, max_len=16, train=False)
        assert backend.history.losses == []
        assert backend.history.epochs_run == 0

    def test_none_for_a_model_that_came_built(self, tiny_trajectories,
                                              tmp_path):
        from repro.core import save_pipeline

        model = get_backend("trajcl", trajectories=tiny_trajectories,
                            dim=8, max_len=16, train=False).model
        assert get_backend("trajcl", model=model).history is None
        path = str(tmp_path / "trajcl.npz")
        save_pipeline(path, model)
        assert get_backend("trajcl", checkpoint=path).history is None


class TestAsBackend:
    def test_backend_passthrough(self):
        backend = get_backend("hausdorff")
        assert as_backend(backend) is backend

    def test_wraps_measure_and_model(self, tiny_trajectories):
        from repro.measures import get_measure

        wrapped = as_backend(get_measure("frechet"))
        assert isinstance(wrapped, MeasureBackend)
        assert wrapped.kind == DISTANCE

        model = build_tiny("t2vec", tiny_trajectories).model
        wrapped = as_backend(model)
        assert isinstance(wrapped, EmbeddingBackend)
        assert wrapped.kind == EMBEDDING

    def test_rejects_non_methods(self):
        with pytest.raises(TypeError):
            as_backend(42)

    def test_preserves_target_scale_of_approximators(self, tiny_trajectories):
        backend = build_tiny("neutraj", tiny_trajectories)
        backend.model.target_scale = 10.0
        a, b = tiny_trajectories[:2]
        scaled = backend.pairwise([a], [b])[0, 0]
        backend.model.target_scale = 1.0
        unscaled = backend.pairwise([a], [b])[0, 0]
        assert scaled == pytest.approx(10.0 * unscaled)
