"""Tests for full-pipeline checkpointing (repro.core.checkpoint)."""

import json

import numpy as np
import pytest

from repro.core import (
    TrajCL, load_pipeline, pipeline_from_state, pipeline_state, save_pipeline,
)

from .conftest import make_trajectories


class TestPipelineCheckpoint:
    def test_roundtrip_preserves_embeddings(self, small_model, small_setup,
                                            tmp_path):
        _, _, trajectories = small_setup
        path = str(tmp_path / "pipeline.npz")
        save_pipeline(path, small_model)
        restored = load_pipeline(path)

        original = small_model.encode(trajectories[:6])
        loaded = restored.encode(trajectories[:6])
        np.testing.assert_allclose(original, loaded, atol=1e-12)

    def test_roundtrip_preserves_config(self, small_model, tmp_path):
        path = str(tmp_path / "pipeline.npz")
        save_pipeline(path, small_model)
        restored = load_pipeline(path)
        assert restored.config == small_model.config
        assert restored.encoder_variant == small_model.encoder_variant

    def test_roundtrip_preserves_grid(self, small_model, tmp_path):
        path = str(tmp_path / "pipeline.npz")
        save_pipeline(path, small_model)
        restored = load_pipeline(path)
        original_grid = small_model.features.grid
        loaded_grid = restored.features.grid
        assert loaded_grid.n_cells == original_grid.n_cells
        assert loaded_grid.cell_size == original_grid.cell_size

    def test_variant_roundtrip(self, small_setup, tmp_path):
        config, features, trajectories = small_setup
        model = TrajCL(features, config, encoder_variant="msm",
                       rng=np.random.default_rng(5))
        path = str(tmp_path / "msm.npz")
        save_pipeline(path, model)
        restored = load_pipeline(path)
        assert restored.encoder_variant == "msm"
        np.testing.assert_allclose(
            model.encode(trajectories[:3]), restored.encode(trajectories[:3]),
            atol=1e-12,
        )

    def test_rejects_non_pipeline_npz(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_pipeline(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pipeline(str(tmp_path / "missing.npz"))


def with_config_keys(state, **keys):
    """``state`` with ``keys`` added to its config dict, as a checkpoint
    written by an older version carries them."""
    meta = json.loads(bytes(state["__meta__"]).decode("utf-8"))
    meta["config"].update(keys)
    encoded = json.dumps(meta).encode("utf-8")
    return {**state, "__meta__": np.frombuffer(encoded, dtype=np.uint8)}


class TestRetiredConfigFields:
    """Checkpoints and service snapshots written while the config still
    had ``cell_size``, ``spatial_dim`` and ``train_cell_embedding`` keep
    loading."""

    def test_old_state_loads_and_encodes_bit_identically(self, small_model,
                                                         small_setup):
        _, _, trajectories = small_setup
        state = with_config_keys(pipeline_state(small_model),
                                 cell_size=100.0, spatial_dim=4)
        restored = pipeline_from_state(state)
        assert restored.config == small_model.config
        assert (restored.encode(trajectories[:6]).tobytes()
                == small_model.encode(trajectories[:6]).tobytes())

    @pytest.mark.parametrize("value", [False, True])
    def test_train_cell_embedding_either_way_loads_bit_identically(
            self, small_model, small_setup, value):
        # the cell table is a plain array whatever the flag said
        _, _, trajectories = small_setup
        state = with_config_keys(pipeline_state(small_model),
                                 train_cell_embedding=value)
        restored = pipeline_from_state(state)
        assert restored.config == small_model.config
        assert (restored.encode(trajectories[:6]).tobytes()
                == small_model.encode(trajectories[:6]).tobytes())

    def test_a_spatial_dim_other_than_4_fails_typed(self, small_model):
        state = with_config_keys(pipeline_state(small_model), spatial_dim=6)
        with pytest.raises(ValueError, match="spatial_dim"):
            pipeline_from_state(state)

    def test_any_other_unknown_key_still_fails(self, small_model):
        state = with_config_keys(pipeline_state(small_model), cell_sise=1.0)
        with pytest.raises(TypeError, match="cell_sise"):
            pipeline_from_state(state)
