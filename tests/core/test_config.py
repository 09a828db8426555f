"""Tests for TrajCLConfig validation and derived configurations."""

import dataclasses

import pytest

from repro.core import TrajCLConfig


class TestValidation:
    def test_defaults_match_paper_settings(self):
        config = TrajCLConfig()
        # The behavioural parameters the paper fixes (§IV-A, §V-A).
        assert config.num_heads == 4
        assert config.num_layers == 2
        assert config.num_spatial_layers == 2
        assert config.augmentations == ("mask", "truncate")
        assert config.mask_ratio == 0.3
        assert config.truncate_keep == 0.7
        assert config.shift_radius == 100.0
        assert config.simplify_epsilon == 100.0
        assert config.momentum == 0.999
        assert config.learning_rate == 1e-3
        assert config.lr_step_epochs == 5
        assert config.lr_gamma == 0.5

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            TrajCLConfig(structural_dim=30, num_heads=4)
        with pytest.raises(ValueError):
            TrajCLConfig(num_heads=8)  # 32 divides, the 4 spatial columns not

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            TrajCLConfig(truncate_keep=1.0)
        with pytest.raises(ValueError):
            TrajCLConfig(mask_ratio=1.0)
        with pytest.raises(ValueError):
            TrajCLConfig(momentum=1.0)

    def test_with_overrides_revalidates(self):
        config = TrajCLConfig()
        with pytest.raises(ValueError):
            config.with_overrides(structural_dim=33)

    def test_with_overrides_is_functional(self):
        config = TrajCLConfig()
        updated = config.with_overrides(queue_size=64)
        assert updated.queue_size == 64
        assert config.queue_size != 64 or updated is not config

    def test_paper_scale_profile(self):
        paper = TrajCLConfig.paper_scale()
        assert paper.structural_dim == 256
        assert paper.max_len == 200
        assert paper.queue_size == 2048
        assert paper.max_epochs == 20

    def test_reduced_profile_changes_only_the_training_scale(self):
        default = dataclasses.asdict(TrajCLConfig())
        reduced = dataclasses.asdict(TrajCLConfig.reduced())
        assert {name for name in default if default[name] != reduced[name]} \
            == {"queue_size", "batch_size", "max_epochs", "momentum"}
