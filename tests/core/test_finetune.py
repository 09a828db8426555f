"""Tests for fine-tuning TrajCL to approximate heuristic measures (§V-F)."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.core import FrozenBackboneApproximator, HeuristicApproximator, TrajCL
from repro.measures import Hausdorff

from .conftest import make_trajectories


@pytest.fixture()
def approximator(small_model):
    return HeuristicApproximator(small_model, mode="last_layer",
                                 rng=np.random.default_rng(0))


class TestConstruction:
    def test_invalid_mode(self, small_model):
        with pytest.raises(ValueError):
            HeuristicApproximator(small_model, mode="bogus")

    def test_last_layer_mode_freezes_early_layers(self, small_model):
        approx = HeuristicApproximator(small_model, mode="last_layer")
        last = {id(p) for p in small_model.encoder.last_layer_parameters()}
        for param in small_model.encoder.parameters():
            if id(param) in last:
                assert param.requires_grad
            else:
                assert not param.requires_grad

    def test_all_mode_unfreezes_everything(self, small_model):
        HeuristicApproximator(small_model, mode="all")
        assert all(p.requires_grad for p in small_model.encoder.parameters())

    def test_head_only_mode(self, small_model):
        approx = HeuristicApproximator(small_model, mode="head_only")
        assert all(not p.requires_grad for p in small_model.encoder.parameters())
        assert len(approx.trainable_parameters()) == len(approx.mlp.parameters())

    def test_mlp_is_two_layers_of_width_d(self, small_model):
        """Paper: 'a two-layer MLP where the size of each layer is the same as d'."""
        approx = HeuristicApproximator(small_model)
        d = small_model.encoder.output_dim
        weights = [p for n, p in approx.mlp.named_parameters() if n.endswith("weight")]
        assert len(weights) == 2
        assert all(w.shape == (d, d) for w in weights)


class TestTraining:
    def test_fit_reduces_mse(self, approximator, small_setup):
        _, _, trajectories = small_setup
        history = approximator.fit(
            trajectories, Hausdorff(), epochs=5, pairs_per_epoch=64,
            batch_size=16, rng=np.random.default_rng(1),
        )
        assert len(history.losses) == 5
        assert history.losses[-1] < history.losses[0]

    def test_fit_needs_pairs(self, approximator):
        with pytest.raises(ValueError):
            approximator.fit([make_trajectories(1)[0]], Hausdorff())

    def test_target_scale_recorded(self, approximator, small_setup):
        _, _, trajectories = small_setup
        approximator.fit(trajectories, Hausdorff(), epochs=1, pairs_per_epoch=32,
                         rng=np.random.default_rng(2))
        assert approximator.target_scale > 0

    def test_distance_matrix_shape_and_scale(self, approximator, small_setup):
        _, _, trajectories = small_setup
        approximator.fit(trajectories, Hausdorff(), epochs=2, pairs_per_epoch=64,
                         rng=np.random.default_rng(3))
        matrix = approximator.distance_matrix(trajectories[:3], trajectories[:6])
        assert matrix.shape == (3, 6)
        assert (matrix >= 0).all()
        np.testing.assert_allclose(np.diag(matrix[:, :3]), 0.0, atol=1e-8)

    def test_approximation_correlates_with_target(self, small_model, small_setup):
        """After fine-tuning, predicted distances should rank pairs roughly
        like the heuristic (the substance of Table X)."""
        _, _, trajectories = small_setup
        approx = HeuristicApproximator(small_model, mode="all",
                                       rng=np.random.default_rng(4))
        measure = Hausdorff()
        approx.fit(trajectories, measure, epochs=12, pairs_per_epoch=256,
                   batch_size=32, lr=2e-3, rng=np.random.default_rng(5))

        queries = trajectories[:4]
        database = trajectories[4:20]
        predicted = approx.distance_matrix(queries, database)
        actual = measure.pairwise(queries, database)
        # Spearman rank correlation per query row.
        from scipy.stats import spearmanr

        correlations = [
            spearmanr(predicted[i], actual[i]).statistic for i in range(len(queries))
        ]
        assert np.mean(correlations) > 0.4, f"rank correlation too low: {correlations}"


class TestEncodeMode:
    """``encode`` leaves every module in the mode it found it in."""

    @pytest.fixture()
    def dropout_model(self, small_setup):
        config, features, _ = small_setup
        return TrajCL(features, dataclasses.replace(config, dropout=0.1),
                      rng=np.random.default_rng(2))

    def test_encode_keeps_an_evaluating_head_in_eval_mode(
            self, dropout_model, small_setup):
        batch = small_setup[2][:4]
        approx = HeuristicApproximator(dropout_model,
                                       rng=np.random.default_rng(0))
        approx.eval()
        approx.encode(batch)
        assert not approx.training
        assert not dropout_model.encoder.training
        with nn.no_grad():  # no dropout draws: the same batch, the same bits
            first = approx.embed_batch(batch).data
            second = approx.embed_batch(batch).data
        np.testing.assert_array_equal(first, second)

    def test_encode_restores_each_module_on_its_own(
            self, dropout_model, small_setup):
        approx = HeuristicApproximator(dropout_model,
                                       rng=np.random.default_rng(0))
        before = [module.training for module in approx.modules()]
        approx.encode(small_setup[2][:4])
        assert [module.training for module in approx.modules()] == before
        # the momentum branch is in eval mode for good
        assert approx.training
        assert not dropout_model.momentum_encoder.training


class TestFrozenBackbone:
    """The Table X head over a frozen pre-trained model."""

    @pytest.fixture()
    def head(self, small_model):
        return FrozenBackboneApproximator(
            small_model, dim=small_model.encoder.output_dim,
            rng=np.random.default_rng(0))

    @staticmethod
    def fit(head, trajectories, epochs=5):
        return head.fit(trajectories, Hausdorff(), epochs=epochs,
                        pairs_per_epoch=64, batch_size=16,
                        rng=np.random.default_rng(1))

    def test_fit_lowers_the_mse(self, head, small_setup):
        history = self.fit(head, small_setup[2])
        assert len(history.losses) == 5
        assert history.losses[-1] < history.losses[0]

    def test_fit_leaves_the_base_parameters_unchanged(
            self, head, small_model, small_setup):
        before = small_model.state_dict()
        self.fit(head, small_setup[2], epochs=2)
        after = small_model.state_dict()
        assert sorted(after) == sorted(before)
        for name, value in before.items():
            np.testing.assert_array_equal(after[name], value, err_msg=name)

    def test_distance_matrix_is_the_scaled_l1_of_encode(
            self, head, small_setup):
        trajectories = small_setup[2]
        self.fit(head, trajectories, epochs=1)
        assert head.target_scale != 1.0
        queries, database = trajectories[:3], trajectories[3:10]
        l1 = np.abs(head.encode(queries)[:, None, :]
                    - head.encode(database)[None, :, :]).sum(axis=-1)
        np.testing.assert_allclose(head.distance_matrix(queries, database),
                                   head.target_scale * l1, rtol=1e-12)
