"""Tests for DualMSM and the DualSTB encoder (paper §IV-C)."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import ConcatSTB, DualMSM, DualSTB, VanillaSTB, build_encoder

RNG = np.random.default_rng(71)


def rand_streams(batch=2, length=6, dt=16, ds=4):
    structural = nn.Tensor(RNG.standard_normal((batch, length, dt)), requires_grad=True)
    spatial = nn.Tensor(RNG.standard_normal((batch, length, ds)), requires_grad=True)
    return structural, spatial


class TestDualMSM:
    def make(self, dt=16, ds=4, heads=4, dropout=0.0):
        return DualMSM(dt, ds, heads, num_spatial_layers=2, dropout=dropout,
                       rng=np.random.default_rng(0))

    def test_output_shapes(self):
        msm = self.make()
        msm.eval()
        structural, spatial = rand_streams()
        c_ts, s_hidden = msm(structural, spatial)
        assert c_ts.shape == (2, 6, 16)
        assert s_hidden.shape == (2, 6, 4)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            DualMSM(15, 4, 4)
        with pytest.raises(ValueError):
            DualMSM(16, 5, 4)

    def test_needs_a_spatial_layer(self):
        """Eq. 15 fuses the last spatial layer's A_s: with no spatial layer
        there is none, so construction fails instead of the forward."""
        with pytest.raises(ValueError, match="num_spatial_layers"):
            DualMSM(16, 4, 4, num_spatial_layers=0)

    def test_gamma_is_learnable_and_fuses_spatial(self):
        """With γ=0 the output must equal pure structural attention."""
        msm = self.make()
        msm.eval()
        structural, spatial = rand_streams()
        out_default, _ = msm(structural.detach(), spatial.detach())

        msm.gamma.data[...] = 0.0
        out_zero, _ = msm(structural.detach(), spatial.detach())
        assert not np.allclose(out_default.data, out_zero.data), (
            "spatial attention must influence the fused output when γ≠0"
        )

    def test_gamma_receives_gradient(self):
        msm = self.make()
        structural, spatial = rand_streams()
        c_ts, _ = msm(structural, spatial)
        (c_ts ** 2).sum().backward()
        assert msm.gamma.grad is not None
        assert abs(float(msm.gamma.grad)) > 0

    def test_spatial_branch_parameters_exist(self):
        msm = self.make()
        names = [n for n, _ in msm.named_parameters()]
        assert any(n.startswith("spatial_encoder.layers.1") for n in names), (
            "spatial branch must stack multiple vanilla layers (paper: two)"
        )

    def test_padding_mask_respected(self):
        msm = self.make()
        msm.eval()
        dt, ds = 16, 4
        x = RNG.standard_normal((1, 4, dt))
        s = RNG.standard_normal((1, 4, ds))
        padded_x = np.concatenate([x, np.zeros((1, 2, dt))], axis=1)
        padded_s = np.concatenate([s, np.zeros((1, 2, ds))], axis=1)
        mask = np.array([[False] * 4 + [True] * 2])
        out_short, _ = msm(nn.Tensor(x), nn.Tensor(s))
        out_padded, _ = msm(nn.Tensor(padded_x), nn.Tensor(padded_s),
                            key_padding_mask=mask)
        np.testing.assert_allclose(out_padded.data[:, :4], out_short.data, atol=1e-10)


class TestDualSTB:
    def make(self, **kwargs):
        defaults = dict(structural_dim=16, spatial_dim=4, num_heads=4,
                        num_layers=2, num_spatial_layers=2, dropout=0.0,
                        rng=np.random.default_rng(0))
        defaults.update(kwargs)
        return DualSTB(**defaults)

    def test_embedding_shape(self):
        encoder = self.make()
        encoder.eval()
        structural, spatial = rand_streams()
        h = encoder(structural, spatial)
        assert h.shape == (2, 16)

    def test_accepts_numpy_inputs(self):
        encoder = self.make()
        encoder.eval()
        h = encoder(RNG.standard_normal((2, 6, 16)), RNG.standard_normal((2, 6, 4)))
        assert h.shape == (2, 16)

    def test_lengths_exclude_padding_from_pool(self):
        encoder = self.make()
        encoder.eval()
        x = RNG.standard_normal((1, 4, 16))
        s = RNG.standard_normal((1, 4, 4))
        padded_x = np.concatenate([x, 7.0 * np.ones((1, 3, 16))], axis=1)
        padded_s = np.concatenate([s, 7.0 * np.ones((1, 3, 4))], axis=1)
        mask = np.array([[False] * 4 + [True] * 3])
        h_short = encoder(nn.Tensor(x), nn.Tensor(s), lengths=np.array([4]))
        h_padded = encoder(nn.Tensor(padded_x), nn.Tensor(padded_s),
                           key_padding_mask=mask, lengths=np.array([4]))
        np.testing.assert_allclose(h_padded.data, h_short.data, atol=1e-10)

    def test_all_live_parameters_receive_gradients(self):
        """Every parameter gets a gradient except the known dead tail.

        In the final DualSTB layer, the spatial branch's propagated hidden
        state goes nowhere (only its attention matrix A_s enters Eq. 15),
        so the value/output/norm/FFN weights of that branch's last internal
        layer legitimately receive no gradient.
        """
        encoder = self.make(num_layers=2)
        structural, spatial = rand_streams()
        h = encoder(structural, spatial)
        (h ** 2).sum().backward()
        missing = [n for n, p in encoder.named_parameters() if p.grad is None]
        dead_prefix = "layers.1.dual_msm.spatial_encoder.layers.1."
        for name in missing:
            assert name.startswith(dead_prefix), f"unexpected dead parameter {name}"
            assert "w_query" not in name and "w_key" not in name, (
                f"{name} feeds A_s and must receive gradients"
            )

    def test_last_layer_parameters_subset(self):
        encoder = self.make(num_layers=3)
        last = {id(p) for p in encoder.last_layer_parameters()}
        everything = {id(p) for p in encoder.parameters()}
        assert last < everything
        assert len(last) == len(encoder.layers[2].parameters())

    def test_layer_count_configurable(self):
        assert len(self.make(num_layers=1).layers) == 1
        assert len(self.make(num_layers=4).layers) == 4


class TestAblationVariants:
    def test_vanilla_ignores_spatial(self):
        encoder = VanillaSTB(16, 4, num_heads=4, num_layers=1, dropout=0.0,
                             rng=np.random.default_rng(0))
        encoder.eval()
        structural = nn.Tensor(RNG.standard_normal((2, 5, 16)))
        spatial_a = nn.Tensor(RNG.standard_normal((2, 5, 4)))
        spatial_b = nn.Tensor(RNG.standard_normal((2, 5, 4)))
        h_a = encoder(structural, spatial_a)
        h_b = encoder(structural, spatial_b)
        np.testing.assert_allclose(h_a.data, h_b.data)

    def test_concat_uses_spatial(self):
        encoder = ConcatSTB(16, 4, num_heads=4, num_layers=1, dropout=0.0,
                            rng=np.random.default_rng(0))
        encoder.eval()
        structural = nn.Tensor(RNG.standard_normal((2, 5, 16)))
        spatial_a = nn.Tensor(RNG.standard_normal((2, 5, 4)))
        spatial_b = nn.Tensor(RNG.standard_normal((2, 5, 4)))
        assert not np.allclose(
            encoder(structural, spatial_a).data, encoder(structural, spatial_b).data
        )

    def test_concat_output_dim(self):
        encoder = ConcatSTB(16, 4, num_heads=4, num_layers=1,
                            rng=np.random.default_rng(0))
        assert encoder.output_dim == 20

    def test_concat_divisibility_check(self):
        with pytest.raises(ValueError):
            ConcatSTB(16, 5, num_heads=4)

    def test_build_encoder_factory(self):
        kwargs = dict(structural_dim=16, spatial_dim=4, num_heads=4, num_layers=1,
                      rng=np.random.default_rng(0))
        assert isinstance(build_encoder("dual", num_spatial_layers=1, **kwargs), DualSTB)
        assert isinstance(build_encoder("msm", **kwargs), VanillaSTB)
        assert isinstance(build_encoder("concat", **kwargs), ConcatSTB)
        with pytest.raises(KeyError):
            build_encoder("bogus", **kwargs)
