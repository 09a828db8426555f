"""Tests for Module/Parameter containers and the core layers."""

import numpy as np
import pytest

import repro.nn as nn

RNG = np.random.default_rng(23)


def randn(*shape):
    return RNG.standard_normal(shape)


class TinyNet(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng=rng)
        self.fc2 = nn.Linear(8, 2, rng=rng)
        self.norm = nn.LayerNorm(8)

    def forward(self, x):
        return self.fc2(self.norm(self.fc1(x)).relu())


class TestModule:
    def test_named_parameters_paths(self):
        net = TinyNet(np.random.default_rng(0))
        names = dict(net.named_parameters())
        assert "fc1.weight" in names
        assert "fc1.bias" in names
        assert "norm.gamma" in names
        assert len(names) == 6

    def test_num_parameters(self):
        net = TinyNet(np.random.default_rng(0))
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2 + 8 + 8

    def test_train_eval_propagates(self):
        net = nn.Sequential(nn.Linear(3, 3), nn.Dropout(0.5))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        net = TinyNet(np.random.default_rng(0))
        out = net(nn.tensor(randn(2, 4)))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_parameter_version_moves_on_writes_not_reads(self):
        net = TinyNet(np.random.default_rng(0))
        version = nn.parameter_version()

        def moved():
            nonlocal version
            previous, version = version, nn.parameter_version()
            return version != previous

        net(nn.tensor(randn(2, 4))).sum().backward()
        net.state_dict()
        assert not moved()                  # a forward, a backward, a copy
        net.fc1.weight.data += 1.0
        assert moved()                      # augmented assignment assigns
        net.fc1.bias.data[...] = 0.0
        assert not moved()                  # a write through a view is unseen
        net.load_state_dict(net.state_dict())
        assert moved()
        nn.SGD(net.parameters(), lr=0.1).step()
        assert moved()
        nn.Adam(net.parameters(), lr=0.1).step()
        assert moved()

    def test_state_dict_roundtrip(self):
        net_a = TinyNet(np.random.default_rng(1))
        net_b = TinyNet(np.random.default_rng(2))
        x = randn(3, 4)
        assert not np.allclose(net_a(nn.tensor(x)).data, net_b(nn.tensor(x)).data)
        net_b.load_state_dict(net_a.state_dict())
        np.testing.assert_allclose(net_a(nn.tensor(x)).data, net_b(nn.tensor(x)).data)

    def test_load_state_dict_strict_mismatch(self):
        net = TinyNet(np.random.default_rng(0))
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet(np.random.default_rng(0))
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_module_list(self):
        layers = nn.ModuleList(nn.Linear(2, 2) for _ in range(3))
        assert len(layers) == 3
        assert len(list(layers.named_parameters())) == 6


class TestLinear:
    def test_output_shape_and_bias(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(nn.tensor(randn(7, 5)))
        assert out.shape == (7, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_3d_input(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(nn.tensor(randn(2, 4, 5))).shape == (2, 4, 3)

    def test_gradients_flow_to_weights(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(0))
        layer(nn.tensor(randn(3, 4))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6, rng=np.random.default_rng(0))
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_pretrained_weight(self):
        table = randn(10, 6)
        emb = nn.Embedding(10, 6, weight=table)
        np.testing.assert_allclose(emb(np.array([3])).data[0], table[3])

    def test_pretrained_shape_check(self):
        with pytest.raises(ValueError):
            nn.Embedding(10, 6, weight=randn(9, 6))

    def test_frozen_embedding_gets_no_grad(self):
        emb = nn.Embedding(10, 6, weight=randn(10, 6), trainable=False)
        out = emb(np.array([1, 2])) * nn.tensor(randn(2, 6), requires_grad=True)
        out.sum().backward()
        assert emb.weight.grad is None

    def test_out_of_range_ids(self):
        emb = nn.Embedding(10, 6, rng=np.random.default_rng(0))
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_duplicate_ids_accumulate_gradient(self):
        emb = nn.Embedding(5, 3, rng=np.random.default_rng(0))
        emb(np.array([2, 2, 2])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], 3 * np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))


class TestLayerNormLayer:
    def test_parameterized_output(self):
        layer = nn.LayerNorm(4)
        layer.gamma.data[...] = 2.0
        layer.beta.data[...] = 1.0
        out = layer(nn.tensor(randn(3, 4)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.ones(3), atol=1e-8)


class TestDropoutLayer:
    def test_respects_training_flag(self):
        layer = nn.Dropout(0.9, rng=np.random.default_rng(0))
        x = nn.tensor(np.ones((10, 10)))
        layer.eval()
        np.testing.assert_allclose(layer(x).data, x.data)
        layer.train()
        assert (layer(x).data == 0).any()

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestFeedForwardAndProjection:
    def test_ffn_shape_preserved(self):
        ffn = nn.FeedForward(8, hidden_dim=16, rng=np.random.default_rng(0))
        ffn.eval()
        assert ffn(nn.tensor(randn(2, 5, 8))).shape == (2, 5, 8)

    def test_projection_head_maps_dim(self):
        head = nn.ProjectionHead(16, 4, rng=np.random.default_rng(0))
        assert head(nn.tensor(randn(3, 16))).shape == (3, 4)

    def test_projection_head_structure_fc_relu_fc(self):
        # Eq. 1 of the paper: two linear layers, ReLU between, no output ReLU.
        head = nn.ProjectionHead(4, 2, rng=np.random.default_rng(0))
        out = head(nn.tensor(randn(50, 4)))
        assert (out.data < 0).any(), "output must not be ReLU-clamped"
