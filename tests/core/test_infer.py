"""Parity suite for the autograd-free inference engine (fast encode path).

Covers the acceptance bars of the engine: float64 near-bit-exact /
float32 ~1e-5-relative parity against the reference Tensor-graph encoder
for every Fig. 7 encoder variant (the engine serves float32; every
float64 comparison here asks for it by name), invariance to length
bucketing (input order and chunking must not change embeddings) and
recompilation after weight updates. (The L1 distance helper that used to live beside the
engine is now ``repro.index.distance``; its tests are in
``tests/index/test_distance.py``.)
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import FeatureEnrichment, InferenceEncoder, TrajCL, TrajCLConfig
from repro.core import infer
from repro.core.infer import resolve_dtype
from repro.trajectory import Grid

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
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        fast = model.encode(mixed_trajectories, fast=True, dtype="float64")
        assert fast.dtype == np.float64
        np.testing.assert_allclose(fast, reference, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_float32_within_1e5_relative(self, small_setup,
                                         mixed_trajectories, variant):
        model = make_model(small_setup, variant)
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        fast = model.encode(mixed_trajectories, fast=True, dtype="float32")
        assert fast.dtype == np.float32
        scale = np.abs(reference).max()
        np.testing.assert_allclose(fast, reference, rtol=1e-4,
                                   atol=1e-5 * scale)
        assert np.abs(fast - reference).max() <= 1e-5 * scale

    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_parity_with_live_biases_and_affines(self, small_setup,
                                                 mixed_trajectories,
                                                 variant):
        """The folds at work: every LayerNorm γ / β and FFN bias away from
        its initial value, both dtypes at their usual tolerances."""
        model = live_affines(make_model(small_setup, variant), seed=2)
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        np.testing.assert_allclose(
            model.encode(mixed_trajectories, dtype="float64"), reference,
            rtol=1e-10, atol=1e-12)
        served = model.encode(mixed_trajectories)
        assert np.abs(served - reference).max() \
            <= 1e-5 * np.abs(reference).max()

    def test_default_encode_routes_through_engine(self, small_setup,
                                                  mixed_trajectories):
        model = make_model(small_setup)
        default = model.encode(mixed_trajectories)
        # Default is the fast float32 engine.
        assert default.dtype == np.float32
        assert list(model._inference_cache) == ["float32"]
        assert default.tobytes() == model.encode(
            mixed_trajectories, fast=True, dtype="float32").tobytes()
        # In float64 the engine is near-bit-exact, not identical.
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        np.testing.assert_allclose(
            model.encode(mixed_trajectories, dtype="float64"), reference,
            rtol=1e-10, atol=1e-12)

    def test_from_model_rejects_unknown_variant(self, small_setup):
        model = make_model(small_setup)
        model.encoder_variant = "custom"
        with pytest.raises(ValueError, match="unsupported encoder variant"):
            InferenceEncoder.from_model(model)

    def test_unknown_variant_falls_back_to_reference(self, small_setup,
                                                     mixed_trajectories):
        model = make_model(small_setup)
        expected = model.encode(mixed_trajectories, fast=False,
                                dtype="float64")
        model.encoder_variant = "custom"
        assert model.inference_encoder() is None
        # fast requested, falls back
        out = model.encode(mixed_trajectories, dtype="float64")
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # ... and still hands back the serving dtype when none is named
        assert model.encode(mixed_trajectories).dtype == np.float32


class TestBucketing:
    def test_permutation_invariance(self, small_setup, mixed_trajectories):
        """Shuffling the batch must return the same embedding per id even
        though the length buckets regroup completely."""
        model = make_model(small_setup)
        base = model.encode(mixed_trajectories, batch_size=8,
                            dtype="float64")
        perm = np.random.default_rng(0).permutation(len(mixed_trajectories))
        shuffled = model.encode([mixed_trajectories[i] for i in perm],
                                batch_size=8, dtype="float64")
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-9,
                                   atol=1e-12)

    def test_batch_size_invariance(self, small_setup, mixed_trajectories):
        model = make_model(small_setup)
        whole = model.encode(mixed_trajectories, batch_size=1024,
                             dtype="float64")
        chunked = model.encode(mixed_trajectories, batch_size=3,
                               dtype="float64")
        np.testing.assert_allclose(whole, chunked, rtol=1e-9, atol=1e-12)

    def test_single_trajectory(self, small_setup, mixed_trajectories):
        model = make_model(small_setup)
        batch = model.encode(mixed_trajectories, dtype="float64")
        one = model.encode(mixed_trajectories[:1], dtype="float64")
        np.testing.assert_allclose(one[0], batch[0], rtol=1e-9, atol=1e-12)


def add_in_place(model):
    param = model.encoder.parameters()[0]
    param.data += 0.05


def load_shifted_state(model):
    state = model.encoder.state_dict()
    model.encoder.load_state_dict({name: value + 0.05
                                   for name, value in state.items()})


def optimiser_step(optimiser):
    def step(model):
        params = model.encoder.parameters()
        for param in params:
            param.grad = np.full_like(param.data, 0.5)
        optimiser(params, lr=0.05).step()
        model.encoder.zero_grad()
    return step


def swap_features(model):
    features = model.features
    cells = np.random.default_rng(9).standard_normal(
        features.cell_embeddings.shape)
    model.features = FeatureEnrichment(features.grid, cells,
                                       max_len=features.max_len)


def swap_cell_table(model):
    model.features.cell_embeddings = np.random.default_rng(9).standard_normal(
        model.features.cell_embeddings.shape)


#: every way the weights or tables a compiled engine copied can change
WRITES = {
    "data_iadd": add_in_place,
    "load_state_dict": load_shifted_state,
    "sgd_step": optimiser_step(nn.SGD),
    "adam_step": optimiser_step(nn.Adam),
    "features": swap_features,
    "cell_table": swap_cell_table,
}


class TestEngineLifecycle:
    def test_engine_cached_until_weights_change(self, small_setup,
                                                mixed_trajectories):
        model = make_model(small_setup)
        model.encode(mixed_trajectories)
        first = model._inference_cache["float32"]
        model.encode(mixed_trajectories)
        assert model._inference_cache["float32"] is first  # cache hit

        # An in-place weight update (what the optimizer does) must
        # invalidate the compiled engine and change the embeddings.
        before = model.encode(mixed_trajectories)
        param = model.encoder.parameters()[0]
        param.data += 0.05
        after = model.encode(mixed_trajectories)
        assert model._inference_cache["float32"] is not first
        assert not np.allclose(before, after)
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        np.testing.assert_allclose(
            model.encode(mixed_trajectories, dtype="float64"), reference,
            rtol=1e-10, atol=1e-12,
        )
        assert np.abs(after - reference).max() <= 1e-5 * np.abs(reference).max()

    @pytest.mark.parametrize("write", list(WRITES), ids=list(WRITES))
    def test_every_write_path_recompiles(self, small_setup,
                                         mixed_trajectories, write):
        config, features, _ = small_setup
        model = TrajCL(FeatureEnrichment(features.grid,
                                         features.cell_embeddings,
                                         max_len=config.max_len),
                       config, rng=np.random.default_rng(7))
        before = model.encode(mixed_trajectories)
        first = model._inference_cache["float32"]
        WRITES[write](model)
        after = model.encode(mixed_trajectories)
        assert model._inference_cache["float32"] is not first
        assert not np.allclose(before, after)
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        assert np.abs(after - reference).max() <= 1e-5 * np.abs(reference).max()

    def test_cache_hit_reads_no_weight(self, small_setup, mixed_trajectories,
                                       monkeypatch):
        model = make_model(small_setup)
        expected = model.encode(mixed_trajectories)
        first = model._inference_cache["float32"]

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit walked the weights")

        monkeypatch.setattr(nn.Module, "named_parameters", forbidden)
        monkeypatch.setattr(InferenceEncoder, "from_model", forbidden)
        assert model.encode(mixed_trajectories).tobytes() == expected.tobytes()
        assert model._inference_cache["float32"] is first

    def test_dtype_resolution(self):
        assert resolve_dtype(None) == np.float32  # the serving dtype
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
        assert matrix.dtype == emb_q.dtype == np.float32
        expected = np.abs(emb_q[:, None, :] - emb_d[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(matrix, expected, atol=1e-12)


# ----------------------------------------------------------------------
# Laws of the in-place, keys-outermost, re-bucketed forward: one per
# test, generated cases derandomized and bounded
# ----------------------------------------------------------------------
def walks(lengths, seed):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.standard_normal((n, 2)) * 60, axis=0) + 3000.0
            for n in lengths]


def count_calls(monkeypatch, cls, *names):
    """Wrap ``cls``'s methods ``names`` to count their calls: counted, not
    timed."""
    counts = dict.fromkeys(names, 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    return counts


def query_scaled(small_setup, variant="dual"):
    """Query weights x30: logits reach ~250, past float32 ``exp``'s 88.7
    (not float64's 709), so float32 attention takes the shifted path."""
    model = make_model(small_setup, variant)
    for name, param in model.encoder.named_parameters():
        if "w_query" in name:
            param.data *= 30.0
    return model


class TestForwardLaws:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(1, 80), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["dual", "msm", "concat"]),
        dtype=st.sampled_from(["float64", "float32"]),
        batch_size=st.sampled_from([4, 256]),
        past_exp_range=st.booleans(),
    )
    def test_row_equals_single_encode(self, small_setup, lengths, seed,
                                      variant, dtype, batch_size,
                                      past_exp_range):
        """Padding width, bucket mates and the derived step are invisible
        — also when a bucket's attention falls back to the shifted
        softmax and a row alone does not."""
        model = (query_scaled if past_exp_range else make_model)(
            small_setup, variant)
        batch = walks(lengths, seed)
        together = model.encode(batch, dtype=dtype, batch_size=batch_size)
        alone = np.concatenate([model.encode([t], dtype=dtype) for t in batch])
        rtol, atol = (1e-9, 1e-12) if dtype == "float64" else (1e-4, 1e-5)
        np.testing.assert_allclose(together, alone, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("variant", ["dual", "msm"])
    def test_bucket_mates_move_no_bit(self, small_setup, variant):
        """At one padded length a row's bits do not depend on how many
        trajectories share its bucket: no kernel in the forward rounds by
        the bucket's width (BLAS's (1, d) @ (d, N) does, by N). The
        ``concat`` ablation's 20-wide stream has never kept this; it is
        held to the parity tolerances only."""
        model = make_model(small_setup, variant)
        batch = walks([40, 45, 52] * 11, seed=14)     # all cut to max_len
        whole = model.encode(batch)
        for count in (1, 2, 3, 5, 8, 13, 21):
            assert (model.encode(batch[:count]).tobytes()
                    == whole[:count].tobytes())

    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_shortest_beside_longest(self, small_setup, variant):
        """One point next to ``max_len`` points: the bias branch at its
        widest, 39 of 40 keys masked."""
        model = make_model(small_setup, variant)
        batch = walks([1, 40, 1, 40, 40, 1], seed=11)
        np.testing.assert_allclose(
            model.encode(batch, dtype="float64"),
            model.encode(batch, fast=False, dtype="float64"),
            rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_float32_past_exp_range_takes_the_shifted_path(
            self, small_setup, mixed_trajectories, variant, monkeypatch):
        model = query_scaled(small_setup, variant)
        reference = model.encode(mixed_trajectories, fast=False,
                                 dtype="float64")
        counts = count_calls(monkeypatch, infer._Attention,
                             "coefficients", "_logits")
        served = model.encode(mixed_trajectories)
        assert counts["_logits"] > counts["coefficients"]   # recomputed
        assert np.isfinite(served).all()
        scale = np.abs(reference).max()
        assert np.abs(served - reference).max() <= 1e-5 * scale
        # float64's exp has the range: no attention is computed twice
        counts.update(coefficients=0, _logits=0)
        np.testing.assert_allclose(
            model.encode(mixed_trajectories, dtype="float64"), reference,
            rtol=1e-10, atol=1e-12)
        assert counts["_logits"] == counts["coefficients"]

    def test_weights_and_sums_split_freely(self, small_setup,
                                           mixed_trajectories, monkeypatch):
        """Only ``weights · reciprocal`` is the attention: sums 60 decades
        apart (the structural map's x1e30, the spatial one's x1e-30)
        overflow Eq. 15's fused factor ``γ r_s / r_t`` in float32, and the
        DualSTB must normalise each map on its own instead."""
        model = make_model(small_setup)
        expected = model.encode(mixed_trajectories)
        plain = infer._Attention.coefficients

        def split(self, *args):
            weights, reciprocal, value = plain(self, *args)
            shift = np.float32(1e-30 if value.shape[-1] == 1 else 1e30)
            weights *= shift
            reciprocal /= shift
            return weights, reciprocal, value

        monkeypatch.setattr(infer._Attention, "coefficients", split)
        served = model.encode(mixed_trajectories)
        assert np.isfinite(served).all()
        np.testing.assert_allclose(served, expected, rtol=1e-4,
                                   atol=1e-5 * np.abs(expected).max())

    def test_logits_beyond_exp_range(self, small_setup, mixed_trajectories):
        """Logits in the 1e5s: without the per-query max shift ``exp``
        overflows to inf and the softmax is nan."""
        model = make_model(small_setup)
        for name, param in model.encoder.named_parameters():
            if "w_query" in name or "w_key" in name:
                param.data *= 1e3
        assert np.isfinite(model.encode(mixed_trajectories)).all()
        fast = model.encode(mixed_trajectories, dtype="float64")
        assert np.isfinite(fast).all()
        np.testing.assert_allclose(
            fast, model.encode(mixed_trajectories, fast=False,
                               dtype="float64"),
            rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_encode_has_no_side_effects(self, small_setup, variant):
        """Equal lengths make every bucket a contiguous view of the
        featurised group — an in-place op on a block's input would write
        through it."""
        model = make_model(small_setup, variant)
        engine = model.inference_encoder()
        features = engine.features  # the engine's own float32 tables
        batch = walks([40] * 30, seed=12)
        state = [features.cell_embeddings, features._pe_structural,
                 features._pe_spatial, *batch]
        before = [array.copy() for array in state]
        first = model.encode(batch)
        second = model.encode(batch)
        assert first.tobytes() == second.tobytes()
        for array, copy in zip(state, before):
            assert array.tobytes() == copy.tobytes()

        structural, spatial, _, lengths = features.encode_batch(batch[:4])
        assert structural.dtype == spatial.dtype == np.float32
        kept = structural.copy(), spatial.copy()
        engine._forward(structural, spatial, lengths)
        assert structural.tobytes() == kept[0].tobytes()
        assert spatial.tobytes() == kept[1].tobytes()

    def test_paper_scale_bucket_is_one_trajectory(self):
        """d = 256, L = 200: one trajectory's logits already pass the
        bucket's byte budget — the derived step bottoms out at 1, not 0."""
        config = TrajCLConfig.paper_scale()
        batch = walks([200, 150, 7], seed=13)
        grid = Grid.covering(batch, cell_size=1000)
        cells = np.random.default_rng(3).standard_normal(
            (grid.n_cells, config.structural_dim))
        features = FeatureEnrichment(grid, cells, max_len=config.max_len)
        model = TrajCL(features, config, rng=np.random.default_rng(4))
        engine = model.inference_encoder()
        assert engine._bucket_rows(config.max_len) == 1
        out = engine.encode(batch)
        assert out.shape == (3, config.structural_dim)
        assert np.isfinite(out).all()

    def test_bucket_size_is_not_an_option(self, small_setup):
        model = make_model(small_setup)
        with pytest.raises(TypeError):
            model.encode(walks([5], seed=0), bucket_size=64)
        with pytest.raises(TypeError):
            model.inference_encoder().encode(walks([5], seed=0), bucket_size=64)

    def test_padded_features_exist_one_bucket_at_a_time(self):
        """The e2e encoder shape (d = 64, L = 32), one 256-trajectory
        chunk: a bucket's padded features are laid out beside its forward,
        not the whole group's — a (256, 32, 64) float32 block alone is
        2 MiB — and each of the forward's temporaries (the QKV product,
        the attention weights of each block) is dropped at its last use:
        2.88 MiB, 4.16 while they lived to the end of their block."""
        config = TrajCLConfig(structural_dim=64, max_len=32,
                              projection_dim=16, dropout=0.0)
        batch = walks([40] * 256, seed=17)
        grid = Grid.covering(batch, cell_size=250)
        cells = np.random.default_rng(1).standard_normal(
            (grid.n_cells, config.structural_dim))
        features = FeatureEnrichment(grid, cells, max_len=config.max_len)
        engine = TrajCL(features, config,
                        rng=np.random.default_rng(7)).inference_encoder()
        engine.encode(batch)
        tracemalloc.start()
        try:
            engine.encode(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 2 ** 20, peak


# ----------------------------------------------------------------------
# The embedding reads the last DualSTB's structural stream only: its last
# spatial block matters through its attention coefficients and nothing
# else — a property of the model, which the engine exploits
# ----------------------------------------------------------------------
def dual_model(small_setup, num_layers, num_spatial_layers):
    config, features, _ = small_setup
    config = config.with_overrides(num_layers=num_layers,
                                   num_spatial_layers=num_spatial_layers)
    return TrajCL(features, config, rng=np.random.default_rng(7))


def encode_every_way(model, batch):
    return [model.encode(batch, fast=False, dtype="float64").tobytes(),
            model.encode(batch, dtype="float64").tobytes(),
            model.encode(batch).tobytes()]


class TestDeadBlock:
    @pytest.mark.parametrize("num_spatial_layers", [1, 2])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_only_the_coefficients_of_the_last_spatial_block_are_read(
            self, small_setup, num_layers, num_spatial_layers):
        model = dual_model(small_setup, num_layers, num_spatial_layers)
        batch = walks([1, 9, 40, 23, 40], seed=31)
        before = encode_every_way(model, batch)
        block = model.encoder.layers[-1].dual_msm.spatial_encoder.layers[-1]
        unread = [block.attn.w_value.weight, block.attn.w_out.weight,
                  block.norm1.gamma, block.norm1.beta,
                  block.norm2.gamma, block.norm2.beta,
                  *block.ffn.parameters()]
        assert len(unread) == 10
        for param in unread:
            param.data += 0.3
        # reference graph, float64 engine, served float32: not one bit
        assert encode_every_way(model, batch) == before
        block.attn.w_query.weight.data += 0.3
        after = encode_every_way(model, batch)
        assert all(new != old for new, old in zip(after, before))

    def test_forward_runs_no_block_nothing_reads(self, small_setup,
                                                 monkeypatch):
        """2 DualSTB x 2 spatial blocks: six attention maps, and five
        residual blocks, not six — counted, not timed."""
        engine = dual_model(small_setup, 2, 2).inference_encoder()
        attention = count_calls(monkeypatch, infer._Attention, "coefficients")
        residual = count_calls(monkeypatch, infer._Residual, "__call__")
        engine.encode(walks([12] * 4, seed=32))     # one bucket, one forward
        assert (attention["coefficients"], residual["__call__"]) == (6, 5)


class TestAttentionLayout:
    """``coefficients`` hands back unnormalised weights (keys outermost)
    and the reciprocals of their row sums: weights · reciprocal is the
    plain softmax, 0 at masked keys."""

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("head_dim", [1, 16])
    def test_keys_outermost_contiguous_rows_sum_to_one(self, head_dim,
                                                       padded):
        """Either layout: row-major ``(B·L, d)`` and feature-major
        ``(d, B·L)`` activations give the same attention."""
        heads, batch, seq_len = 4, 3, 11
        dim = heads * head_dim
        rng = np.random.default_rng(head_dim)
        w_query, w_key, w_value, w_out = rng.standard_normal((4, dim, dim))
        x = rng.standard_normal((batch * seq_len, dim)).astype(np.float32)
        lengths = np.array([seq_len, 4, 1]) if padded else np.full(3, seq_len)
        valid = np.arange(seq_len) < lengths[:, None]
        rows = padded_rows(valid)
        # axis 0 is the key: the plain softmax(Q K^T / sqrt(hd)) transposed
        x64 = x.astype(np.float64).reshape(batch, seq_len, dim)

        def split(weight):
            return (x64 @ weight).reshape(
                batch, seq_len, heads, head_dim).transpose(0, 2, 1, 3)

        logits = split(w_query) @ split(w_key).swapaxes(-1, -2)
        logits /= np.sqrt(head_dim)
        logits += np.where(valid, 0.0, -1e9)[:, None, None, :]
        expected = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        for feature_major in (False, True):
            attn = infer._Attention(w_query, w_key, w_value, w_out, heads,
                                    np.float32, feature_major)
            with np.errstate(over="ignore"):  # as the forward calls it
                weights, reciprocal, value = attn.coefficients(
                    np.ascontiguousarray(x.T) if feature_major else x,
                    batch, rows)
            assert weights.shape == (seq_len, batch, heads, seq_len)
            assert weights.flags.c_contiguous
            assert reciprocal.shape == (batch, heads, seq_len)
            assert value.shape == (batch, heads, seq_len, head_dim)
            assert (weights[~valid.T] == 0.0).all()
            # the weights times their reciprocal sums are the attention
            attention = weights * reciprocal
            np.testing.assert_allclose(attention.sum(axis=0), 1.0, rtol=1e-5)
            np.testing.assert_allclose(attention.transpose(1, 2, 3, 0),
                                       expected, rtol=2e-3, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("feature_major", [False, True])
    def test_head_dim_1_logits_are_the_outer_product(self, feature_major,
                                                     padded, dtype):
        """The ``head_dim == 1`` logits are one GEMM per trajectory against
        a block-diagonal Q; every entry is k·q plus exact zeros, so the
        bits are the outer product's, in either layout; masking writes
        exact zeros over the padded keys' rows and nothing else."""
        heads, batch, seq_len = 4, 5, 13
        rng = np.random.default_rng(23)
        weights = rng.standard_normal((4, heads, heads)) * 3
        attn = infer._Attention(*weights, heads, dtype, feature_major)
        x = rng.standard_normal((batch * seq_len, heads)).astype(dtype)
        query, key, _ = attn._qkv(
            np.ascontiguousarray(x.T) if feature_major else x, batch)
        assert query.shape == key.shape == (batch, heads, seq_len, 1)
        lengths = np.array([13, 1, 7, 13, 2]) if padded else np.full(5, 13)
        valid = np.arange(seq_len) < lengths[:, None]
        expected = key.transpose(2, 0, 1, 3) * query[..., 0]   # K Qᵀ
        logits = attn._logits(query, key)
        assert logits.flags.c_contiguous
        assert logits.tobytes() == expected.astype(dtype).tobytes()
        attn._mask(logits, padded_rows(valid), 0.0)
        expected[~valid.T] = 0.0
        assert logits.tobytes() == expected.astype(dtype).tobytes()

    @pytest.mark.parametrize("last", [False, True])
    def test_feature_major_block_is_the_row_major_one_transposed(
            self, small_setup, last):
        """The spatial stream runs feature-major ``(d_s, B·L)``: the same
        block, the same numbers, transposed (float64)."""
        layer = make_model(small_setup).encoder.layers[0]
        spatial = layer.dual_msm.spatial_encoder.layers[0]
        rows, columns = (infer._TransformerLayer(
            spatial, np.float64, coefficients_only=last, feature_major=major)
            for major in (False, True))
        batch, seq_len = 6, 9
        x = np.random.default_rng(2).standard_normal((batch * seq_len, 4))
        valid = np.arange(seq_len) < np.array([9, 1, 4, 9, 8, 2])[:, None]
        padded = padded_rows(valid)
        by_rows = rows(x, batch, padded)
        by_columns = columns(np.ascontiguousarray(x.T), batch, padded)
        if last:
            assert by_rows[0] is by_columns[0] is None
        else:
            assert by_columns[0].shape == (4, batch * seq_len)
            np.testing.assert_allclose(by_columns[0].T, by_rows[0],
                                       rtol=1e-12, atol=1e-12)
        for got, want in zip(by_columns[1:], by_rows[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def padded_rows(valid):
    """The forward's masked (key, trajectory) rows of a keys-outermost
    map, or None."""
    return None if valid.all() else np.flatnonzero(~valid.T)


# ----------------------------------------------------------------------
# Laws of the folds: the FFN's first bias, norm1's β and the last block's
# norm2 affine leave the float32 forward for weights formed at export.
# A fresh model's biases are 0 and its γ 1, which would make every fold
# trivial; these laws give each one live values.
# ----------------------------------------------------------------------
def live_affines(model, seed=0):
    """Every LayerNorm γ / β and FFN bias of ``model``'s encoder drawn
    away from its initial 1 / 0 (assigned, so the engine recompiles)."""
    rng = np.random.default_rng(seed)
    for name, param in model.encoder.named_parameters():
        if name.endswith("gamma") and "norm" in name:
            param.data = 1.0 + 0.3 * rng.standard_normal(param.data.shape)
        elif name.endswith(("beta", "bias")):
            param.data = 0.3 * rng.standard_normal(param.data.shape)
    return model


def linear(weight, bias):
    layer = nn.Linear(*weight.shape)
    layer.weight.data, layer.bias.data = weight, bias
    return layer


class TestFolds:
    def test_relu_fold_at_the_threshold_and_at_signed_zero(self):
        """``relu(h + b1) = max(h, −b1) + b1``, also where ``h = −b1``
        exactly and where ``h + b1`` is +0 or −0. ``W1 = I`` makes ``h``
        the input itself (float64)."""
        width = 6
        rng = np.random.default_rng(3)
        b1 = rng.standard_normal(width)
        b1[:2] = 0.0, -0.0
        w2 = rng.standard_normal((width, width))
        b2 = rng.standard_normal(width)
        ffn = infer._FeedForward(linear(np.eye(width), b1), linear(w2, b2),
                                 np.zeros(width), np.float64)
        h = np.stack([-b1, np.zeros(width), -np.zeros(width),
                      rng.standard_normal(width)])
        h[3, :2] = 0.0, -0.0
        expected = np.maximum(h + b1, 0.0) @ w2 + b2
        np.testing.assert_allclose(ffn(h), expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(ffn.threshold, -b1)

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("feature_major", [False, True])
    def test_folded_residual_is_the_tensor_block(self, small_setup,
                                                 feature_major, pooled):
        """norm1's β in the FFN's biases: the block still computes
        ``norm2(t + ffn(t))``, ``t = norm1(x + attended)``, in either
        layout; under ``pooled`` norm2's input, which the pooling
        normalises (float64)."""
        model = live_affines(make_model(small_setup, "msm"), seed=5)
        layer = model.encoder.encoder.layers[0]
        residual = infer._Residual(layer, np.float64, feature_major, pooled)
        rng = np.random.default_rng(6)
        x, attended = rng.standard_normal((2, 30, 16))
        with nn.no_grad():
            t = layer.norm1(nn.Tensor(x + attended))
            y = t + layer.ffn(t)
            expected = (y if pooled else layer.norm2(y)).data

        def layout(array):
            return np.ascontiguousarray(array.T) if feature_major else array

        out = layout(residual(layout(x), layout(attended)))
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bucket", ["padded", "unpadded", "length_1"])
    @pytest.mark.parametrize("variant", ["dual", "msm", "concat"])
    def test_pooled_then_affine_is_affine_then_pooled(
            self, small_setup, variant, bucket, monkeypatch):
        """The masked mean weighs each trajectory's rows by weights summing
        to 1, so the last norm2 folds into it: one weighted product over
        its unnormalised rows, ``Σ (wᵢ/σᵢ) yᵢ − Σ wᵢ μᵢ/σᵢ``, then γ and
        β — the unfused LayerNorm-then-mean (float64)."""
        model = live_affines(make_model(small_setup, variant), seed=7)
        engine = model.inference_encoder("float64")
        lengths = {"padded": [9, 4, 1, 7], "unpadded": [9] * 4,
                   "length_1": [1, 1]}[bucket]
        structural, spatial, _, lengths = engine.features.encode_batch(
            walks(lengths, seed=8))
        inputs = []
        moments = infer._LayerNormP.moments

        def record(norm, y):
            inputs.append((norm, y.copy()))
            return moments(norm, y)

        monkeypatch.setattr(infer._LayerNormP, "moments", record)
        pooled = engine._forward(structural, spatial, lengths)
        (norm, y), = inputs                        # the last block's norm2
        centred = y - y.mean(axis=1, keepdims=True)
        normed = centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True)
                                   + norm.eps)
        batch, seq_len = structural.shape[:2]
        hidden = (normed * norm.gamma + norm.beta).reshape(batch, seq_len, -1)
        valid = np.arange(seq_len) < lengths[:, None]
        expected = ((hidden * valid[:, :, None]).sum(axis=1)
                    / lengths[:, None])
        np.testing.assert_allclose(pooled, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shift", [False, True])
    def test_feature_major_layer_norm_is_one_centring_gemm(self, small_setup,
                                                           shift):
        """``[C; √d·γ·C] x`` with ``C = I − 1/d``, divided by
        ``sqrt(Σ (x − mean)² + d·eps)``: the unfused LayerNorm over the
        feature axis, times γ (+ β) (float64)."""
        layer = live_affines(make_model(small_setup), seed=3).encoder \
            .layers[0].dual_msm.spatial_encoder.layers[0]
        norm = infer._LayerNormP(layer.norm2, np.float64, feature_major=True,
                                 shift=shift)
        x = np.random.default_rng(4).standard_normal((4, 90)) * 3 + 1
        kept = x.copy()
        centred = x - x.mean(axis=0)
        expected = centred / np.sqrt((centred ** 2).mean(axis=0)
                                     + layer.norm2.eps)
        expected *= layer.norm2.gamma.data[:, None]
        if shift:
            expected += layer.norm2.beta.data[:, None]
        np.testing.assert_allclose(norm(x), expected, rtol=1e-12, atol=1e-12)
        assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("feature_major", [False, True])
    def test_masked_keys_weigh_what_the_bias_gave_them(self, feature_major):
        """Padded keys zeroed after exp2 — or, on the shifted path, set to
        −inf before the max — are the ``-1e9`` logit bias's softmax
        (float64)."""
        heads, batch, seq_len, dim = 4, 3, 11, 8
        rng = np.random.default_rng(12)
        weights = rng.standard_normal((4, dim, dim))
        attn = infer._Attention(*weights, heads, np.float64, feature_major)
        x = rng.standard_normal((batch * seq_len, dim))
        if feature_major:
            x = np.ascontiguousarray(x.T)
        valid = np.arange(seq_len) < np.array([11, 4, 1])[:, None]
        query, key, _ = attn._qkv(x, batch)
        logits = attn._logits(query, key)
        logits += np.where(valid, 0.0, -1e9).T[:, :, None, None]
        expected = np.exp2(logits - logits.max(axis=0))
        expected /= expected.sum(axis=0)
        for scale in (1.0, 1e3):              # unshifted, then past exp2
            attn.wqkv *= scale
            with np.errstate(over="ignore"):
                got, reciprocal, _ = attn.coefficients(
                    x, batch, padded_rows(valid))
            attn.wqkv /= scale
            if scale == 1.0:
                np.testing.assert_allclose(got * reciprocal, expected,
                                           rtol=1e-12, atol=1e-300)
            assert (got[~valid.T] == 0.0).all() and np.isfinite(got).all()

    def test_transposed_qkv_product_is_the_row_major_one(self):
        """Row-major Q, K, V are views of ``W_qkvᵀ xᵀ``, ``(3d, B·L)``, so
        Qᵀ has rows: the product ``x W_qkv`` split into heads (float64)."""
        heads, batch, seq_len, dim = 4, 3, 7, 16
        rng = np.random.default_rng(13)
        attn = infer._Attention(*rng.standard_normal((4, dim, dim)), heads,
                                np.float64)
        x = rng.standard_normal((batch * seq_len, dim))
        product = (x @ attn.wqkv).reshape(batch, seq_len, 3, heads, -1)
        qkv = attn._qkv(x, batch)
        assert qkv.shape == (3, batch, heads, seq_len, dim // heads)
        assert qkv[0].swapaxes(-1, -2).strides[-1] == x.itemsize
        np.testing.assert_allclose(qkv, product.transpose(2, 0, 3, 1, 4),
                                   rtol=1e-12, atol=1e-12)

    def test_first_layer_qkv_is_gathered_with_the_rows(self, small_setup):
        """The dual engine's structural rows arrive as ``[x, x W_qkv]``,
        gathered from a cell table and position encoding widened at
        export: ``x`` bit for bit, ``x W_qkv`` to 1e-12 (float64)."""
        model = live_affines(make_model(small_setup), seed=14)
        engine = model.inference_encoder("float64")
        batch = walks([9, 4, 1, 7], seed=15)
        wide = engine.features.encode_batch(batch)[0]
        plain = model.features.encode_batch(batch)[0]
        dim = plain.shape[-1]
        assert wide.shape[-1] == 4 * dim
        assert wide[..., :dim].tobytes() == plain.tobytes()
        msm = model.encoder.layers[0].dual_msm
        w_qkv = infer._fused_qkv(msm.w_query.weight.data,
                                 msm.w_key.weight.data,
                                 msm.w_value.weight.data, msm.num_heads)
        np.testing.assert_allclose(wide[..., dim:], plain @ w_qkv,
                                   rtol=1e-12, atol=1e-12)
        assert (engine.layers[0].gathered, engine.layers[1].gathered) \
            == (True, False)

    def test_folded_biases_are_formed_in_float64_before_the_cast(
            self, small_setup):
        """The served engine's threshold and output bias are the float64
        folds cast once, not folds of float32 casts."""
        model = live_affines(make_model(small_setup), seed=9)
        layer = model.encoder.layers[0]
        ffn = model.inference_encoder().layers[0].residual.ffn
        w1, b1, w2, b2 = (p.data for p in (layer.ffn.fc1.weight,
                                           layer.ffn.fc1.bias,
                                           layer.ffn.fc2.weight,
                                           layer.ffn.fc2.bias))
        beta = layer.norm1.beta.data
        shift = b1 + beta @ w1
        assert ffn.threshold.dtype == ffn.bias.dtype == np.float32
        assert ffn.threshold.tobytes() == (-shift).astype(np.float32).tobytes()
        assert ffn.bias.tobytes() == (
            shift @ w2 + b2 + beta).astype(np.float32).tobytes()
        f32 = [a.astype(np.float32) for a in (w1, b1, w2, b2, beta)]
        shift32 = f32[1] + f32[4] @ f32[0]
        assert (shift32 @ f32[2] + f32[3] + f32[4]).tobytes() \
            != ffn.bias.tobytes()


# ----------------------------------------------------------------------
# Golden bits: the served float32 embeddings of one fixed model, pinned
# as digests. Re-recorded (`make golden-bits`, both kernel families) when
# softmax went to base 2 and the spatial stream went feature-major, and
# again when the FFN biases and LayerNorm affines were folded into the
# export. Each rounds differently: exp2 of logits scaled by log2 e, the
# spatial LayerNorm means as row sums, the spatial matmuls taken the
# other way round, the masked mean as a product with valid / length
# weights. Every row stays within the parity tolerance of the float64
# graph. The kernel probe runs exp2, the function the forward calls.
# Re-recorded once more when the golden model's LayerNorm affines and
# FFN biases were drawn away from 1 / 0 (`live_affines`): with a fresh
# model's zeros, a fold that dropped a bias kept every digest. And when
# the first DualSTB's structural Q/K/V came from the widened cell table,
# the spatial LayerNorms became one centring GEMM and the last norm2 was
# folded into the pooling (σ² as E[y²] − μ²).
# ----------------------------------------------------------------------
def _float32_kernels() -> str:
    """Names the float32 matmul / exp2 kernels this process runs (OpenBLAS
    picks them by CPU): equal digests round the same way."""
    rng = np.random.default_rng(0)
    left = rng.standard_normal((96, 64)).astype(np.float32)
    right = rng.standard_normal((64, 192)).astype(np.float32)
    product = np.exp2(left @ right * np.float32(0.1))
    return hashlib.sha256(product.tobytes()).hexdigest()[:16]


#: kernels → sha256 of ``model.encode(golden_batch(), batch_size)`` for
#: batch_size 1, 7 and 256
_GOLDEN = {
    "6840d710fffd6180": {   # OpenBLAS SkylakeX
        1: "a4fa2102b36a53c4a935a26294f92baf99ed0f2a919ce3931c8c79d79a2882b5",
        7: "da9c6da3ab270a6999c018e1c269437bd4fa7c9cc0d15754f87885158208e8f2",
        256: "8478b2f08a2d18e40276ac447bb81b688a978facb6eb346fcdfe2ab2d3c97a28",
    },
    "0a5c9814f7e030a0": {   # OpenBLAS Haswell / Zen
        1: "da5f3e408e270c9987be01a26ef796df1a35d8be079f1745ed3f0230c4982cc4",
        7: "5258485e8cf5f45a1c2dc301f68925dc2adce84fd452709f52509f4c0fef689f",
        256: "18fde2fa62921c7b164ad7a33b6bbb84972fd39254f2ab635cc947337377db4d",
    },
}


def golden_model():
    """A fixed model whose LayerNorm affines and FFN biases are live, so
    the digests pin the rounding of every fold, not only the matmuls."""
    config = TrajCLConfig(structural_dim=16, max_len=40, projection_dim=8,
                          queue_size=64, dropout=0.0)
    grid = Grid(0.0, 0.0, 6000.0, 6000.0, cell_size=250)
    cells = np.random.default_rng(1).standard_normal(
        (grid.n_cells, config.structural_dim))
    features = FeatureEnrichment(grid, cells, max_len=config.max_len)
    model = TrajCL(features, config, rng=np.random.default_rng(7))
    return live_affines(model, seed=11)


def golden_batch():
    """64 walks: every length 1 … max_len + 5 once (length-1, ragged,
    full, over-long), then repeats so equal lengths share a bucket."""
    max_len = 40
    lengths = list(range(1, max_len + 6)) + [max_len] * 8 + [1] * 3 + [17] * 8
    order = np.random.default_rng(5).permutation(len(lengths))
    return walks([lengths[i] for i in order], seed=21)


class TestGoldenBits:
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_engine_output_is_pinned(self, batch_size):
        golden = _GOLDEN.get(_float32_kernels())
        if golden is None:
            pytest.skip("digests were recorded under other float32 kernels")
        out = golden_model().encode(golden_batch(), batch_size=batch_size)
        assert out.dtype == np.float32 and out.shape == (64, 16)
        assert hashlib.sha256(out.tobytes()).hexdigest() == golden[batch_size]
