"""Autograd-free inference engine for the TrajCL backbone encoders.

Training needs the :mod:`repro.nn` tape; serving does not. Every kNN and
pairwise query in the ``repro.api`` stack funnels into
:meth:`TrajCL.encode <repro.core.model.TrajCL.encode>`, and under
``nn.no_grad`` the reference path still pays for a Python :class:`~repro.nn.Tensor`
wrapper per operation, computes in float64 only, and pads every batch to the
model's ``max_len`` regardless of the actual trajectory lengths.

:class:`InferenceEncoder` removes all three costs:

* :meth:`InferenceEncoder.from_model` exports a trained encoder's weights
  into plain contiguous numpy arrays (Q/K/V projections fused into one
  matrix per attention block) — the forward pass is raw numpy with no
  ``Tensor`` objects or tape on the hot path;
* compute runs in a caller-chosen ``dtype`` — ``float64`` tracks the
  reference path to ~1e-10 relative tolerance, ``float32`` to ~1e-5 at
  roughly twice the matmul throughput and half the memory;
* :meth:`InferenceEncoder.encode` sorts the batch by length and pads each
  chunk to *its own* maximum length (length-bucketed batching), so a chunk
  of short trajectories never pays ``max_len``-sized attention. Padded key
  positions receive a ``-1e9`` logit bias exactly as in the reference
  attention, so embeddings are independent of the padding width and the
  bucketing is invisible to callers.

All three encoder variants of the paper's Fig. 7 ablation are supported
(``dual``/``msm``/``concat``). Dropout is inactive at inference, so the
exported forward omits it entirely.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..trajectory.trajectory import TrajectoryLike

__all__ = ["InferenceEncoder", "resolve_dtype"]

#: additive attention bias at padded key positions (matches
#: :func:`repro.nn.functional.attention_mask_bias`)
_MASK_BIAS = -1e9

#: compute dtypes the engine supports
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: encoder variants :meth:`InferenceEncoder.from_model` knows how to export
_SUPPORTED_VARIANTS = ("dual", "msm", "concat")

#: fixed random projection vectors for the weight-change checksum, one per
#: parameter size (deterministic: seeded by the size)
_PROJECTIONS: Dict[int, np.ndarray] = {}


def _projection(size: int) -> np.ndarray:
    vector = _PROJECTIONS.get(size)
    if vector is None:
        vector = np.random.default_rng(size).standard_normal(size)
        _PROJECTIONS[size] = vector
    return vector


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a dtype spec (``"float32"``, ``np.float64``, ...)."""
    resolved = np.dtype(np.float64 if dtype is None else dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"inference dtype must be float32 or float64, got {resolved}"
        )
    return resolved


# ----------------------------------------------------------------------
# Raw-numpy building blocks (eval-mode forward only, no tape)
# ----------------------------------------------------------------------
def _softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, in place on ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) * (1.0 / np.sqrt(var + eps)) * gamma + beta


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    batch, seq_len, dim = x.shape
    head_dim = dim // num_heads
    return np.ascontiguousarray(
        x.reshape(batch, seq_len, num_heads, head_dim).transpose(0, 2, 1, 3)
    )


def _merge_heads(x: np.ndarray) -> np.ndarray:
    batch, num_heads, seq_len, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq_len, num_heads * head_dim)


class _Attention:
    """Fused Q/K/V self-attention weights of one MSM block."""

    __slots__ = ("wqkv", "wo", "num_heads", "scale")

    def __init__(self, w_query, w_key, w_value, w_out, num_heads: int, dtype):
        self.wqkv = np.ascontiguousarray(
            np.concatenate([w_query, w_key, w_value], axis=1), dtype=dtype
        )
        self.wo = np.ascontiguousarray(w_out, dtype=dtype)
        self.num_heads = num_heads
        self.scale = 1.0 / np.sqrt((w_query.shape[0] // num_heads))

    def coefficients(
        self, x: np.ndarray, bias: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(attention (B,H,L,L), value (B,H,L,hd))`` of Eq. 12."""
        qkv = x @ self.wqkv
        dim = x.shape[-1]
        query = _split_heads(qkv[..., :dim], self.num_heads)
        key = _split_heads(qkv[..., dim:2 * dim], self.num_heads)
        value = _split_heads(qkv[..., 2 * dim:], self.num_heads)
        logits = query @ key.swapaxes(-1, -2)
        logits *= self.scale
        if bias is not None:
            logits += bias
        return _softmax(logits), value

    def project(self, context: np.ndarray) -> np.ndarray:
        """Head concatenation through ``W_o`` (Eq. 14 analogue)."""
        return _merge_heads(context) @ self.wo


class _FeedForward:
    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(self, fc1, fc2, dtype):
        self.w1 = np.ascontiguousarray(fc1.weight.data, dtype=dtype)
        self.b1 = np.ascontiguousarray(fc1.bias.data, dtype=dtype)
        self.w2 = np.ascontiguousarray(fc2.weight.data, dtype=dtype)
        self.b2 = np.ascontiguousarray(fc2.bias.data, dtype=dtype)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        hidden = x @ self.w1
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ self.w2
        out += self.b2
        return out


class _LayerNormP:
    __slots__ = ("gamma", "beta", "eps")

    def __init__(self, norm, dtype):
        self.gamma = np.ascontiguousarray(norm.gamma.data, dtype=dtype)
        self.beta = np.ascontiguousarray(norm.beta.data, dtype=dtype)
        self.eps = float(norm.eps)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _layer_norm(x, self.gamma, self.beta, self.eps)


class _TransformerLayer:
    """Post-norm block: MSM → Add&LN → MLP → Add&LN (Eq. 10–11)."""

    __slots__ = ("attn", "norm1", "norm2", "ffn")

    def __init__(self, layer, dtype):
        attn = layer.attn
        self.attn = _Attention(
            attn.w_query.weight.data, attn.w_key.weight.data,
            attn.w_value.weight.data, attn.w_out.weight.data,
            attn.num_heads, dtype,
        )
        self.norm1 = _LayerNormP(layer.norm1, dtype)
        self.norm2 = _LayerNormP(layer.norm2, dtype)
        self.ffn = _FeedForward(layer.ffn.fc1, layer.ffn.fc2, dtype)

    def __call__(
        self, x: np.ndarray, bias: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        attention, value = self.attn.coefficients(x, bias)
        x = self.norm1(x + self.attn.project(attention @ value))
        x = self.norm2(x + self.ffn(x))
        return x, attention


class _DualLayer:
    """One DualSTB block: DualMSM fusion + the residual stages."""

    __slots__ = ("attn", "gamma", "spatial_layers", "norm1", "norm2", "ffn")

    def __init__(self, layer, dtype):
        msm = layer.dual_msm
        self.attn = _Attention(
            msm.w_query.weight.data, msm.w_key.weight.data,
            msm.w_value.weight.data, msm.w_out.weight.data,
            msm.num_heads, dtype,
        )
        self.gamma = float(msm.gamma.data)
        self.spatial_layers = [
            _TransformerLayer(spatial, dtype)
            for spatial in msm.spatial_encoder.layers
        ]
        self.norm1 = _LayerNormP(layer.norm1, dtype)
        self.norm2 = _LayerNormP(layer.norm2, dtype)
        self.ffn = _FeedForward(layer.ffn.fc1, layer.ffn.fc2, dtype)

    def __call__(
        self,
        structural: np.ndarray,
        spatial: np.ndarray,
        bias: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        attn_structural, value = self.attn.coefficients(structural, bias)
        attn_spatial = None
        for spatial_layer in self.spatial_layers:
            spatial, attn_spatial = spatial_layer(spatial, bias)
        # Eq. 15: C_ts = (A_t + γ A_s) V_t, heads merged through W_o.
        fused = attn_structural + self.gamma * attn_spatial
        c_ts = self.attn.project(fused @ value)
        x = self.norm1(structural + c_ts)                      # Eq. 10
        return self.norm2(x + self.ffn(x)), spatial            # Eq. 11


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class InferenceEncoder:
    """Compiled, autograd-free forward pass of a trained TrajCL encoder.

    Build one with :meth:`from_model`; it shares the model's
    :class:`~repro.core.features.FeatureEnrichment` (grid + cell table) and
    holds a dtype-cast copy of the encoder weights. The engine is immutable:
    it does **not** track later weight updates — recompile after training
    (:meth:`TrajCL.encode <repro.core.model.TrajCL.encode>` does this
    automatically via :meth:`fingerprint`).
    """

    def __init__(self, features, variant: str, layers: List, dtype: np.dtype,
                 output_dim: int, fingerprint: str):
        self.features = features
        self.variant = variant
        self.layers = layers
        self.dtype = dtype
        self.output_dim = output_dim
        self.model_fingerprint = fingerprint

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @staticmethod
    def supports(model) -> bool:
        """Whether :meth:`from_model` can export this model's encoder."""
        return getattr(model, "encoder_variant", None) in _SUPPORTED_VARIANTS

    @staticmethod
    def fingerprint(model) -> str:
        """Cheap identity of everything the compiled forward depends on.

        Checksums the online encoder's weights plus the identity of the
        feature pipeline, so a cached engine is invalidated by training,
        ``load_state_dict``, or a swapped feature table. This runs on
        every fast ``encode`` call, so it uses two numpy reductions per
        parameter (sum + a fixed random projection) instead of hashing
        the raw weight bytes — ~10× cheaper, at the cost of not being
        cryptographic: an in-place edit that preserves both reductions
        bit-exactly would go undetected (no numerical update does).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(getattr(model, "encoder_variant", "?")).encode())
        sums = []
        for name, param in model.encoder.named_parameters():
            digest.update(name.encode())
            flat = param.data.ravel()
            sums.append(flat.sum())
            sums.append(flat @ _projection(flat.size))
        digest.update(np.asarray(sums, dtype=np.float64).tobytes())
        features = model.features
        cells = features.cell_embeddings
        digest.update(
            f"features:{id(features)}:{id(cells)}:{cells.shape}:"
            f"{features.max_len}".encode()
        )
        return digest.hexdigest()

    @classmethod
    def from_model(cls, model, dtype=np.float64) -> "InferenceEncoder":
        """Export ``model``'s trained encoder into a compiled engine.

        ``model`` is a :class:`~repro.core.model.TrajCL` (or anything with
        ``encoder`` / ``features`` / ``encoder_variant`` matching it).
        """
        dtype = resolve_dtype(dtype)
        variant = getattr(model, "encoder_variant", None)
        if variant not in _SUPPORTED_VARIANTS:
            raise ValueError(
                f"unsupported encoder variant {variant!r}; "
                f"expected one of {_SUPPORTED_VARIANTS}"
            )
        encoder = model.encoder
        if variant == "dual":
            layers = [_DualLayer(layer, dtype) for layer in encoder.layers]
        else:  # msm / concat wrap a vanilla TransformerEncoder
            layers = [
                _TransformerLayer(layer, dtype)
                for layer in encoder.encoder.layers
            ]
        return cls(
            features=model.features,
            variant=variant,
            layers=layers,
            dtype=dtype,
            output_dim=int(encoder.output_dim),
            fingerprint=cls.fingerprint(model),
        )

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _forward(
        self,
        structural: np.ndarray,
        spatial: np.ndarray,
        mask: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        bias = None
        if mask.any():
            bias = np.where(mask, _MASK_BIAS, 0.0).astype(self.dtype)
            bias = bias[:, None, None, :]
        if self.variant == "dual":
            t_hidden, s_hidden = structural, spatial
            for layer in self.layers:
                t_hidden, s_hidden = layer(t_hidden, s_hidden, bias)
            hidden = t_hidden
        else:
            if self.variant == "concat":
                hidden = np.concatenate([structural, spatial], axis=2)
            else:  # msm: structural stream only
                hidden = structural
            for layer in self.layers:
                hidden, _ = layer(hidden, bias)
        # Masked average pooling over valid positions (§IV-C).
        seq_len = hidden.shape[1]
        valid = (np.arange(seq_len)[None, :] < lengths[:, None]).astype(self.dtype)
        denom = np.maximum(lengths, 1).astype(self.dtype)[:, None]
        return (hidden * valid[:, :, None]).sum(axis=1) / denom

    def encode(
        self,
        trajectories: Sequence[TrajectoryLike],
        batch_size: int = 256,
        bucket_size: int = 64,
    ) -> np.ndarray:
        """Embed trajectories as ``(N, output_dim)`` in the engine dtype.

        Trajectories are sorted by (truncated) length and processed in
        buckets of ``min(batch_size, bucket_size)``, each padded only to
        its own maximum length — so attention (O(L²)) is paid at the
        bucket's true length, not the model's ``max_len``. Embeddings are
        returned in the input order and are independent of the bucketing
        (padded positions are excluded from attention and pooling exactly
        as in the reference path).
        """
        points = self.features.prepare(trajectories)
        lengths = np.array([len(p) for p in points], dtype=np.int64)
        order = np.argsort(lengths, kind="stable")
        out = np.empty((len(points), self.output_dim), dtype=self.dtype)
        step = max(1, min(int(batch_size), int(bucket_size)))
        for start in range(0, len(order), step):
            chunk_ids = order[start:start + step]
            chunk = [points[i] for i in chunk_ids]
            pad_len = int(lengths[chunk_ids].max())
            structural, spatial, mask, chunk_lengths = \
                self.features.stack_features(chunk, pad_len=pad_len)
            out[chunk_ids] = self._forward(
                structural.astype(self.dtype, copy=False),
                spatial.astype(self.dtype, copy=False),
                mask,
                chunk_lengths,
            )
        return out

    def __repr__(self) -> str:
        return (
            f"InferenceEncoder(variant={self.variant!r}, "
            f"dtype={self.dtype.name!r}, output_dim={self.output_dim}, "
            f"layers={len(self.layers)})"
        )
