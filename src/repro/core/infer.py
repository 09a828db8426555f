"""Autograd-free inference engine for the TrajCL backbone encoders.

Training needs the :mod:`repro.nn` tape; serving does not. Every kNN and
pairwise query in the ``repro.api`` stack funnels into
:meth:`TrajCL.encode <repro.core.model.TrajCL.encode>`, and under
``nn.no_grad`` the reference path still pays for a Python :class:`~repro.nn.Tensor`
wrapper per operation, computes in float64 only, and pads every batch to the
model's ``max_len`` regardless of the actual trajectory lengths.

:class:`InferenceEncoder` removes five costs: those three, and two a plain
numpy forward brings with it — memory traffic and per-row reduction
overhead that the arithmetic does not need:

* :meth:`InferenceEncoder.from_model` exports a trained encoder's weights
  into plain contiguous numpy arrays (Q/K/V projections fused into one
  matrix per attention block, ``log2(e)/sqrt(head_dim)`` folded into its
  query columns) — the forward pass is raw numpy with no ``Tensor`` objects or
  tape on the hot path;
* compute runs in float32 — weights, the cell table and the position
  encodings are cast once at export, the padded feature batch is built
  in float32, and the embeddings come out float32: ~1e-5 relative to the
  reference path at roughly twice the matmul throughput and half the
  memory. ``dtype=float64`` is the parity suite's handle (~1e-10), not
  something served;
* :meth:`InferenceEncoder.encode` sorts the batch by length and pads each
  bucket to *its own* maximum length (length-bucketed batching), so a
  bucket of short trajectories never pays ``max_len``-sized attention;
  the padded features exist one bucket at a time.
  Padded key positions receive a ``-1e9`` logit bias exactly as in the
  reference attention, so embeddings are independent of the padding width
  and the bucketing is invisible to callers;
* activations stay 2-D from the one reshape at entry to the one at the
  masked pooling, and every residual, LayerNorm and FFN stage writes in
  place into an array the forward allocated itself (never its input).
  The structural stream is row-major ``(B·L, d)``; the spatial stream is
  feature-major ``(d_s, B·L)`` — it is 4 features wide, so row-major it
  would reduce and broadcast over 4-float rows, while feature-major its
  projections, LayerNorms and FFN run over rows of ``B·L`` contiguous
  floats. Q, K and V are strided head views of the fused product, not
  copies. Attention is computed *transposed*: the logits are ``K Qᵀ``
  written into one C-contiguous ``(L_key, B, H, L_query)`` array, because
  softmax reduces over keys: its sum then adds whole contiguous rows of
  ``B·H·L`` elements instead of reducing inside ``L``-long ones, which is
  what numpy is slow at. The wide stream's logits are one batched matmul
  (Qᵀ copied to rows first: BLAS reads the strided view at half speed);
  the ``head_dim == 1`` spatial logits are an outer product, written as
  one GEMM per trajectory, ``K_b (L, H) @ blockdiag(Q_b) (H, H·L)`` —
  each entry one product plus exact zeros, so the outer product's bits,
  without numpy's ``B·H·L`` inner loops of ``L`` floats;
* softmax makes no pass the result does not need. ``log2 e`` rides in
  the query columns beside ``1/sqrt(head_dim)``, so ``exp2`` (cheaper than
  ``exp``) runs on the unshifted logits, and the row sums it needs anyway
  are the overflow guard: while every sum lies in ``(tiny/eps, eps/tiny)``
  of the compute dtype, no term overflowed and no mass was lost; otherwise
  that one attention is recomputed with the per-query max shift. The
  normalisers go where they are cheapest: in a plain block ``1/Σ``
  scales the ``(B,H,L,hd)`` contexts inside the head-merge copy, not the
  ``L×L`` weights; in a DualSTB Eq. 15's two maps are normalised in
  place (``E_t *= r_t``, ``E_s *= γ·r_s``: one ``(B,H,L)`` factor
  against each contiguous key row) and summed, and the context product
  writes straight into the ``(B,L,H,hd)`` merge layout — no copy, and no
  ratio of the two maps' sums to overflow. No max or shift pass is left
  over the ``L×L`` arrays;
* biases and LayerNorm affines live in the exported weights, formed in
  float64 and cast once: the FFN's first bias and ``norm1``'s β become
  its ReLU threshold and output bias (:class:`_FeedForward`), and the
  last block's ``norm2`` affine applies to the pooled rows
  (:class:`_Residual`) — per bucket, no bias pass over any FFN hidden,
  no ``+ β`` after ``norm1`` and no affine before the pooling. Each fold
  is exact in real arithmetic; in float32 only the rounding moves;
* the bucket size is derived, not passed: as many trajectories as keep the
  forward's widest temporary — the FFN hidden or one softmax's logits —
  at about 1 MiB, so a bucket's working set stays in L2 (32 trajectories
  at d = 64, L = 32; 1 at the paper's d = 256, L = 200). With the folds
  in, an interleaved sweep of the budget still ranks 1 MiB first, ahead
  of 512 KiB and 256 KiB. A value the code can work out from its inputs
  is not an option.

All three encoder variants of the paper's Fig. 7 ablation are supported
(``dual``/``msm``/``concat``). Dropout is inactive at inference, so the
exported forward omits it entirely. So is the one block whose output
nothing reads: only the structural stream of the last DualSTB is pooled,
so the last spatial block under it is exported as its attention alone (its
coefficients enter Eq. 15) — fixed at :meth:`~InferenceEncoder.from_model`,
where the float64 Tensor graph, the oracle, still runs the whole model.

A compiled engine is current while :func:`repro.nn.parameter_version` has
not moved and the model holds the same encoder and feature tables
(:meth:`InferenceEncoder.is_current`): a cache hit reads no weight.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import parameter_version
from ..trajectory.trajectory import TrajectoryLike

__all__ = ["InferenceEncoder", "resolve_dtype"]

#: additive attention bias at padded key positions (matches
#: :func:`repro.nn.functional.attention_mask_bias`)
_MASK_BIAS = -1e9

#: target size of a forward's widest temporary: a bucket of this many bytes
#: (and the handful of same-sized arrays alive beside it) stays in L2
_BUCKET_BYTES = 1 << 20

#: compute dtypes the engine supports
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: encoder variants :meth:`InferenceEncoder.from_model` knows how to export
_SUPPORTED_VARIANTS = ("dual", "msm", "concat")


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a dtype spec (``"float32"``, ``np.float64``, ...);
    ``None`` is float32, the one dtype the stack serves."""
    resolved = np.dtype(np.float32 if dtype is None else dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"inference dtype must be float32 or float64, got {resolved}"
        )
    return resolved


# ----------------------------------------------------------------------
# Raw-numpy building blocks (eval-mode forward only, no tape)
#
# The structural stream's activations are row-major ``(B·L, d)``; the
# spatial stream's are feature-major ``(d_s, B·L)`` (``feature_major``),
# so that its few-feature rows are long. A block never writes to its
# input, only to arrays it allocated itself.
# ----------------------------------------------------------------------
class _Attention:
    """Fused Q/K/V self-attention weights of one MSM block."""

    __slots__ = ("wqkv", "wo", "num_heads", "sum_range", "feature_major")

    def __init__(self, w_query, w_key, w_value, w_out, num_heads: int, dtype,
                 feature_major: bool = False):
        # 1/sqrt(head_dim) and log2(e) ride in the query columns: the
        # logits come out in base 2, for exp2, with no pass over them
        scale = np.log2(np.e) / np.sqrt(w_query.shape[0] // num_heads)
        wqkv = np.concatenate([w_query * scale, w_key, w_value], axis=1)
        # a feature-major stream is multiplied from the left: W^T x
        self.wqkv = np.ascontiguousarray(wqkv.T if feature_major else wqkv,
                                         dtype=dtype)
        self.wo = np.ascontiguousarray(w_out.T if feature_major else w_out,
                                       dtype=dtype)
        self.num_heads = num_heads
        self.feature_major = feature_major
        #: row sums of the unshifted exp2 inside this open range prove no
        #: term overflowed (each is below the sum) and no mass was lost (a
        #: subnormal term is below eps of the sum); the upper end leaves
        #: 1/eps of headroom for the value products
        info = np.finfo(dtype)
        self.sum_range = (float(info.tiny / info.eps),
                          float(info.eps / info.tiny))

    def _qkv(self, x: np.ndarray, batch: int) -> np.ndarray:
        """Q, K, V as ``(3, B, H, L, hd)`` strided views of the fused
        product (nothing is copied)."""
        heads = self.num_heads
        if self.feature_major:
            dim = x.shape[0]
            qkv = (self.wqkv @ x).reshape(3, heads, dim // heads, batch, -1)
            return qkv.transpose(0, 3, 1, 4, 2)
        qkv = (x @ self.wqkv).reshape(batch, -1, 3, heads, x.shape[1] // heads)
        return qkv.transpose(2, 0, 3, 1, 4)

    def _logits(self, query, key, bias: Optional[np.ndarray]) -> np.ndarray:
        """``K Qᵀ`` (+ the padding bias) laid out keys-outermost:
        ``(L_key, B, H, L_query)``, C-contiguous."""
        batch, heads, seq_len, head_dim = query.shape
        logits = np.empty((seq_len, batch, heads, seq_len), dtype=query.dtype)
        if head_dim == 1:
            # head_dim 1 (the 4-wide spatial stream): per trajectory, one
            # GEMM K_b (L, H) @ blockdiag(Q_b) (H, H·L) writes row j of the
            # (L, H·L) slab logits[:, b] — each entry one product k·q plus
            # exact zeros, so the bits of the outer product
            blocks = np.zeros((batch, heads, heads, seq_len), query.dtype)
            blocks.reshape(batch, heads * heads, seq_len)[:, ::heads + 1] = \
                query[..., 0]
            np.matmul(key[..., 0].swapaxes(1, 2),
                      blocks.reshape(batch, heads, heads * seq_len),
                      out=logits.reshape(seq_len, batch, -1).swapaxes(0, 1))
        else:
            # Qᵀ copied to (B, H, hd, L) rows: BLAS reads the strided Qᵀ
            # view at half the speed the copy costs
            np.matmul(key, np.ascontiguousarray(query.swapaxes(-1, -2)),
                      out=logits.transpose(1, 2, 0, 3))
        if bias is not None:
            logits += bias
        return logits

    def coefficients(
        self, x: np.ndarray, batch: int, bias: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(weights (L_key,B,H,L_query), reciprocal sums (B,H,L_query),
        value (B,H,L,hd))`` of Eq. 12: the attention is ``weights ·
        reciprocal``, a product nobody forms (:meth:`project`).

        Q, K, V are strided head views of the fused product. The logits
        are ``K Qᵀ`` in base 2 laid out keys-outermost, so the softmax's
        sum runs down axis 0, across contiguous rows of ``B·H·L``
        elements.

        The weights are ``exp2`` of the unshifted logits. The row sums are
        the overflow guard: when one lies outside :attr:`sum_range`, this
        attention alone is recomputed with the per-query max shift (exp2
        then sees ≤ 0, and every sum is in ``[1, L]``). The caller mutes
        numpy's overflow warning (:meth:`InferenceEncoder._forward`).
        """
        query, key, value = self._qkv(x, batch)                # (B,H,L,hd)
        weights = self._logits(query, key, bias)
        np.exp2(weights, out=weights)
        sums = weights.sum(axis=0)
        low, high = self.sum_range
        if not low < sums.min() <= sums.max() < high:
            weights = self._logits(query, key, bias)
            weights -= weights.max(axis=0)
            np.exp2(weights, out=weights)
            sums = weights.sum(axis=0)
        return weights, np.reciprocal(sums, out=sums), value

    def project(self, weights: np.ndarray, reciprocal: Optional[np.ndarray],
                value: np.ndarray) -> np.ndarray:
        """``A V`` with the heads concatenated through ``W_o`` (Eq. 14),
        ``A = weights · reciprocal``: the reciprocal sums scale the
        ``(B,H,L,hd)`` contexts as the head-merge copies them, not the
        ``L×L`` weights. With ``reciprocal`` None the weights are ``A``
        already, and the context product writes straight into the
        row-major merge layout ``(B,L,H,hd)``: no copy."""
        batch, heads, seq_len, head_dim = value.shape
        weights = weights.transpose(1, 2, 3, 0)                # (B,H,Lq,Lk)
        if self.feature_major:                                 # (H,hd,B,L)
            context = weights @ value
            merged = np.empty((heads, head_dim, batch, seq_len), value.dtype)
            np.multiply(context.transpose(1, 3, 0, 2),
                        reciprocal.transpose(1, 0, 2)[:, None], out=merged)
            return self.wo @ merged.reshape(heads * head_dim, -1)
        merged = np.empty((batch, seq_len, heads, head_dim), value.dtype)
        if reciprocal is None:
            np.matmul(weights, value, out=merged.transpose(0, 2, 1, 3))
        else:
            np.multiply(weights @ value, reciprocal[..., None],
                        out=merged.transpose(0, 2, 1, 3))
        return merged.reshape(batch * seq_len, -1) @ self.wo


class _FeedForward:
    """The MLP of Eq. 11 with its first bias and ``norm1``'s β folded in.

    The block hands it ``z``, ``norm1``'s output stopped after ``× γ``: the
    true input is ``z + β``. With ``c = b1 + β W1``, ``relu((z + β) W1 +
    b1) W2 + b2 = max(z W1, −c) W2 + (c W2 + b2)``: the ReLU's threshold
    absorbs the first bias, so no pass adds it to the ``(B·L, ffn)``
    hidden, and the output bias ``c W2 + b2 + β`` also carries the β the
    residual ``+ z`` leaves out (:class:`_Residual`). The folded biases are
    formed in float64 and cast once.
    """

    __slots__ = ("w1", "threshold", "w2", "bias", "feature_major")

    def __init__(self, fc1, fc2, beta, dtype, feature_major: bool = False):
        w1, b1, w2, b2, beta = (
            np.asarray(p, dtype=np.float64) for p in
            (fc1.weight.data, fc1.bias.data, fc2.weight.data, fc2.bias.data,
             beta))
        shift = b1 + beta @ w1                                   # c
        weights = w1, -shift, w2, shift @ w2 + b2 + beta
        if feature_major:  # W^T z, the biases as columns
            weights = [w.T if w.ndim == 2 else w[:, None] for w in weights]
        self.w1, self.threshold, self.w2, self.bias = (
            np.ascontiguousarray(w, dtype=dtype) for w in weights)
        self.feature_major = feature_major

    def __call__(self, z: np.ndarray) -> np.ndarray:
        hidden = self.w1 @ z if self.feature_major else z @ self.w1
        np.maximum(hidden, self.threshold, out=hidden)
        out = self.w2 @ hidden if self.feature_major else hidden @ self.w2
        out += self.bias
        return out


class _LayerNormP:
    """LayerNorm over the feature axis, in place. ``scale`` / ``shift``
    say whether its ``× γ`` / ``+ β`` run here or are folded elsewhere."""

    __slots__ = ("gamma", "beta", "eps", "mean", "feature_major", "scale",
                 "shift")

    def __init__(self, norm, dtype, feature_major: bool = False,
                 scale: bool = True, shift: bool = True):
        dim = len(norm.gamma.data)
        shape = (dim, 1) if feature_major else (dim,)
        self.gamma = np.ascontiguousarray(norm.gamma.data, dtype).reshape(shape)
        self.beta = np.ascontiguousarray(norm.beta.data, dtype).reshape(shape)
        self.eps = float(norm.eps)
        #: ``x @ mean`` is the row mean of a row-major block as one BLAS
        #: call
        self.mean = np.full((dim, 1), 1.0 / dim, dtype=dtype)
        self.feature_major = feature_major
        self.scale = scale
        self.shift = shift

    def _mean(self, x: np.ndarray) -> np.ndarray:
        if self.feature_major:
            # a sum of whole rows, not BLAS's (1, d) @ (d, N): its rounding
            # would depend on N, so on a trajectory's bucket mates
            total = np.add.reduce(x, axis=0, keepdims=True)
            total *= self.mean[0, 0]
            return total
        return x @ self.mean

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """LayerNorm over the feature axis, overwriting ``x``."""
        x -= self._mean(x)
        var = self._mean(np.multiply(x, x))
        var += self.eps
        np.sqrt(var, out=var)
        x *= np.reciprocal(var, out=var)
        if self.scale:
            x *= self.gamma
        if self.shift:
            x += self.beta
        return x


class _Residual:
    """The two Add&LN stages every block ends with (Eq. 10–11).

    ``norm1`` stops after ``× γ``: its β rides in the FFN's biases
    (:class:`_FeedForward`), so the residual adds ``z = x − β`` and the
    output bias puts β back. Under ``pooled`` (the last block, which only
    the masked mean reads) ``norm2`` stops after normalising: the mean is
    one ``(B,1,L) @ (B,L,d)`` product with ``valid / length`` weights,
    which sum to 1 per trajectory, so its γ and β apply to the pooled
    ``(B, d)`` rows instead (:meth:`InferenceEncoder._forward`).
    """

    __slots__ = ("norm1", "norm2", "ffn")

    def __init__(self, layer, dtype, feature_major: bool = False,
                 pooled: bool = False):
        self.norm1 = _LayerNormP(layer.norm1, dtype, feature_major,
                                 shift=False)
        self.norm2 = _LayerNormP(layer.norm2, dtype, feature_major,
                                 scale=not pooled, shift=not pooled)
        self.ffn = _FeedForward(layer.ffn.fc1, layer.ffn.fc2,
                                layer.norm1.beta.data, dtype, feature_major)

    def __call__(self, x: np.ndarray, attended: np.ndarray) -> np.ndarray:
        attended += x
        z = self.norm1(attended)                               # Eq. 10 − β
        out = self.ffn(z)
        out += z
        return self.norm2(out)                                 # Eq. 11


class _TransformerLayer:
    """Post-norm block: MSM → Add&LN → MLP → Add&LN (Eq. 10–11)."""

    __slots__ = ("attn", "residual")

    def __init__(self, layer, dtype, coefficients_only: bool = False,
                 feature_major: bool = False, pooled: bool = False):
        attn = layer.attn
        self.attn = _Attention(
            attn.w_query.weight.data, attn.w_key.weight.data,
            attn.w_value.weight.data, attn.w_out.weight.data,
            attn.num_heads, dtype, feature_major,
        )
        #: None where nothing reads the block's output: only its attention
        #: coefficients are computed
        self.residual = (None if coefficients_only
                         else _Residual(layer, dtype, feature_major, pooled))

    def __call__(
        self, x: np.ndarray, batch: int, bias: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """``(output or None, weights, reciprocal sums)``."""
        weights, reciprocal, value = self.attn.coefficients(x, batch, bias)
        if self.residual is None:
            return None, weights, reciprocal
        attended = self.attn.project(weights, reciprocal, value)
        del value  # and the QKV product it views
        return self.residual(x, attended), weights, reciprocal


class _DualLayer:
    """One DualSTB block: DualMSM fusion + the residual stages."""

    __slots__ = ("attn", "gamma", "spatial_layers", "residual")

    def __init__(self, layer, dtype, last: bool):
        msm = layer.dual_msm
        self.attn = _Attention(
            msm.w_query.weight.data, msm.w_key.weight.data,
            msm.w_value.weight.data, msm.w_out.weight.data,
            msm.num_heads, dtype,
        )
        self.gamma = float(msm.gamma.data)
        # The spatial stream feeds the next DualSTB; after the ``last`` one
        # only the structural stream is pooled, so its final spatial block
        # contributes A_s to Eq. 15 and nothing else.
        depth = len(msm.spatial_encoder.layers)
        self.spatial_layers = [
            _TransformerLayer(spatial, dtype,
                              coefficients_only=last and i == depth - 1,
                              feature_major=True)
            for i, spatial in enumerate(msm.spatial_encoder.layers)
        ]
        self.residual = _Residual(layer, dtype, pooled=last)

    def __call__(
        self,
        structural: np.ndarray,
        spatial: np.ndarray,
        batch: int,
        bias: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        fused, reciprocal, value = self.attn.coefficients(structural, batch,
                                                          bias)
        for spatial_layer in self.spatial_layers:
            weights = None  # the previous block's, dead before this one runs
            spatial, weights, spatial_reciprocal = spatial_layer(spatial, batch,
                                                                 bias)
        # Eq. 15: C_ts = (A_t + γ A_s) V_t, heads merged through W_o. With
        # A = E·r, each map is normalised in place — its (B,H,L) factor
        # multiplies every key row of B·H·L contiguous weights — and the
        # two summed; the context product then writes the merge layout.
        fused *= reciprocal
        spatial_reciprocal *= self.gamma
        weights *= spatial_reciprocal
        fused += weights
        del weights
        c_ts = self.attn.project(fused, None, value)
        del fused, value  # the QKV product goes with its value view
        return self.residual(structural, c_ts), spatial


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class InferenceEncoder:
    """Compiled, autograd-free forward pass of a trained TrajCL encoder.

    Build one with :meth:`from_model`; it holds the model's
    :class:`~repro.core.features.FeatureEnrichment` and encoder weights
    cast to its dtype (the grid is shared). The engine is immutable:
    it does **not** track later weight updates — recompile after training
    (:meth:`TrajCL.encode <repro.core.model.TrajCL.encode>` does this
    automatically: :meth:`is_current` says when).
    """

    def __init__(self, features, variant: str, layers: List, dtype: np.dtype,
                 output_dim: int, source: Tuple):
        self.features = features
        self.variant = variant
        self.layers = layers
        self.dtype = dtype
        self.output_dim = output_dim
        #: (parameter version, encoder, feature pipeline, cell table) at
        #: export, what :meth:`is_current` compares
        self.source = source

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @staticmethod
    def supports(model) -> bool:
        """Whether :meth:`from_model` can export this model's encoder."""
        return getattr(model, "encoder_variant", None) in _SUPPORTED_VARIANTS

    def is_current(self, model) -> bool:
        """Whether this engine still computes ``model``'s forward.

        It does while no :class:`~repro.nn.Parameter` has been written
        since the export (:func:`~repro.nn.parameter_version`: training,
        ``load_state_dict``, ``param.data += …``) and the model holds the
        same encoder, feature pipeline and cell table. That is four
        compares, whatever the model's size: this runs on every fast
        ``encode`` call.
        """
        version, encoder, features, cells = self.source
        return (version == parameter_version()
                and model.encoder is encoder
                and model.features is features
                and features.cell_embeddings is cells)

    @classmethod
    def from_model(cls, model, dtype=None) -> "InferenceEncoder":
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
        # read before the weights: a write during the export invalidates
        source = (parameter_version(), model.encoder, model.features,
                  model.features.cell_embeddings)
        encoder = model.encoder
        if variant == "dual":
            depth = len(encoder.layers)
            layers = [_DualLayer(layer, dtype, last=(i == depth - 1))
                      for i, layer in enumerate(encoder.layers)]
        else:  # msm / concat wrap a vanilla TransformerEncoder
            depth = len(encoder.encoder.layers)
            layers = [_TransformerLayer(layer, dtype, pooled=(i == depth - 1))
                      for i, layer in enumerate(encoder.encoder.layers)]
        return cls(
            features=model.features.astype(dtype),
            variant=variant,
            layers=layers,
            dtype=dtype,
            output_dim=int(encoder.output_dim),
            source=source,
        )

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _forward(
        self,
        structural: np.ndarray,
        spatial: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        batch, seq_len, _ = structural.shape
        valid = np.arange(seq_len) < lengths[:, None]               # (B, L)
        bias = None
        if not valid.all():
            # keys are axis 0 of the logits
            bias = np.where(valid, 0.0, _MASK_BIAS).astype(self.dtype)
            bias = bias.T[:, :, None, None]
        structural = structural.reshape(batch * seq_len, -1)
        spatial = spatial.reshape(batch * seq_len, -1)
        # exp2 of unshifted logits may overflow by design: the guard after
        # it detects that and recomputes. One errstate for the bucket, not
        # one per map (~4 µs each, a tenth of a one-trajectory forward's
        # overhead).
        with np.errstate(over="ignore"):
            if self.variant == "dual":
                spatial = np.ascontiguousarray(spatial.T)   # feature-major
                for layer in self.layers:
                    structural, spatial = layer(structural, spatial, batch,
                                                bias)
                hidden = structural
            else:
                if self.variant == "concat":
                    hidden = np.concatenate([structural, spatial], axis=1)
                else:  # msm: structural stream only
                    hidden = structural
                for layer in self.layers:
                    hidden, _, _ = layer(hidden, batch, bias)
        # Masked average pooling over valid positions (§IV-C), then the
        # last block's norm2 affine (its weights sum to 1: _Residual).
        weights = valid / np.maximum(lengths, 1)[:, None]
        pooled = np.matmul(weights.astype(self.dtype)[:, None, :],
                           hidden.reshape(batch, seq_len, -1))
        pooled = pooled.reshape(batch, -1)
        if self.layers:
            norm = self.layers[-1].residual.norm2
            pooled *= norm.gamma
            pooled += norm.beta
        return pooled

    def _bucket_rows(self, pad_len: int) -> int:
        """Trajectories per bucket: the widest temporary of a forward —
        the FFN hidden ``(B·L, ffn)`` or one softmax's logits
        ``(B·L, heads·L)`` — stays about :data:`_BUCKET_BYTES`."""
        width = max(
            (max(layer.residual.ffn.w1.shape[1], layer.attn.num_heads * pad_len)
             for layer in self.layers), default=1)
        return max(1, _BUCKET_BYTES // (width * self.dtype.itemsize * pad_len))

    def encode(
        self,
        trajectories: Sequence[TrajectoryLike],
        batch_size: int = 256,
    ) -> np.ndarray:
        """Embed trajectories as ``(N, output_dim)`` in the engine dtype.

        Trajectories are sorted by (truncated) length and featurised per
        point in groups of ``batch_size``, each gathered from the batch's
        blocks in one pass (:meth:`~repro.trajectory.Ragged.take`); a
        group runs through the forward in buckets, each laid out padded
        only to its own maximum length — so attention (O(L²)) is paid at
        the bucket's true length, not the model's ``max_len``, and no
        group-sized padded block is built — and sized so its temporaries
        stay cache-resident (:meth:`_bucket_rows`, from the group's
        longest trajectory).
        Embeddings are returned in the input order and are independent of
        the bucketing (padded positions are excluded from attention and
        pooling exactly as in the reference path).
        """
        batch = self.features.prepare(trajectories)
        max_len = self.features.max_len
        order = np.argsort(np.minimum(batch.lengths(), max_len),
                           kind="stable")
        out = np.empty((len(batch), self.output_dim), dtype=self.dtype)
        group_size = max(1, int(batch_size))
        for start in range(0, len(order), group_size):
            group = order[start:start + group_size]
            cells, spatial, group_lengths = self.features.point_features(
                batch.take(group, max_len))             # ascending lengths
            offsets = np.concatenate(([0], np.cumsum(group_lengths)))
            step = self._bucket_rows(int(group_lengths[-1]))
            for low in range(0, len(group), step):
                high = min(low + step, len(group))
                rows = slice(offsets[low], offsets[high])
                bucket_lengths = group_lengths[low:high]
                structural, padded, _ = self.features.pad_features(
                    cells[rows], spatial[rows], bucket_lengths,
                    pad_len=int(bucket_lengths[-1]))
                out[group[low:high]] = self._forward(structural, padded,
                                                     bucket_lengths)
        return out

    def __repr__(self) -> str:
        return (
            f"InferenceEncoder(variant={self.variant!r}, "
            f"dtype={self.dtype.name!r}, output_dim={self.output_dim}, "
            f"layers={len(self.layers)})"
        )
