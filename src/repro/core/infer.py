"""Autograd-free inference engine for the TrajCL backbone encoders.

:meth:`TrajCL.encode <repro.core.model.TrajCL.encode>` (every kNN and
pairwise query) runs here; its reference is the float64 Tensor graph.

* :meth:`~InferenceEncoder.from_model` exports the weights once in the
  engine dtype (float32 served, ~1e-5 off the graph; float64 for parity,
  ~1e-10), with what can be formed at export formed in float64: fused
  Q/K/V with ``log2(e)/sqrt(hd)`` in the query columns, the FFN biases
  and ``norm1``'s β (:class:`_FeedForward`), the first DualSTB's
  structural Q/K/V as columns of the cell table and position encoding
  (:meth:`~repro.core.features.FeatureEnrichment.projected`), each
  spatial LayerNorm's centring and γ as one matrix.
* :meth:`~InferenceEncoder.encode` sorts by length and pads each bucket to
  its own longest, sized to :data:`_BUCKET_BYTES`; masked keys weigh 0.
* Activations stay 2-D: structural row-major ``(B·L, d)``, spatial
  feature-major ``(d_s, B·L)``; a block writes only its own arrays.
  Logits are ``K Qᵀ`` keys-outermost, ``(L_key, B, H, L_query)``; exp2
  runs unshifted and its row sums are the overflow guard
  (:attr:`_Attention.sum_range`).
  ``head_dim == 1`` logits are one GEMM per trajectory against a
  block-diagonal Q (the outer product's bits).
* Only what the embedding reads is computed: the last DualSTB's last
  spatial block is its attention alone; the last ``norm2`` folds into
  the masked mean (:meth:`_forward`).

Variants ``dual``/``msm``/``concat`` (Fig. 7) are supported. An engine is
current while :func:`repro.nn.parameter_version` has not moved and the
model holds the same encoder and tables (:meth:`InferenceEncoder.is_current`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import parameter_version
from ..trajectory.trajectory import TrajectoryLike

__all__ = ["InferenceEncoder", "resolve_dtype"]

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
# input, only to arrays it allocated itself. ``padded`` is None or the
# masked (key, trajectory) rows of the keys-outermost maps, flat.
# ----------------------------------------------------------------------
def _fused_qkv(w_query, w_key, w_value, num_heads: int) -> np.ndarray:
    """``[W_q · log2(e)/sqrt(hd), W_k, W_v]`` in float64: the logits come
    out in base 2, for exp2, with no pass over them."""
    scale = np.log2(np.e) / np.sqrt(w_query.shape[0] // num_heads)
    return np.concatenate([np.asarray(w, np.float64) for w in
                           (w_query * scale, w_key, w_value)], axis=1)


class _Attention:
    """Fused Q/K/V self-attention weights of one MSM block."""

    __slots__ = ("wqkv", "wo", "num_heads", "sum_range", "feature_major")

    def __init__(self, w_query, w_key, w_value, w_out, num_heads: int, dtype,
                 feature_major: bool = False):
        wqkv = _fused_qkv(w_query, w_key, w_value, num_heads)
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

    def _qkv(self, x: np.ndarray, batch: int,
             qkv: Optional[np.ndarray] = None) -> np.ndarray:
        """Q, K, V as ``(3, B, H, L, hd)`` strided views of the fused
        product, or of the rows ``qkv`` when the caller has them. The
        product is laid out ``(3d, B·L)`` in either layout, so Qᵀ has rows
        (:meth:`_logits`)."""
        heads = self.num_heads
        if qkv is None:
            qkv = self.wqkv @ x if self.feature_major else self.wqkv.T @ x.T
            qkv = qkv.reshape(3, heads, -1, batch, qkv.shape[1] // batch)
            return qkv.transpose(0, 3, 1, 4, 2)
        qkv = qkv.reshape(batch, -1, 3, heads, qkv.shape[1] // (3 * heads))
        return qkv.transpose(2, 0, 3, 1, 4)

    def _logits(self, query, key) -> np.ndarray:
        """``K Qᵀ`` laid out keys-outermost: ``(L_key, B, H, L_query)``,
        C-contiguous."""
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
            # Qᵀ in rows: BLAS reads a strided Qᵀ at half the speed a copy
            # costs, so gathered rows are copied
            transposed = query.swapaxes(-1, -2)
            if transposed.strides[-1] != transposed.itemsize:
                transposed = np.ascontiguousarray(transposed)
            np.matmul(key, transposed, out=logits.transpose(1, 2, 0, 3))
        return logits

    @staticmethod
    def _mask(weights: np.ndarray, padded: Optional[np.ndarray],
              value: float) -> None:
        """Write ``value`` over the ``padded`` (key, trajectory) rows."""
        if padded is not None:
            seq_len, batch = weights.shape[:2]
            weights.reshape(seq_len * batch, -1)[padded] = value

    def coefficients(
        self, x: np.ndarray, batch: int, padded: Optional[np.ndarray],
        qkv: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(weights (L_key,B,H,L_query), reciprocal sums (B,H,L_query),
        value (B,H,L,hd))`` of Eq. 12: the attention is ``weights ·
        reciprocal``, a product nobody forms (:meth:`project`).

        The weights are ``exp2`` of the unshifted logits, 0 at the
        ``padded`` keys. The row sums are the overflow guard: when one lies
        outside :attr:`sum_range`, this attention alone is recomputed with
        the per-query max shift (exp2 then sees ≤ 0, and every sum is in
        ``[1, L]``). The caller mutes numpy's overflow warning
        (:meth:`InferenceEncoder._forward`).
        """
        query, key, value = self._qkv(x, batch, qkv)           # (B,H,L,hd)
        weights = self._logits(query, key)
        np.exp2(weights, out=weights)
        self._mask(weights, padded, 0.0)
        sums = weights.sum(axis=0)
        low, high = self.sum_range
        if not low < sums.min() <= sums.max() < high:
            weights = self._logits(query, key)
            self._mask(weights, padded, -np.inf)
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
    """LayerNorm over the feature axis; ``shift`` says whether its ``+ β``
    runs here or is folded elsewhere.

    Row-major it works in place. Feature-major one GEMM with ``centre``
    gives ``x − mean`` (rows ``:d``) and ``√d·γ·(x − mean)`` (rows ``d:``),
    which is divided by ``sqrt(Σ (x − mean)² + d·eps)``: six calls on the
    ``(d, B·L)`` block, not eleven.
    """

    __slots__ = ("gamma", "beta", "eps", "mean", "feature_major", "shift",
                 "centre")

    def __init__(self, norm, dtype, feature_major: bool = False,
                 shift: bool = True):
        gamma = np.asarray(norm.gamma.data, np.float64)
        dim = len(gamma)
        shape = (dim, 1) if feature_major else (dim,)
        self.gamma = np.ascontiguousarray(gamma, dtype).reshape(shape)
        self.beta = np.ascontiguousarray(norm.beta.data, dtype).reshape(shape)
        self.eps = float(norm.eps)
        #: ``x @ mean`` is the row mean of a row-major block as one BLAS
        #: call
        self.mean = np.full((dim, 1), 1.0 / dim, dtype=dtype)
        centre = np.eye(dim) - 1.0 / dim
        self.centre = np.ascontiguousarray(np.vstack(
            [centre, np.sqrt(dim) * gamma[:, None] * centre]),
            dtype=dtype) if feature_major else None
        self.feature_major = feature_major
        self.shift = shift

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """LayerNorm over the feature axis (row-major: overwriting ``x``)."""
        if self.feature_major:
            dim = len(x)
            both = self.centre @ x
            centred, x = both[:dim], both[dim:]
            # a sum of whole rows, not BLAS's (1, d) @ (d, N): its rounding
            # would depend on N, so on a trajectory's bucket mates
            var = np.add.reduce(np.multiply(centred, centred, out=centred),
                                axis=0, keepdims=True)
            var += dim * self.eps
            x /= np.sqrt(var, out=var)
        else:
            x -= x @ self.mean
            var = np.multiply(x, x) @ self.mean
            var += self.eps
            np.sqrt(var, out=var)
            x *= np.reciprocal(var, out=var)
            x *= self.gamma
        if self.shift:
            x += self.beta
        return x

    def moments(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row means and ``1/σ`` of a row-major block, ``(N,)`` each, from
        one pass over it and a GEMV: ``σ² = E[x²] − μ² + eps`` (the
        difference clamped at 0), nothing written to ``x``."""
        mean = (x @ self.mean)[:, 0]
        var = np.einsum("ij,ij->i", x, x)
        var *= self.mean[0, 0]
        var -= mean * mean
        np.maximum(var, 0.0, out=var)
        var += self.eps
        return mean, np.reciprocal(np.sqrt(var, out=var), out=var)


class _Residual:
    """The two Add&LN stages every block ends with (Eq. 10–11).

    ``norm1`` stops after ``× γ``: its β rides in the FFN's biases
    (:class:`_FeedForward`), so the residual adds ``z = x − β`` and the
    output bias puts β back. Under ``pooled`` (the last block, which only
    the masked mean reads) ``norm2`` is not applied: the pooling folds it
    in (:meth:`InferenceEncoder._forward`).
    """

    __slots__ = ("norm1", "norm2", "ffn", "pooled")

    def __init__(self, layer, dtype, feature_major: bool = False,
                 pooled: bool = False):
        self.norm1 = _LayerNormP(layer.norm1, dtype, feature_major,
                                 shift=False)
        self.norm2 = _LayerNormP(layer.norm2, dtype, feature_major)
        self.ffn = _FeedForward(layer.ffn.fc1, layer.ffn.fc2,
                                layer.norm1.beta.data, dtype, feature_major)
        self.pooled = pooled

    def __call__(self, x: np.ndarray, attended: np.ndarray) -> np.ndarray:
        attended += x
        z = self.norm1(attended)                               # Eq. 10 − β
        out = self.ffn(z)
        out += z
        return out if self.pooled else self.norm2(out)         # Eq. 11


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
        self, x: np.ndarray, batch: int, padded: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """``(output or None, weights, reciprocal sums)``."""
        weights, reciprocal, value = self.attn.coefficients(x, batch, padded)
        if self.residual is None:
            return None, weights, reciprocal
        attended = self.attn.project(weights, reciprocal, value)
        del value  # and the QKV product it views
        return self.residual(x, attended), weights, reciprocal


class _DualLayer:
    """One DualSTB block: DualMSM fusion + the residual stages. Under
    ``gathered`` (the first) its structural input arrives as rows ``[x,
    x W_qkv]`` (:meth:`FeatureEnrichment.projected
    <repro.core.features.FeatureEnrichment.projected>`)."""

    __slots__ = ("attn", "gamma", "spatial_layers", "residual", "gathered")

    def __init__(self, layer, dtype, last: bool, gathered: bool = False):
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
        self.gathered = gathered

    def __call__(
        self,
        structural: np.ndarray,
        spatial: np.ndarray,
        batch: int,
        padded: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(x, C_ts, spatial)``: the residual is the caller's."""
        qkv = None
        if self.gathered:
            dim = self.attn.wo.shape[1]
            structural, qkv = structural[:, :dim], structural[:, dim:]
        fused, reciprocal, value = self.attn.coefficients(structural, batch,
                                                          padded, qkv)
        for spatial_layer in self.spatial_layers:
            weights = None  # the previous block's, dead before this one runs
            spatial, weights, spatial_reciprocal = spatial_layer(spatial, batch,
                                                                 padded)
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
        if self.gathered:  # a copy: the gathered rows die before the FFN
            structural = np.ascontiguousarray(structural)
        return structural, c_ts, spatial


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
        features = model.features.astype(dtype)
        if variant == "dual":
            depth = len(encoder.layers)
            layers = [_DualLayer(layer, dtype, last=(i == depth - 1),
                                 gathered=(i == 0))
                      for i, layer in enumerate(encoder.layers)]
            if layers:
                msm = encoder.layers[0].dual_msm
                features = model.features.projected(_fused_qkv(
                    msm.w_query.weight.data, msm.w_key.weight.data,
                    msm.w_value.weight.data, msm.num_heads), dtype)
        else:  # msm / concat wrap a vanilla TransformerEncoder
            depth = len(encoder.encoder.layers)
            layers = [_TransformerLayer(layer, dtype, pooled=(i == depth - 1))
                      for i, layer in enumerate(encoder.encoder.layers)]
        return cls(
            features=features,
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
        # the masked (key, trajectory) rows of the keys-outermost maps
        padded = None if valid.all() else np.flatnonzero(~valid.T)
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
                    # the stream is rebound before the residual runs, so
                    # the first layer's gathered block is freed by then
                    structural, attended, spatial = layer(
                        structural, spatial, batch, padded)
                    structural = layer.residual(structural, attended)
                hidden = structural
            else:
                if self.variant == "concat":
                    hidden = np.concatenate([structural, spatial], axis=1)
                else:  # msm: structural stream only
                    hidden = structural
                for layer in self.layers:
                    hidden, _, _ = layer(hidden, batch, padded)
        # Masked average pooling over valid positions (§IV-C): weights
        # valid / length sum to 1 per trajectory, so the last norm2 folds
        # in as Σ (wᵢ/σᵢ) yᵢ − Σ wᵢ μᵢ/σᵢ, then its γ and β
        weights = (valid / np.maximum(lengths, 1)[:, None]).astype(self.dtype)
        if self.layers:
            norm = self.layers[-1].residual.norm2
            mean, scale = norm.moments(hidden)
            weights *= scale.reshape(batch, seq_len)
        weights = weights[:, None, :]
        pooled = np.matmul(weights, hidden.reshape(batch, seq_len, -1))
        pooled = pooled.reshape(batch, -1)
        if self.layers:
            pooled -= np.matmul(weights, mean.reshape(batch, seq_len, 1))[:, 0]
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
                padded = list(self.features.pad_features(
                    cells[rows], spatial[rows], bucket_lengths,
                    pad_len=int(bucket_lengths[-1])))
                # popped into the call, so only _forward holds the padded
                # block: the first layer's gathered columns die in it
                out[group[low:high]] = self._forward(
                    padded.pop(0), padded.pop(0), bucket_lengths)
        return out

    def __repr__(self) -> str:
        return (
            f"InferenceEncoder(variant={self.variant!r}, "
            f"dtype={self.dtype.name!r}, output_dim={self.output_dim}, "
            f"layers={len(self.layers)})"
        )
