"""``repro.nn`` — a from-scratch neural-network substrate over numpy.

The paper implements TrajCL in PyTorch; PyTorch is unavailable in this
environment, so this package provides the required subset: reverse-mode
autodiff (:mod:`~repro.nn.tensor`), transformer attention
(:mod:`~repro.nn.attention`), recurrent cells for the baselines
(:mod:`~repro.nn.rnn`), convolution for TrjSR (:mod:`~repro.nn.conv`),
optimizers (:mod:`~repro.nn.optim`) and losses (:mod:`~repro.nn.losses`).

The names load on first use (PEP 562, see :mod:`repro._lazy`): a model
that only encodes loads neither the recurrent cells, convolution,
optimizers nor weight files.
"""

from .._lazy import lazy_exports

#: submodule -> the names ``repro.nn`` re-exports from it
_EXPORTS = {
    "attention": ("MultiHeadSelfAttention", "TransformerEncoder",
                  "TransformerEncoderLayer"),
    "conv": ("AdaptiveAvgPool2d", "Conv2d", "MaxPool2d"),
    "layers": ("Dropout", "Embedding", "FeedForward", "LayerNorm", "Linear",
               "ProjectionHead", "ReLU"),
    "losses": ("info_nce_loss", "mse_loss", "triplet_margin_loss",
               "weighted_rank_loss"),
    "module": ("Module", "ModuleList", "Parameter", "Sequential",
               "parameter_version"),
    "optim": ("SGD", "Adam", "Optimizer", "StepLR", "clip_grad_norm",
              "train_epoch"),
    "rnn": ("GRU", "LSTM", "GRUCell", "LSTMCell"),
    "serialization": ("load_into", "load_state", "save_state"),
    "tensor": ("DEFAULT_DTYPE", "Tensor", "concatenate", "is_grad_enabled",
               "maximum", "no_grad", "ones", "stack", "tensor", "where",
               "zeros"),
}
#: submodules ``repro.nn`` re-exports whole
_SUBMODULES = ("functional",)
#: bound at import: a function named like its submodule would be rebound
#: to the module when any layer first imports it
_EAGER = ("tensor",)

__all__ = [*_SUBMODULES, *(name for names in _EXPORTS.values()
                           for name in names)]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, _SUBMODULES, _EAGER)
