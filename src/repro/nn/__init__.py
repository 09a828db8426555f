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

# A function named like its submodule is bound here, before any layer
# imports that submodule and rebinds the name to it.
from .tensor import tensor

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
               "maximum", "no_grad", "ones", "stack", "where", "zeros"),
}

__all__ = [
    "DEFAULT_DTYPE",
    "Tensor",
    "concatenate",
    "is_grad_enabled",
    "maximum",
    "no_grad",
    "ones",
    "stack",
    "tensor",
    "where",
    "zeros",
    "functional",
    "Module",
    "ModuleList",
    "Parameter",
    "parameter_version",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "FeedForward",
    "ProjectionHead",
    "MultiHeadSelfAttention",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "Conv2d",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "train_epoch",
    "info_nce_loss",
    "mse_loss",
    "triplet_margin_loss",
    "weighted_rank_loss",
    "save_state",
    "load_state",
    "load_into",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, ("functional",))
