"""``repro.nn`` — a from-scratch neural-network substrate over numpy.

The paper implements TrajCL in PyTorch; PyTorch is unavailable in this
environment, so this package provides the required subset: reverse-mode
autodiff (:mod:`~repro.nn.tensor`), transformer attention
(:mod:`~repro.nn.attention`), recurrent cells for the baselines
(:mod:`~repro.nn.rnn`), convolution for TrjSR (:mod:`~repro.nn.conv`),
optimizers (:mod:`~repro.nn.optim`) and losses (:mod:`~repro.nn.losses`).
"""

from . import functional
from .attention import MultiHeadSelfAttention, TransformerEncoder, TransformerEncoderLayer
from .conv import AdaptiveAvgPool2d, Conv2d, MaxPool2d
from .layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    ProjectionHead,
    ReLU,
)
from .losses import info_nce_loss, mse_loss, triplet_margin_loss, weighted_rank_loss
from .module import Module, ModuleList, Parameter, Sequential, parameter_version
from .optim import SGD, Adam, Optimizer, StepLR, clip_grad_norm
from .rnn import GRU, LSTM, GRUCell, LSTMCell
from .serialization import load_into, load_state, save_state
from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    concatenate,
    is_grad_enabled,
    maximum,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
)

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
    "info_nce_loss",
    "mse_loss",
    "triplet_margin_loss",
    "weighted_rank_loss",
    "save_state",
    "load_state",
    "load_into",
]
