"""``repro.core`` — the TrajCL model: the paper's primary contribution.

Pipeline (Fig. 2): augmentation → pointwise feature enrichment →
dual-feature backbone encoder (DualSTB) → projection heads → InfoNCE with a
momentum branch and a negative queue. Plus the §V-F fine-tuning path that
turns a pre-trained TrajCL into a fast estimator of any heuristic measure.
"""

from .augmentation import (
    available_augmentations,
    get_augmentation,
    make_view,
    point_mask,
    point_shift,
    raw,
    simplify,
    simplify_vw,
    truncate,
)
from .checkpoint import (
    load_pipeline,
    pipeline_from_state,
    pipeline_state,
    save_pipeline,
)
from .config import TrajCLConfig
from .dual_attention import DualMSM
from .encoder import ConcatSTB, DualSTB, DualSTBLayer, VanillaSTB, build_encoder
from .features import FeatureEnrichment, sinusoidal_position_encoding, spatial_features
from .finetune import FinetuneHistory, FrozenBackboneApproximator, HeuristicApproximator
from .infer import InferenceEncoder
from .model import NegativeQueue, TrajCL
from .trainer import TrainHistory, TrajCLTrainer

__all__ = [
    "TrajCLConfig",
    "point_shift",
    "point_mask",
    "truncate",
    "simplify",
    "simplify_vw",
    "raw",
    "save_pipeline",
    "load_pipeline",
    "pipeline_state",
    "pipeline_from_state",
    "make_view",
    "get_augmentation",
    "available_augmentations",
    "FeatureEnrichment",
    "spatial_features",
    "sinusoidal_position_encoding",
    "DualMSM",
    "DualSTB",
    "DualSTBLayer",
    "VanillaSTB",
    "ConcatSTB",
    "build_encoder",
    "TrajCL",
    "NegativeQueue",
    "InferenceEncoder",
    "TrajCLTrainer",
    "TrainHistory",
    "HeuristicApproximator",
    "FrozenBackboneApproximator",
    "FinetuneHistory",
]
