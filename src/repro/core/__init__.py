"""``repro.core`` — the TrajCL model: the paper's primary contribution.

Pipeline (Fig. 2): augmentation → pointwise feature enrichment →
dual-feature backbone encoder (DualSTB) → projection heads → InfoNCE with a
momentum branch and a negative queue. Plus the §V-F fine-tuning path that
turns a pre-trained TrajCL into a fast estimator of any heuristic measure.

The names load on first use (PEP 562, see :mod:`repro._lazy`): a process
that serves a TrajCL backend loads the model and its inference engine,
never the augmentations, the trainer, fine-tuning or checkpoint files.
"""

from .._lazy import lazy_exports

#: submodule -> the names ``repro.core`` re-exports from it
_EXPORTS = {
    "augmentation": ("available_augmentations", "get_augmentation",
                     "make_view", "point_mask", "point_shift", "raw",
                     "simplify", "truncate"),
    "checkpoint": ("load_pipeline", "pipeline_from_state", "pipeline_state",
                   "save_pipeline"),
    "config": ("TrajCLConfig",),
    "dual_attention": ("DualMSM",),
    "encoder": ("ConcatSTB", "DualSTB", "DualSTBLayer", "VanillaSTB",
                "build_encoder"),
    "features": ("FeatureEnrichment", "sinusoidal_position_encoding",
                 "spatial_features"),
    "finetune": ("FinetuneHistory", "FrozenBackboneApproximator",
                 "HeuristicApproximator"),
    "infer": ("InferenceEncoder",),
    "model": ("NegativeQueue", "TrajCL", "build_trajcl"),
    "trainer": ("TrainHistory", "TrajCLTrainer"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
