"""``repro.baselines`` — the paper's learned comparison methods.

Self-supervised (standalone similarity measures, §V-B):

* :class:`T2Vec` — GRU seq2seq denoising over cell tokens (ICDE 2018)
* :class:`E2DTC` — t2vec backbone + DEC cluster self-training (ICDE 2021)
* :class:`TrjSR` — CNN super-resolution over trajectory rasters (IJCNN 2021)
* :class:`CSTRM` — vanilla-MSM contrastive with hinge loss (ComCom 2022)

Supervised approximators of heuristic measures (§V-F):

* :class:`NeuTraj` — LSTM + spatial memory, weighted loss (ICDE 2019)
* :class:`Traj2SimVec` — GRU + sub-trajectory auxiliary loss (IJCAI 2020)
* :class:`T3S` — cell attention + coordinate LSTM (ICDE 2021)
* :class:`TrajGAT` — distance-biased (graph) attention (KDD 2022)
"""

from ..core.learned import LearnedSimilarityMeasure, sample_training_pairs
from .base import CoordinateScaler
from .cstrm import CSTRM, MemoryBudgetExceeded
from .e2dtc import E2DTC
from .neutraj import NeuTraj
from .supervised import SupervisedApproximator, SupervisedFitHistory
from .t2vec import T2Vec
from .t3s import T3S
from .traj2simvec import Traj2SimVec
from .trajgat import TrajGAT
from .trjsr import TrjSR, rasterize

__all__ = [
    "LearnedSimilarityMeasure",
    "CoordinateScaler",
    "sample_training_pairs",
    "T2Vec",
    "E2DTC",
    "TrjSR",
    "rasterize",
    "CSTRM",
    "MemoryBudgetExceeded",
    "SupervisedApproximator",
    "SupervisedFitHistory",
    "NeuTraj",
    "Traj2SimVec",
    "T3S",
    "TrajGAT",
]
