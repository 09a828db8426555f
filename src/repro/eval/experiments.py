"""Shared experiment pipeline used by every benchmark and example.

Builds the full TrajCL stack for a synthetic city (data → grid →
:func:`repro.core.build_trajcl`: node2vec cell embeddings → contrastive
pre-training) from :meth:`TrajCLConfig.reduced` unless the caller passes a
configuration, and provides the evaluation entry points the paper's tables
use: mean rank over a Q/D instance (§V-B) and the HR@k / R5@20
approximation metrics (§V-F). Heuristic measures and learned models are
dispatched through one helper so benchmark code treats them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import TrajCL, TrajCLConfig, build_trajcl
from ..core.trainer import TrainHistory
from ..datasets import build_query_database, generate_city, get_preset
from ..datasets.queries import QueryDatabase
from ..measures.base import TrajectorySimilarityMeasure
from ..trajectory import Grid
from .hitratio import hit_ratio, recall_n_at_m
from .ranking import mean_rank


@dataclass
class CityPipeline:
    """Everything needed to run experiments against one synthetic city
    (grid, cells and config are ``model.features`` / ``model.config``)."""

    city: str
    trajectories: List[np.ndarray]
    model: TrajCL
    history: Optional[TrainHistory]


def build_city_pipeline(
    city: str = "porto",
    n_trajectories: int = 240,
    config: Optional[TrajCLConfig] = None,
    grid_cells_per_side: int = 32,
    train_epochs: Optional[int] = None,
    encoder_variant: str = "dual",
    train: bool = True,
    seed: int = 0,
) -> CityPipeline:
    """Generate data, learn cell embeddings, and pre-train TrajCL.

    ``grid_cells_per_side`` replaces the paper's absolute 100 m cell size
    so every city preset yields a node2vec graph of tractable size at
    reduced scale; the paper-scale is recovered by raising it. ``config``
    defaults to :meth:`TrajCLConfig.reduced`.
    """
    preset = get_preset(city)
    trajectories = generate_city(preset, n_trajectories, seed=seed)
    grid = Grid.covering(trajectories,
                         cell_size=preset.extent / grid_cells_per_side)
    model, history = build_trajcl(
        trajectories, grid, config, encoder_variant=encoder_variant,
        epochs=train_epochs, train=train, seed=seed,
    )
    return CityPipeline(city=city, trajectories=trajectories, model=model,
                        history=history)


def distance_matrix_of(
    method,
    queries: Sequence[np.ndarray],
    database: Sequence[np.ndarray],
) -> np.ndarray:
    """Uniform dispatch through the :mod:`repro.api` backend protocol.

    Accepts anything :func:`repro.api.as_backend` can coerce — a registered
    :class:`~repro.api.SimilarityBackend`, a heuristic measure, TrajCL, any
    learned baseline, or a :class:`~repro.api.SimilarityService`.
    """
    from ..api import as_backend

    return as_backend(method).pairwise(queries, database)


def evaluate_mean_rank(method, instance: QueryDatabase) -> float:
    """Mean rank of the ground-truth match (paper Tables III–VI)."""
    matrix = distance_matrix_of(method, instance.queries, instance.database)
    return mean_rank(matrix, instance.ground_truth)


def make_instance(
    trajectories: Sequence[np.ndarray],
    n_queries: int,
    database_size: int,
    seed: int = 0,
) -> QueryDatabase:
    """Convenience wrapper for the §V-B odd/even Q-D construction."""
    return build_query_database(
        trajectories, n_queries=n_queries, database_size=database_size,
        rng=np.random.default_rng(seed),
    )


def approximation_metrics(
    approximator,
    measure: TrajectorySimilarityMeasure,
    queries: Sequence[np.ndarray],
    database: Sequence[np.ndarray],
) -> Dict[str, float]:
    """HR@5, HR@20 and R5@20 of an approximator vs its target measure."""
    predicted = distance_matrix_of(approximator, queries, database)
    truth = measure.pairwise(queries, database)
    return {
        "hr5": hit_ratio(predicted, truth, k=5),
        "hr20": hit_ratio(predicted, truth, k=20),
        "r5at20": recall_n_at_m(predicted, truth, n=5, m=20),
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text table shaped like the paper's result tables."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(line(row) for row in rendered)
    return "\n".join([line(headers), separator, body])


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
