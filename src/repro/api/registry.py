"""String-keyed registry of similarity backends.

The registry is the single lookup point the CLI, the evaluation pipeline,
the benchmarks and the examples all resolve methods through::

    from repro.api import available_backends, get_backend

    available_backends()            # ['cstrm', 'e2dtc', 'edr', ...]
    get_backend("hausdorff")        # ready-to-use distance backend
    get_backend("trajcl", checkpoint="model.npz")
    get_backend("t2vec", trajectories=trajs, epochs=2)

Backend factories are registered with :func:`register_backend`; the stock
factories for TrajCL, the eight learned baselines and the four heuristic
measures live in :mod:`repro.api.backends`, which the first lookup
imports — so the registry is populated whichever module of the package
a process came in through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from .protocols import DISTANCE, EMBEDDING, SimilarityBackend

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_spec",
]


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry: how to build one named backend."""

    name: str
    kind: str
    factory: Callable[..., SimilarityBackend]
    description: str = ""
    #: True when the factory can train the method from raw trajectories
    #: (``get_backend(name, trajectories=...)``), as every learned backend can.
    trainable: bool = field(default=False)


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    kind: str,
    description: str = "",
    trainable: bool = False,
):
    """Decorator registering ``factory(**kwargs) -> SimilarityBackend``."""
    if kind not in (EMBEDDING, DISTANCE):
        raise ValueError(f"kind must be {EMBEDDING!r} or {DISTANCE!r}")

    def decorate(factory: Callable[..., SimilarityBackend]):
        _REGISTRY[name] = BackendSpec(
            name=name, kind=kind, factory=factory,
            description=description, trainable=trainable,
        )
        return factory

    return decorate


def _registered() -> Dict[str, BackendSpec]:
    from . import backends  # noqa: F401  (registers the stock factories)

    return _REGISTRY


def backend_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` registered under ``name``."""
    try:
        return _registered()[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def get_backend(name: str, **kwargs) -> SimilarityBackend:
    """Instantiate a registered backend by name.

    Keyword arguments are forwarded to the backend factory; see
    :mod:`repro.api.backends` for the per-family contract (``model=`` /
    ``checkpoint=`` / ``trajectories=`` for the learned methods).
    """
    backend = backend_spec(name).factory(**kwargs)
    backend.name = name
    return backend


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_registered())
