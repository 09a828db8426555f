"""Core protocols of the unified similarity API.

Every similarity method in the repo — the TrajCL model, the eight learned
baselines and the four heuristic measures — is exposed to callers through
one of two backend *kinds*:

* ``"embedding"`` — the method maps trajectories to vectors
  (``encode(trajectories) -> (N, d)``) and similarity is the L1 distance
  between vectors (the paper's, and the only one served);
* ``"distance"`` — the method scores pairs directly
  (``distance(a, b) -> float``), the contract of the heuristic measures.

:class:`SimilarityBackend` unifies both: every backend answers
``distance`` and ``pairwise``; embedding backends additionally answer
``encode``. :class:`Index` is the matching contract for kNN structures so
:class:`~repro.api.service.SimilarityService` can swap brute-force, IVF
and segment indexes behind one interface.

The tier that owns a request embeds it once: a sharded owner hands its
shards :class:`Embedded` input, and a shard's backend is a
:class:`BackendDescription` — enough to *compare* vectors, no model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..trajectory.trajectory import TrajectoryLike

#: backend kinds
EMBEDDING = "embedding"
DISTANCE = "distance"


class RetiredOptionError(TypeError, ValueError):
    """A removed option, refused with a message naming what replaces it."""


def refuse_other_metric(meta: Dict) -> None:
    """Snapshot meta is input from outside the program: one that names an
    embedding distance other than L1 (the only one served) is refused,
    never served as L1. Meta naming ``"l1"``, or none, passes."""
    metric = meta.get("metric", "l1")
    if metric != "l1":
        raise RetiredOptionError(f"snapshot names the {metric!r} embedding "
                                 "distance; L1 is the only one served")


def flat_pq_options(options: Optional[Dict], arrays=()) -> Dict:
    """``pq`` options without the removed IVF-PQ layer: ``coarse_lists`` 0
    (and any ``n_probe``) is flat pq as written before and drops out; any
    other ``coarse_lists``/``n_probe``, or the layer's arrays, is refused."""
    options = dict(options or {})
    if options.get("coarse_lists") == 0:
        del options["coarse_lists"]
        options.pop("n_probe", None)
    if ({"coarse_lists", "n_probe"} & set(options)
            or {"assign", "centers"} & set(arrays)):
        raise RetiredOptionError("IVF-PQ (coarse_lists, n_probe) is gone; "
                                 "use flat `pq`: more `n_subspaces` for "
                                 "recall")
    return options


def as_float_array(values) -> np.ndarray:
    """Coerce to a float array, preserving an existing floating dtype.

    Float32 embeddings stay float32 end to end (backend encode and the
    service's embedding cache share this policy); only non-float outputs
    are upcast to float64.
    """
    out = np.asarray(values)
    if not np.issubdtype(out.dtype, np.floating):
        out = out.astype(np.float64)
    return out


class SimilarityBackend(ABC):
    """A named trajectory-similarity method (lower distance = more similar)."""

    #: registry name, e.g. ``"trajcl"`` or ``"hausdorff"``
    name: str = "abstract"
    #: ``"embedding"`` or ``"distance"``
    kind: str = EMBEDDING

    def encode(self, trajectories: Sequence[TrajectoryLike]) -> np.ndarray:
        """Embed trajectories as ``(N, d)`` vectors (embedding backends only)."""
        raise NotImplementedError(
            f"backend {self.name!r} is a {self.kind!r} backend and does not "
            "produce embeddings"
        )

    @abstractmethod
    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        """Dissimilarity of one trajectory pair."""

    @abstractmethod
    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        """Dense ``(|Q|, |D|)`` distance matrix."""

    # ``eval.distance_matrix_of`` and the benchmark harnesses historically
    # dispatched on this method name; keeping it as an alias lets a backend
    # drop into any code written for the learned models.
    def distance_matrix(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        return self.pairwise(queries, database)

    @property
    def output_dim(self) -> Optional[int]:
        """Embedding dimensionality, or None for distance backends."""
        return None

    @property
    def dtype(self) -> Optional[np.dtype]:
        """Dtype of the rows :meth:`encode` returns, or None for a backend
        that holds no encoder."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"


class EmbeddedInputError(ValueError):
    """:class:`Embedded` input that is not a 2-D float array, one row per
    trajectory, of the service's embedding dimensionality."""


class NoEncoderError(RuntimeError):
    """A vector-fed service was asked for what only its owner has: a
    model to embed trajectories with, or to snapshot."""


class Embedded:
    """Trajectories that arrive already embedded.

    ``vectors`` is the ``(N, d)`` float array an encoder produced;
    ``trajectories`` are the N point arrays behind the rows — required
    by ``add`` (a service stores what it indexes), absent on queries.
    :class:`~repro.api.service.SimilarityService` accepts one wherever
    it accepts trajectories and skips only the encode.
    """

    __slots__ = ("vectors", "trajectories")

    def __init__(self, vectors, trajectories=None):
        vectors = np.asarray(vectors)  # never coerced: floats or refused
        if vectors.ndim != 2 or vectors.dtype.kind != "f":
            raise EmbeddedInputError(
                f"embedded input must be a 2-D float array, got "
                f"{vectors.dtype} of shape {vectors.shape}")
        if trajectories is not None and len(trajectories) != len(vectors):
            raise EmbeddedInputError(
                f"{len(vectors)} vectors for {len(trajectories)} "
                "trajectories")
        self.vectors = vectors
        self.trajectories = trajectories

    def __len__(self) -> int:
        return len(self.vectors)


class BackendDescription(SimilarityBackend):
    """What a vector-fed shard knows of its owner's embedding backend.

    ``name``, ``scale``, ``output_dim`` and ``dtype`` are all it takes to
    index and compare vectors; model, weights and embedding cache stay
    with the owner, which hands every shard :class:`Embedded` input.
    """

    kind = EMBEDDING

    def __init__(self, name: str, scale: float = 1.0,
                 output_dim: Optional[int] = None, dtype=None):
        self.name = name
        self.scale = float(scale)
        self._output_dim = output_dim
        self._dtype = None if dtype is None else np.dtype(dtype)

    @property
    def output_dim(self) -> Optional[int]:
        return self._output_dim

    @property
    def dtype(self) -> Optional[np.dtype]:
        return self._dtype

    def _refuse(self, *_args):
        raise NoEncoderError(
            f"backend {self.name!r} is a description: this service is fed "
            "vectors and holds no model — the owner that shards the "
            "database (ShardedSimilarityService / ClusterCoordinator) "
            "encodes; pass Embedded(vectors) input")

    # Everything that would need the model refuses alike (``model`` is
    # what ``backend_state`` would snapshot).
    encode = distance = pairwise = _refuse
    model = property(_refuse)


class EmbeddingBackend(SimilarityBackend):
    """Adapter giving any ``encode()``-bearing model the backend contract.

    Wraps :class:`repro.core.TrajCL`, every
    :class:`repro.baselines.LearnedSimilarityMeasure`, or anything else with
    ``encode(trajectories) -> (N, d)``. Distances are L1 in embedding space,
    the paper's similarity convention.
    """

    kind = EMBEDDING
    #: the training record of a model its factory trained (``trajcl``
    #: from ``trajectories=``: one loss per epoch, none under
    #: ``train=False``); None for a model that came built
    history = None

    def __init__(self, name: str, model):
        if not hasattr(model, "encode"):
            raise TypeError(
                f"{type(model).__name__} has no encode(); cannot wrap it as "
                "an embedding backend"
            )
        self.name = name
        self.model = model

    def encode(self, trajectories: Sequence[TrajectoryLike]) -> np.ndarray:
        return as_float_array(self.model.encode(trajectories))

    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        return float(self.pairwise([a], [b])[0, 0])

    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        # A model's own distance_matrix is authoritative: the heuristic
        # approximators rescale L1 distances onto the target measure there.
        own = getattr(self.model, "distance_matrix", None)
        if callable(own):
            return own(queries, database)
        from ..index import distance

        return self.scale * distance.pairwise(self.encode(queries),
                                              self.encode(database))

    @property
    def scale(self) -> float:
        """Factor mapping embedding distances onto the method's scale."""
        return float(getattr(self.model, "target_scale", 1.0))

    @property
    def dtype(self) -> np.dtype:
        """What the model declares as its ``dtype`` (TrajCL: float32),
        else the float64 a numpy model emits."""
        return np.dtype(getattr(self.model, "dtype", np.float64))

    @property
    def output_dim(self) -> Optional[int]:
        for attr in ("output_dim", "encoder"):
            value = getattr(self.model, attr, None)
            if isinstance(value, int) and value > 0:
                return value
            dim = getattr(value, "output_dim", None)
            if isinstance(dim, int) and dim > 0:
                return dim
        return None


class MeasureBackend(SimilarityBackend):
    """Adapter exposing a heuristic measure as a distance backend."""

    kind = DISTANCE

    def __init__(self, measure):
        if not hasattr(measure, "distance"):
            raise TypeError(
                f"{type(measure).__name__} has no distance(); cannot wrap it "
                "as a distance backend"
            )
        self.name = getattr(measure, "name", type(measure).__name__.lower())
        self.measure = measure

    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        return float(self.measure.distance(a, b))

    def pairwise(
        self,
        queries: Sequence[TrajectoryLike],
        database: Sequence[TrajectoryLike],
    ) -> np.ndarray:
        return self.measure.pairwise(queries, database)


def as_backend(method, name: Optional[str] = None) -> SimilarityBackend:
    """Coerce any similarity method into a :class:`SimilarityBackend`.

    Accepts an existing backend (returned unchanged), a heuristic
    :class:`~repro.measures.TrajectorySimilarityMeasure`, or any model with
    ``encode()`` (TrajCL, the learned baselines, fine-tuned approximators).
    """
    if isinstance(method, SimilarityBackend):
        return method
    from ..measures.base import TrajectorySimilarityMeasure

    if isinstance(method, TrajectorySimilarityMeasure):
        return MeasureBackend(method)
    if hasattr(method, "encode"):
        inferred = name or getattr(method, "name", type(method).__name__.lower())
        return EmbeddingBackend(inferred, method)
    if hasattr(method, "distance"):
        return MeasureBackend(method)
    if hasattr(method, "pairwise") or hasattr(method, "distance_matrix"):
        return _MatrixBackend(method, name)
    raise TypeError(
        f"cannot interpret {type(method).__name__} as a similarity backend"
    )


class _MatrixBackend(SimilarityBackend):
    """Last-resort adapter for objects that only expose a distance matrix
    (e.g. a :class:`~repro.api.service.SimilarityService` used as a method)."""

    kind = DISTANCE

    def __init__(self, method, name: Optional[str] = None):
        self.method = method
        self.name = name or getattr(method, "name", type(method).__name__.lower())

    def _matrix(self, queries, database) -> np.ndarray:
        fn = getattr(self.method, "pairwise", None) or self.method.distance_matrix
        return fn(queries, database)

    def distance(self, a: TrajectoryLike, b: TrajectoryLike) -> float:
        return float(self._matrix([a], [b])[0, 0])

    def pairwise(self, queries, database) -> np.ndarray:
        return self._matrix(queries, database)


@runtime_checkable
class KnnService(Protocol):
    """Anything that answers batched kNN with the service's signature.

    :class:`~repro.api.service.SimilarityService`,
    :class:`~repro.api.serving.ShardedSimilarityService`,
    :class:`~repro.api.coordinator.ClusterCoordinator`,
    :class:`~repro.api.remote.RemoteSimilarityClient` and
    :class:`~repro.api.serving.QueryQueue` all satisfy it — ``knn`` /
    ``pairwise`` / ``add`` / ``len`` / ``stats`` — so the front ends
    (:class:`~repro.api.remote.SimilarityServer`, the HTTP gateway) and
    the queue compose with any of them interchangeably.

    Every one of them is safe to call from any thread: a
    ``SimilarityService`` serializes its calls under one lock, the sharded
    engine, the coordinator and the remote client serialize their RPC,
    and a ``QueryQueue`` hands its service one call at a time. So no
    front end locks around a service. A *foreign* service that is not
    thread-safe goes behind a ``QueryQueue``, which exists for that job
    (and to batch concurrent callers).
    """

    def knn(
        self,
        queries: Sequence[TrajectoryLike],
        k: int,
        exclude: Optional[int] = None,
        dedupe_eps: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        ...


class Index(ABC):
    """kNN structure the :class:`SimilarityService` composes with a backend.

    ``consumes`` declares what :meth:`add` expects: vector indexes take the
    backend's embeddings (``"vectors"``); trajectory indexes (the segment
    Hausdorff index) take the raw trajectories (``"trajectories"``).
    """

    #: registry name, e.g. ``"bruteforce"``
    name: str = "abstract"
    #: ``"vectors"`` or ``"trajectories"``
    consumes: str = "vectors"
    #: whether :meth:`search` answers exact kNN, as ``stats()`` reports.
    #: Approximate indexes (IVF, PQ, int8, HNSW) set this False; the
    #: sharded merge treats both kinds alike.
    exact: bool = True

    @abstractmethod
    def add(self, items) -> None:
        """Insert vectors or trajectories (see :attr:`consumes`)."""

    @abstractmethod
    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, indices)`` of the k nearest per query, ascending."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of indexed items."""

    def stats(self) -> Dict:
        """JSON-able introspection: name, size, exactness, memory.

        ``bytes_per_vector`` is resident bytes over stored items — 4 or 8
        per dimension for the float indexes (whatever dtype was added),
        far less once a quantized index has trained. The compressed
        indexes extend this with codebook/knob detail; the service
        surfaces it as ``stats()["index_stats"]`` all the way up through
        the gateway's ``/stats`` endpoint.
        """
        info: Dict = {"name": self.name, "size": len(self), "exact": self.exact}
        memory = getattr(self, "memory_bytes", None)
        if isinstance(memory, (int, np.integer)):
            info["memory_bytes"] = int(memory)
            if len(self):
                info["bytes_per_vector"] = round(memory / len(self), 2)
        return info

    # ------------------------------------------------------------------
    # Persistence: meta must be JSON-able, arrays are numpy payloads.
    # ------------------------------------------------------------------
    def state(self) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """``(meta, arrays)`` snapshot for :meth:`SimilarityService.save`."""
        raise NotImplementedError(f"index {self.name!r} does not support save")

    @classmethod
    def restore(cls, meta: Dict, arrays: Dict[str, np.ndarray]) -> "Index":
        """Rebuild an index from a :meth:`state` snapshot."""
        raise NotImplementedError(f"{cls.__name__} does not support load")
