"""Index adapters: one :class:`~repro.api.protocols.Index` contract over
the structures of :mod:`repro.index`.

Vector indexes (``"bruteforce"``, ``"ivf"``, ``"pq"``, ``"int8"``,
``"hnsw"``) consume the embeddings an embedding backend produces; the
trajectory index (``"segment"``) consumes raw trajectories and answers
exact Hausdorff kNN with pruning, so it only composes with the
``"hausdorff"`` distance backend.

**One lifecycle.** The five vector indexes share one body,
:class:`_VectorLifecycle`, over the ``train`` / ``add`` / ``search`` /
``export`` / ``restore`` methods of the structure they wrap. Vectors
arrive in the dtype the encoder emits (:func:`repro.index.distance.as_floats`).
A structure without a ``train`` method (brute force, HNSW) is created by
the first ``add`` and takes rows at once. One that trains (IVF, PQ,
int8) keeps the floats *pending* in a :class:`~repro.index.RowStore`
until the first ``search``: it then trains on up to ``train_sample`` of
them with ``default_rng(seed)``, takes them all, and the floats are
**dropped** — from there on everything resident is the structure's, so
``memory_bytes`` reports codes and lists, never a hidden float copy, and
later adds go straight in (assigned / encoded against what was trained).
``ivf`` alone declares a ``retrain_factor``: once the database has grown
that many times past the size it trained on, its rows come back out of
the inverted lists in id order and the next search re-trains on them.
``len``, ``memory_bytes``, ``stats()`` and ``state()`` never train.

**A declaration** is what each public class holds: ``name``, ``exact``,
the ``structure`` it wraps, and ``defaults`` — the keyword → default table
that is the constructor's signature *and* the snapshot's meta — plus
only what truly differs (``rows_key``, ``clamped``, two ``stats``
extras, ``pq``'s refusal of IVF-PQ). ``structure`` is a name,
``"module.Class"`` under :mod:`repro.index`, imported when an index
first needs the class: a process loads the structures it builds, and a
sharded owner, which builds none, loads none. The storage format of a trained structure
belongs to :mod:`repro.index` (``export`` / ``restore``); nothing here reads a
structure's private attribute. ``restore(*state())`` answers with the
saved index's bytes for all five, with no k-means run.

The body is a plain mixin, not an :class:`Index`: whatever patches
``add`` / ``search`` on every ``Index`` subclass bound in this module
(the end-to-end benchmark's span shims do) would wrap a shared ``Index``
base first and then each subclass's inherited copy again — two spans per
call. With the mixin, each public class is wrapped exactly once.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..index import distance
from ..index.rows import RowStore
from .protocols import Index, flat_pq_options, refuse_other_metric

__all__ = [
    "BruteForceBackendIndex",
    "IVFBackendIndex",
    "SegmentBackendIndex",
    "PQBackendIndex",
    "Int8BackendIndex",
    "HNSWBackendIndex",
    "register_index",
    "get_index",
    "available_indexes",
]

_INDEXES: Dict[str, Callable[..., Index]] = {}


def register_index(name: str):
    """Decorator registering an index factory under ``name``."""

    def decorate(factory):
        _INDEXES[name] = factory
        return factory

    return decorate


def get_index(name: str, **kwargs) -> Index:
    """Instantiate a registered index by name: one of
    :func:`available_indexes` (``"bruteforce"``, ``"hnsw"``, ``"int8"``,
    ``"ivf"``, ``"pq"``, ``"segment"``)."""
    try:
        factory = _INDEXES[name]
    except KeyError:
        raise KeyError(
            f"unknown index {name!r}; available: {available_indexes()}"
        ) from None
    return factory(**kwargs)


def available_indexes() -> List[str]:
    """Sorted names of every registered index type."""
    return sorted(_INDEXES)


#: keywords the lifecycle itself consumes when the structure trains; every
#: other keyword of a declaration goes to the structure's constructor
_TRAINING = ("train_sample", "seed", "retrain_factor")


class _VectorLifecycle:
    """The one body of the vector indexes (see the module docstring)."""

    #: the :mod:`repro.index` class this index wraps, as ``"module.Class"``
    structure: str
    #: constructor keyword -> default; also the snapshot meta
    defaults: Dict[str, object]
    #: the array a snapshot carries float rows under (pending, or exported)
    rows_key = "data"
    #: the keyword held to a quarter of the training rows: coarse cells
    #: stay meaningful with a few vectors per cell
    clamped: Optional[str] = None

    def __init__(self, **options):
        unknown = sorted(set(options) - set(self.defaults))
        if unknown:
            raise TypeError(f"{type(self).__name__}() got unexpected "
                            f"keyword argument(s) {unknown}")
        vars(self).update({**self.defaults, **options})
        if options.get("train_sample", 1) < 1:
            raise ValueError("train_sample must be positive")
        if options.get("retrain_factor", 1.0) < 1.0:
            raise ValueError("retrain_factor must be >= 1")
        self.train_count = 0
        self._trained_size = 0
        self._pending: Optional[RowStore] = None
        self._inner = None

    @classmethod
    def _structure(cls) -> type:
        """The class :attr:`structure` names, imported on first use."""
        module, name = cls.structure.split(".")
        return getattr(import_module(f"repro.index.{module}"), name)

    @property
    def _trains(self) -> bool:
        """Whether the structure must ``train`` before its first ``add``."""
        return hasattr(self._structure(), "train")

    def _new_structure(self, dim: int, training_rows: Optional[int] = None):
        consumed = _TRAINING if self._trains else ()
        options = {key: getattr(self, key) for key in self.defaults
                   if key not in consumed}
        if training_rows is not None and options.get(self.clamped):
            options[self.clamped] = max(
                1, min(options[self.clamped], training_rows // 4))
        return self._structure()(dim, **options)

    def add(self, items) -> None:
        vectors = np.atleast_2d(distance.as_floats(items))
        retrain_factor = getattr(self, "retrain_factor", None)
        if self._inner is None and not self._trains:
            self._inner = self._new_structure(vectors.shape[1])
        elif (self._inner is not None and retrain_factor is not None
              and len(self) + len(vectors)
              > retrain_factor * self._trained_size):
            # Grown too far past the trained quantizer: the rows leave the
            # structure in id order and the next search trains on them all.
            self._pending = RowStore(self._inner.export()[1][self.rows_key])
            self._inner = None
        if self._inner is not None:
            self._inner.add(vectors)
        elif not self._pending:  # None, or empty: this add fixes the dtype
            self._pending = RowStore(vectors.copy())
        else:
            self._pending.append(vectors)

    def _train(self) -> None:
        pending = self._pending.rows
        sample = pending[:getattr(self, "train_sample", None)]
        inner = self._new_structure(pending.shape[1], len(sample))
        inner.train(sample, rng=np.random.default_rng(
            getattr(self, "seed", 0)))
        inner.add(pending)
        self._inner, self._pending = inner, None  # the floats are dropped
        self._trained_size = len(inner)
        self.train_count += 1

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise RuntimeError("index is empty")
        if self._inner is None:
            self._train()
        return self._inner.search(np.atleast_2d(queries), k)

    def __len__(self) -> int:
        if self._inner is not None:
            return len(self._inner)
        return 0 if self._pending is None else len(self._pending)

    @property
    def memory_bytes(self) -> int:
        """Resident bytes: the structure's, or the pending float rows'."""
        if self._inner is not None:
            return self._inner.memory_bytes
        return 0 if self._pending is None else self._pending.rows.nbytes

    def stats(self) -> Dict:
        info = super().stats()
        if self._trains:
            info.update(trained=self._inner is not None,
                        train_count=self.train_count)
        return info

    def state(self):
        meta = {"type": self.name,
                **{key: getattr(self, key) for key in self.defaults}}
        meta["trained" if self._trains else "built"] = self._inner is not None
        if self._inner is None:
            return meta, ({} if self._pending is None
                          else {self.rows_key: self._pending.rows})
        inner_meta, arrays = self._inner.export()
        meta["dim"] = self._inner.dim
        if inner_meta:
            meta["graph"] = inner_meta  # named by its one user, hnsw
        return meta, arrays

    @classmethod
    def restore(cls, meta, arrays):
        refuse_other_metric(meta)
        index = cls(**{key: meta[key] for key in cls.defaults if key in meta})
        if meta.get("trained") or meta.get("built"):
            inner = index._new_structure(int(meta["dim"]))
            inner.restore(meta.get("graph", {}), arrays)
            index._inner = inner
            index._trained_size = len(inner)  # growth counts from here
            index.train_count = int(index._trains)  # the one it carries
        elif len(arrays.get(cls.rows_key, ())):
            # Cold, or written before this kind snapshotted its structure
            # (bruteforce ``data``, ivf ``vectors``): rows go in as added.
            index.add(arrays[cls.rows_key])
        return index


@register_index("bruteforce")
class BruteForceBackendIndex(_VectorLifecycle, Index):
    """Exact full-scan kNN over embedding vectors."""

    name = "bruteforce"
    structure = "bruteforce.BruteForceIndex"
    defaults = {}


@register_index("ivf")
class IVFBackendIndex(_VectorLifecycle, Index):
    """IVFFlat (Voronoi inverted lists): float rows in coarse lists.

    Appended vectors are assigned to the *existing* centroids — no k-means
    re-run — until the database has grown ``retrain_factor``× beyond the
    size it last trained on; the next search then re-trains with
    ``n_lists`` re-clamped to the new size. ``train_count`` records how
    many k-means runs have happened.
    """

    name = "ivf"
    exact = False
    structure = "ivf.IVFFlatIndex"
    defaults = {"n_lists": 16, "n_probe": 4, "seed": 0,
                "retrain_factor": 2.0}
    rows_key = "vectors"
    clamped = "n_lists"


@register_index("segment")
class SegmentBackendIndex(Index):
    """Exact Hausdorff kNN over raw trajectories (bounding-box pruning)."""

    name = "segment"
    consumes = "trajectories"
    #: the measure this index answers; the service refuses to compose it
    #: with a different distance backend
    measure_name = "hausdorff"

    def __init__(self):
        from ..index.segment import SegmentHausdorffIndex

        #: holds the blocks the service stores, not a copy of them
        self._inner = SegmentHausdorffIndex()

    def add(self, items) -> None:
        self._inner.add(items)

    def search(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if not len(self._inner):
            raise RuntimeError("index is empty")
        # One batched lower-bound pass for every query (rows padded to k
        # with inf/-1, mirroring the vector indexes); only the pruned
        # exact Hausdorff evaluations remain per-query work.
        return self._inner.knn_batch(queries, k)

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size of DFT (points + MBRs + segment
        bucket entries; see ``SegmentHausdorffIndex.memory_bytes``)."""
        return self._inner.memory_bytes

    def state(self):
        # Trajectories are stored by the service itself and the structure
        # is deterministic: nothing but the kind needs recording.
        return {"type": self.name}, {}

    @classmethod
    def restore(cls, meta, arrays) -> "SegmentBackendIndex":
        # a stored "bucket_size" (a knob that changed nothing) is ignored
        return cls()


@register_index("pq")
class PQBackendIndex(_VectorLifecycle, Index):
    """Product-quantized kNN: one flat ADC scan, plus an exact refine tail.

    The codebooks train once on up to ``train_sample`` pending vectors and
    everything is encoded to uint8 code rows. ``refine_dtype``
    (``"float16"``/``"float32"``) retains a low-precision tail and
    re-ranks ``refine_factor * k`` ADC candidates exactly, trading memory
    back for recall.
    """

    name = "pq"
    exact = False
    structure = "pq.PQIndex"
    defaults = {"n_subspaces": 16, "n_centroids": 256, "refine_factor": 4,
                "refine_dtype": None, "train_sample": 20000, "seed": 0}
    rows_key = "buffer"

    def __init__(self, **options):
        super().__init__(**flat_pq_options(options))

    @classmethod
    def restore(cls, meta, arrays):
        return super().restore(flat_pq_options(meta, arrays), arrays)

    def stats(self) -> Dict:
        info = super().stats()
        info.update(n_subspaces=self.n_subspaces,
                    n_centroids=self.n_centroids,
                    refine_dtype=self.refine_dtype)
        if self._inner is not None:
            info["codebook_shape"] = list(self._inner.pq.codebooks.shape)
        return info


@register_index("int8")
class Int8BackendIndex(_VectorLifecycle, Index):
    """Int8 scalar quantization: 8× smaller residency, near-exact recall.

    The per-dimension affine grid trains on the pending floats; vectors
    added after training are clipped onto the existing grid.
    """

    name = "int8"
    exact = False
    structure = "quant.Int8FlatIndex"
    defaults = {"train_sample": 65536}
    rows_key = "buffer"


@register_index("hnsw")
class HNSWBackendIndex(_VectorLifecycle, Index):
    """HNSW graph kNN: sub-linear distance evaluations, float32 residency.

    Purely incremental — no train step, every :meth:`add` inserts into the
    graph immediately. Snapshots persist the exact graph (levels + link
    lists as flat int arrays), so a restored index answers bit-identical
    queries without re-inserting.
    """

    name = "hnsw"
    exact = False
    structure = "hnsw.HNSWIndex"
    defaults = {"m": 16, "ef_construction": 64, "ef_search": 32,
                "seed": 0}

    @property
    def distance_evaluations(self) -> int:
        """Cumulative vector-distance computations (build + queries)."""
        return 0 if self._inner is None else self._inner.distance_evaluations

    def stats(self) -> Dict:
        info = super().stats()
        info.update(m=self.m, ef_construction=self.ef_construction,
                    ef_search=self.ef_search,
                    distance_evaluations=int(self.distance_evaluations))
        if self._inner is not None:
            info["max_level"] = self._inner.max_level
        return info
