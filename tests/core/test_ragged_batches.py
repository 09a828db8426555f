"""One batch, three forms: a list of arrays, one packed
:class:`~repro.trajectory.Ragged` block and a ``Ragged`` of mixed blocks
(packed and list) are the same batch to every layer that reads it — the
encoder, the embedding cache's keys, the ``.npz`` layout and a snapshot.

A seeded generated law over batches of 1 to 300 trajectories of 1 to
``2 · max_len`` points, so truncation, the length-sorted groups and the
single-item view are all exercised.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimilarityService
from repro.api.protocols import EmbeddingBackend
from repro.api.service import CachedEncoder
from repro.core import TrajCL
from repro.trajectory import pack_trajectories, unpack_trajectories
from repro.trajectory.trajectory import Ragged

GENERATED = settings(max_examples=12, deadline=None, derandomize=True)


def packed(items):
    """``items`` as one packed block: one base, offsets, no item."""
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in items])))
    return Ragged([(np.concatenate(items), offsets)])


@st.composite
def batches(draw):
    """``(items, cuts)``: random walks of 1 to 80 points (``max_len`` is
    40) and where a mixed store splits them into blocks."""
    count = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    items = [np.cumsum(rng.standard_normal((n, 2)) * 60, axis=0) + 3000.0
             for n in rng.integers(1, 81, size=count).tolist()]
    cuts = sorted(set(draw(st.lists(st.integers(1, count), max_size=5))))
    return items, cuts


def forms(items, cuts):
    """The list, the packed block and the mixed store of ``items``."""
    bounds = [0, *cuts, len(items)]
    parts = [items[low:high] for low, high in zip(bounds, bounds[1:])
             if high > low]
    mixed = Ragged(packed(part) if i % 2 == 0 else list(part)
                   for i, part in enumerate(parts))
    return {"list": items, "packed": packed(items), "mixed": mixed}


@GENERATED
@given(batches())
def test_every_form_of_a_batch_is_the_same_batch(small_setup, batch):
    items, cuts = batch
    config, features, _ = small_setup
    assert 2 * config.max_len == 80
    model = TrajCL(features, config, rng=np.random.default_rng(7))
    engine = model.inference_encoder()
    want = engine.encode(items, batch_size=64).tobytes()
    keys = [CachedEncoder.key(points) for points in items]
    # behind the cache the misses are encoded in chunks of 100: the same
    # chunks give the same bits (other chunks may move a float32 ulp)
    want_cached = None
    for name, form in forms(items, cuts).items():
        assert len(form) == len(items), name
        # the encoder, alone and behind the cache's chunked misses
        assert engine.encode(form, batch_size=64).tobytes() == want, name
        cached = CachedEncoder(EmbeddingBackend("trajcl", model),
                               batch_size=100).encode(form).tobytes()
        want_cached = want_cached or cached
        assert cached == want_cached, name
        assert [CachedEncoder.key(points) for points in form] == keys, name
        # the .npz layout round-trips bit for bit, as one packed block
        restored = unpack_trajectories(pack_trajectories(form))
        assert len(restored.blocks) == 1, name
        assert [p.tobytes() for p in restored] == [
            p.tobytes() for p in items], name
    # a loaded snapshot holds its database as the one block it read
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "service.npz")
        SimilarityService(backend="hausdorff").add(
            forms(items, cuts)["mixed"]).save(path)
        loaded = SimilarityService.load(path)
    (block,) = loaded.trajectories.blocks
    assert type(block) is tuple
    assert [p.tobytes() for p in loaded.trajectories] == [
        p.tobytes() for p in items]
