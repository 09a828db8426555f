"""What a shard keeps of what it is sent, and how an owner deals to it.

A vector-fed :class:`~repro.api.shard.Shard` fed through the codec
holds each add as it arrived — one packed block of points and the
vectors beside it, views of the received frame — plus its index's own
buffer, and nothing else per trajectory; its ``export`` hands the blocks
back without building an object per trajectory. The owner deals a batch
in one sort that agrees, item for item, with the per-item rule.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimilarityService
from repro.api.backends import shard_backend_state
from repro.api.protocols import BackendDescription, Embedded, NoEncoderError
from repro.api.serving import deal
from repro.api.shard import Shard
from repro.api.transport import FRAME_HEADER, decode_payload, encode_frame
from repro.trajectory.trajectory import Ragged

DIM = 64
#: an owner's set-up chunk (``benchmarks/e2e``'s SETUP_CHUNK)
CHUNK = 512


def vector_fed_shard():
    description = BackendDescription("trajcl", 1.0, DIM, np.float32)
    return Shard(shard_backend_state(description), index="bruteforce")


def database(count, seed=0):
    rng = np.random.default_rng(seed)
    trajectories = [rng.standard_normal((int(length), 2)) * 100.0
                    for length in rng.integers(10, 60, size=count)]
    vectors = rng.standard_normal((count, DIM)).astype(np.float32)
    return trajectories, vectors


def frames(trajectories, vectors):
    """What an owner sends one shard: ``add`` frames of ``CHUNK`` rows."""
    return [encode_frame(("add", {0: (trajectories[start:start + CHUNK],
                                      vectors[start:start + CHUNK])}))
            for start in range(0, len(trajectories), CHUNK)]


def receive(shard, frame):
    """Hand ``frame`` to ``shard`` as a worker does: the body lands in a
    buffer of its own size and the decoded share goes to ``add``."""
    body = np.empty(len(frame) - FRAME_HEADER.size, dtype=np.uint8)
    body[:] = np.frombuffer(frame, np.uint8, offset=FRAME_HEADER.size)
    shard.add(decode_payload(body)[1][0])


def fed(count):
    shard = vector_fed_shard()
    for frame in frames(*database(count)):
        receive(shard, frame)
    return shard


def test_a_fed_shard_holds_its_points_its_vectors_once_and_its_index():
    trajectories, vectors = database(7 * CHUNK)
    sent = frames(trajectories, vectors)
    receive(vector_fed_shard(), sent[0])  # first-use imports, uncounted
    shard = vector_fed_shard()
    receive(shard, sent[0])  # builds the index structure, uncounted
    store = shard.service.index._inner._store
    first = store._buffer
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for frame in sent[1:]:
            receive(shard, frame)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(shard) == len(trajectories)
    added = trajectories[CHUNK:]
    # the points as a packed file holds them: their rows, plus one
    # offset per trajectory and one per block
    points = sum(t.nbytes for t in added) + 8 * (len(added) + len(sent) - 1)
    # the index's buffer, spare capacity included: regrown inside the
    # count, so all of it was allocated there (the first one's release
    # is not seen)
    assert store._buffer is not first
    assert held <= (points + vectors[CHUNK:].nbytes + store._buffer.nbytes
                    + 1024 * (len(sent) - 1))


@pytest.mark.parametrize("count", [600, 2400])
def test_export_builds_no_per_trajectory_object(count):
    shard = fed(count)
    tracemalloc.start()
    try:
        points, vectors = shard.export()
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the vectors as one array, and a constant beside them
    assert allocated - vectors.nbytes < 2048
    assert type(points) is Ragged and len(points) == count
    assert all(ours is theirs for ours, theirs in
               zip(points.blocks, shard.service.trajectories.blocks))
    assert vectors.shape == (count, DIM)


def test_an_exported_shard_refills_another_as_one_block():
    shard = fed(1100)
    frame = encode_frame(("add", {0: shard.export()}))
    refilled = vector_fed_shard()
    receive(refilled, frame)
    assert len(refilled.service.trajectories.blocks) == 1
    points, vectors = refilled.export()
    assert [p.tobytes() for p in points] == [
        p.tobytes() for p in shard.service.trajectories]
    assert vectors.tobytes() == shard.export()[1].tobytes()
    queries = vectors[:5]
    for got, want in zip(refilled.knn((queries, 4, None)),
                         shard.knn((queries, 4, None))):
        assert got.tobytes() == want.tobytes()


def test_an_empty_embedding_shard_exports_0_by_d_vectors():
    points, vectors = vector_fed_shard().export()
    assert len(points) == 0
    assert vectors.shape == (0, DIM) and vectors.dtype == np.float32


def test_saving_a_vector_fed_service_names_the_owners_snapshot(tmp_path):
    service = SimilarityService(
        backend=BackendDescription("trajcl", 1.0, 4))
    service.add(Embedded(np.ones((1, 4)), [np.zeros((2, 2))]))
    path = tmp_path / "shard.npz"
    with pytest.raises(NoEncoderError,
                       match=r"ClusterCoordinator\.save") as raised:
        service.save(str(path))
    assert "Embedded" not in str(raised.value)
    assert not path.exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 7), st.integers(0, 20), min_size=1),
       st.integers(0, 40))
def test_dealing_a_batch_is_the_per_item_rule(sizes, count):
    """Over any eligible set (the keys), shard sizes and batch length,
    every item goes where the smallest-shard-first rule sends it."""
    current, expected = dict(sizes), []
    for _ in range(count):
        shard = min(current, key=lambda s: (current[s], s))
        current[shard] += 1
        expected.append(shard)
    assert deal(sizes, count).tolist() == expected
