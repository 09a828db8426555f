"""The one ``.npz`` layout of a batch of trajectories: pack then unpack
gives the batch back bit for bit, and two arrays that do not describe a
batch are refused before anything is built."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.trajectory import pack_trajectories, unpack_trajectories

GENERATED = settings(max_examples=60, deadline=None, derandomize=True)

#: one trajectory: 1 to 6 points, any finite float (signed zeros and
#: subnormals included, which a lossy copy would change)
trajectory = st.integers(1, 6).flatmap(lambda length: arrays(
    np.float64, (length, 2),
    elements=st.floats(allow_nan=False, allow_infinity=False)))
#: ragged batches, the empty one included
batches = st.lists(trajectory, max_size=8)
prefixes = st.sampled_from(["", "data/"])


def same_bits(left, right):
    return (left.dtype == right.dtype and left.shape == right.shape
            and left.tobytes() == right.tobytes())


@GENERATED
@given(batches, prefixes)
def test_pack_then_unpack_is_bit_identical(batch, prefix):
    packed = pack_trajectories(batch, prefix)
    assert sorted(packed) == [prefix + "offsets", prefix + "points"]
    unpacked = unpack_trajectories(packed, prefix)
    assert len(unpacked) == len(batch)
    for original, restored in zip(batch, unpacked):
        assert same_bits(restored, original)
        # a view into the one points array, not a copy
        assert np.shares_memory(restored, packed[prefix + "points"])


def test_an_empty_batch_is_two_arrays_and_unpacks_to_nothing():
    packed = pack_trajectories([])
    assert packed["points"].shape == (0, 2)
    assert packed["offsets"].tolist() == [0]
    assert list(unpack_trajectories(packed)) == []


def corrupt_offsets(offsets, points, how):
    """``offsets`` broken in one of the ways the layout forbids."""
    offsets = offsets.copy()
    if how == "first":
        offsets[0] = 1
    elif how == "step":                    # two trajectories share a start
        offsets[1] = offsets[0]
    elif how == "backwards":
        offsets[1], offsets[2] = offsets[2], offsets[1]
    elif how == "short":                   # the last points are left over
        offsets[-1] -= 1
    elif how == "long":                    # reads past the points
        offsets[-1] += 1
    elif how == "empty":
        offsets = offsets[:0]
    elif how == "rank":
        offsets = offsets[:, None]
    elif how == "dtype":
        offsets = offsets.astype(np.float64)
    elif how == "narrow":
        offsets = offsets.astype(np.int32)
    return offsets, points


def corrupt_points(offsets, points, how):
    points = points.copy()
    if how == "nan":
        points[len(points) // 2, 1] = np.nan
    elif how == "inf":
        points[-1, 0] = -np.inf
    elif how == "rank":
        points = points.reshape(-1)
    elif how == "width":
        points = np.repeat(points, 2, axis=1)[:, :3]
    elif how == "float32":
        points = np.zeros(points.shape, dtype=np.float32)
    return offsets, points


CORRUPTIONS = (
    [(corrupt_offsets, how) for how in (
        "first", "step", "backwards", "short", "long", "empty", "rank",
        "dtype", "narrow")]
    + [(corrupt_points, how) for how in (
        "nan", "inf", "rank", "width", "float32")])


@GENERATED
@given(st.lists(trajectory, min_size=3, max_size=8),
       st.sampled_from(CORRUPTIONS), prefixes)
def test_arrays_that_do_not_describe_a_batch_are_refused(batch, corruption,
                                                         prefix):
    packed = pack_trajectories(batch, prefix)
    corrupt, how = corruption
    offsets, points = corrupt(packed[prefix + "offsets"],
                              packed[prefix + "points"], how)
    with pytest.raises(ValueError):
        unpack_trajectories({prefix + "offsets": offsets,
                             prefix + "points": points}, prefix)


@pytest.mark.parametrize("missing", ["points", "offsets"])
def test_a_missing_array_is_refused_by_name(missing):
    packed = pack_trajectories([np.zeros((2, 2))], "data/")
    del packed["data/" + missing]
    with pytest.raises(ValueError, match="data/" + missing):
        unpack_trajectories(packed, "data/")


def test_pack_refuses_what_add_refuses():
    with pytest.raises(ValueError, match="non-finite"):
        pack_trajectories([np.zeros((2, 2)), np.full((1, 2), np.nan)])
    with pytest.raises(ValueError, match="at least one point"):
        pack_trajectories([np.zeros((0, 2))])
