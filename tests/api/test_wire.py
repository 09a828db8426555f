"""Tests for the typed binary wire codec: round-trips over the full tag
vocabulary (hand-picked and generated), the dense form of a list of like
arrays (its byte count, and hostile headers refused before allocation),
the closed vocabulary (what the codec cannot express fails at the sender,
pickle blobs fail at the receiver without running), malformed-payload
rejection (every prefix and bit flip is a typed error, never a truncated
``np.frombuffer``)."""

import hashlib
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.api import wire
from repro.api.transport import FrameError, decode_payload
from repro.api.wire import WireError
from repro.trajectory.trajectory import Ragged


def round_trip(message):
    return wire.decode(wire.encode(message))


class Detonator:
    """Unpickling an instance touches ``path`` — proof that code ran."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _u32(value):
    return struct.pack(">I", value)


def _u64(value):
    return struct.pack(">Q", value)


#: hostile payload name -> what the receiver's FrameError says about it
HOSTILE = {
    "pickle_blob": "unsupported wire version",
    "pickle_blob_protocol_0": "unsupported wire version",
    "fallback_tag": "unknown wire tag",
    "deep_nesting": "nest deeper",
    "unhashable_key": "unhashable dict key",
    "shm_tag": "unknown wire tag",
}


def hostile_payloads(sentinel):
    """Payloads a peer could put inside a well-formed frame, by name."""
    blob = pickle.dumps(Detonator(sentinel), protocol=pickle.HIGHEST_PROTOCOL)
    version = bytes([wire.WIRE_VERSION])
    return {
        "pickle_blob": blob,  # starts 0x80, like every protocol >= 2
        # the text protocol: no 0x80 marker to recognise
        "pickle_blob_protocol_0": pickle.dumps(Detonator(sentinel),
                                               protocol=0),
        # the tag that used to carry opaque pickles
        "fallback_tag": version + b"P" + _u64(len(blob)) + blob,
        # 5000 one-element lists around a None: 25 KB, well-formed
        "deep_nesting": version + (b"l" + _u32(1)) * 5000 + b"N",
        # {[]: None}
        "unhashable_key": version + b"d" + _u32(1) + b"l" + _u32(0) + b"N",
        # float64[4] in a /dev/shm segment: a tag the wire no longer has
        "shm_tag": (version + b"M" + b"\x10repro_wire_0_0000"
                    + b"\x03<f8" + b"\x01" + _u64(4)),
    }


class TestScalarRoundTrips:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62), 3.5, -0.0,
        float("inf"), "", "text", "snowman ☃", b"", b"raw bytes",
    ])
    def test_plain_values(self, value):
        result = round_trip(value)
        assert result == value
        assert type(result) is type(value)

    def test_nan(self):
        result = round_trip(float("nan"))
        assert isinstance(result, float) and result != result

    @pytest.mark.parametrize("value", [2**80, -(2**80), 2**63, -(2**63) - 1])
    def test_bigints_beyond_i64(self, value):
        assert round_trip(value) == value

    @pytest.mark.parametrize("scalar", [
        np.float64(1.25), np.float32(-2.5), np.int64(-7), np.int32(9),
        np.uint8(255), np.bool_(True),
    ])
    def test_numpy_scalars_keep_their_type(self, scalar):
        result = round_trip(scalar)
        assert type(result) is type(scalar)
        assert result == scalar


class TestArrayRoundTrips:
    @pytest.mark.parametrize("dtype", [
        np.float32, np.float64, np.int64, np.int32, np.uint8, np.bool_,
    ])
    def test_dtype_matrix(self, dtype):
        array = np.arange(12).reshape(3, 4).astype(dtype)
        result = round_trip({"a": array})["a"]
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        np.testing.assert_array_equal(result, array)

    def test_zero_d_array(self):
        array = np.array(3.25)
        result = round_trip(array)
        assert result.shape == ()
        assert result.dtype == array.dtype
        assert float(result) == 3.25

    def test_empty_array(self):
        array = np.empty((0, 5), dtype=np.float64)
        result = round_trip(array)
        assert result.shape == (0, 5)
        assert result.dtype == np.float64

    def test_non_contiguous_slice(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[::2, ::3]
        assert not view.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(round_trip(view), view)

    def test_fortran_order(self):
        array = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        assert array.flags["F_CONTIGUOUS"]
        result = round_trip(array)
        np.testing.assert_array_equal(result, array)

    def test_non_native_endian(self):
        array = np.arange(5, dtype=">f8")
        result = round_trip(array)
        assert result.dtype == np.dtype(">f8")
        np.testing.assert_array_equal(result, array)

    def test_nested_dicts_of_arrays(self):
        message = {
            "distances": np.random.default_rng(0).normal(size=(3, 7)),
            "meta": {"ids": np.arange(7, dtype=np.int64),
                     "nested": [{"x": np.ones(2, dtype=np.float32)}]},
        }
        result = round_trip(message)
        np.testing.assert_array_equal(result["distances"],
                                      message["distances"])
        np.testing.assert_array_equal(result["meta"]["ids"],
                                      message["meta"]["ids"])
        np.testing.assert_array_equal(result["meta"]["nested"][0]["x"],
                                      message["meta"]["nested"][0]["x"])

    def test_containers_keep_their_types(self):
        message = ("cmd", [1, 2], {"k": (3, 4)})
        result = round_trip(message)
        assert result == message
        assert type(result) is tuple
        assert type(result[1]) is list
        assert type(result[2]["k"]) is tuple


def ragged_payload(offsets, nbytes=None, *, rank=2, trailing=(2,),
                   count=None, dtype=b"<f8"):
    """A hand-built ``r`` value: ``count`` items (default: one per pair
    of ``offsets``) of ``dtype`` rows, ``nbytes`` of zeros as the body
    (default: what the last offset says)."""
    row_bytes = np.dtype(dtype.decode()).itemsize * int(np.prod(trailing))
    if nbytes is None:
        nbytes = offsets[-1] * row_bytes
    if count is None:
        count = len(offsets) - 1
    return (bytes([wire.WIRE_VERSION]) + b"r" + bytes([len(dtype)]) + dtype
            + bytes([rank]) + b"".join(map(_u64, trailing)) + _u32(count)
            + b"".join(map(_u64, offsets)) + _u64(nbytes)
            + bytes(min(nbytes, 1 << 10)))


#: hostile ``r`` header name -> (payload, what its WireError says)
HOSTILE_RAGGED = {
    "offsets_decrease": (ragged_payload([0, 3, 2]), "never decrease"),
    "offsets_start_past_0": (ragged_payload([1, 3]), "start at 0"),
    "last_offset_disagrees_with_body": (
        ragged_payload([0, 1 << 40], nbytes=32), "does not match"),
    "count_larger_than_payload": (
        ragged_payload([0, 2], count=2 ** 32 - 1), "do not fit"),
    "rank_0": (ragged_payload([0, 2], rank=0, trailing=()), "rank 0"),
    "offset_past_2_63": (ragged_payload([0, 1 << 63], nbytes=64),
                         r"past 2\*\*63"),
}


class TestRaggedForm:
    """A list of like arrays is one ``r`` value: one header, one offsets
    array, one buffer."""

    def test_a_list_of_like_arrays_is_one_dense_value(self):
        items = [np.arange(6.0).reshape(3, 2), np.empty((0, 2)),
                 np.asfortranarray(np.arange(8.0).reshape(4, 2))]
        payload = wire.encode(items)
        assert payload[1:2] == b"r"
        result = wire.decode(payload)
        assert type(result) is Ragged and len(result.blocks) == 1
        assert_same(result, items)
        base = result[0].base
        assert all(item.base is base for item in result)
        assert not base.flags.writeable

    def test_a_block_encodes_as_its_list_form(self):
        items = [np.arange(6.0).reshape(3, 2), np.empty((0, 2)),
                 np.arange(8.0).reshape(4, 2)]
        block = wire.decode(wire.encode(items))
        store = Ragged([block, [np.ones((2, 2))], block])
        for value in (block, store, Ragged()):
            assert wire.encode(value) == wire.encode(list(value))

    @pytest.mark.parametrize("items", [
        [],
        [np.arange(3.0), np.arange(3, dtype=np.float32)],     # two dtypes
        [np.zeros((2, 2)), np.zeros((2, 3))],                  # two shapes
        [np.zeros(2), np.zeros((2, 1))],                       # two ranks
        [np.array(1.0), np.array(2.0)],                        # rank 0
        [np.zeros(2), 1.0],                                    # not arrays
        [np.ma.masked_array(np.zeros(2))],                     # a subclass
    ], ids=["empty", "dtypes", "trailing", "ranks", "rank0", "mixed",
            "subclass"])
    def test_any_other_list_stays_generic(self, items):
        payload = wire.encode(items)
        assert payload[1:2] == b"l"

    def test_bytes_grow_by_one_offset_and_the_points_per_item(self):
        # no per-item header: N (L, 2) float64 arrays cost a constant,
        # 8 bytes of offset per item (plus one) and 16 per point
        cases = [[0], [1], [3, 0, 5], [32] * 512, [50, 1, 1, 7]]
        constants = {
            len(wire.encode([np.zeros((n, 2)) for n in lengths]))
            - 8 * (len(lengths) + 1) - 16 * sum(lengths)
            for lengths in cases
        }
        assert len(constants) == 1, constants

    @pytest.mark.parametrize("name", HOSTILE_RAGGED)
    def test_a_hostile_header_fails_before_any_allocation(self, name):
        payload, message = HOSTILE_RAGGED[name]
        tracemalloc.start()
        try:
            with pytest.raises(WireError, match=message):
                wire.decode(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 10, peak

    def test_zero_itemsize_dtype_is_a_wire_error(self):
        with pytest.raises(WireError, match="itemsize"):
            wire.decode(ragged_payload([0, 1], nbytes=0, dtype=b"|S0"))


class TestClosedVocabulary:
    """Outside the tag table there is no escape hatch: the sender fails
    (here), the receiver refuses (``TestDecodePayload``)."""

    @pytest.mark.parametrize("value", [
        {1},
        frozenset("ab"),
        object(),
        np.array([{"odd": 1}, None], dtype=object),
        np.zeros(3, dtype=[("x", "f8"), ("y", "i4")]),
        np.str_("numpy text"),
    ], ids=lambda value: type(value).__name__)
    def test_unencodable_values_fail_at_the_sender(self, value):
        with pytest.raises(WireError, match="not wire-encodable"):
            wire.encode(("reply", [value]))


class TestMalformedPayloads:
    def test_wrong_version_byte(self):
        with pytest.raises(WireError, match="version"):
            wire.decode(b"\x7f" + wire.encode(1)[1:])

    def test_a_version_1_peer_fails_on_the_first_byte(self):
        # version 1 had no dense list form: its payloads are refused
        # whole, by version, not mid-payload
        with pytest.raises(WireError, match="unsupported wire version 0x01"):
            wire.decode(b"\x01" + wire.encode([np.zeros((2, 2))])[1:])

    def test_unknown_tag(self):
        with pytest.raises(WireError, match="unknown wire tag"):
            wire.decode(bytes([wire.WIRE_VERSION]) + b"Z")

    def test_truncated_scalar(self):
        payload = wire.encode(1.5)
        with pytest.raises(WireError, match="truncated"):
            wire.decode(payload[:-3])

    def test_truncated_array_body_never_reaches_frombuffer(self):
        payload = wire.encode(np.arange(100, dtype=np.float64))
        with pytest.raises(WireError, match="truncated"):
            wire.decode(payload[:-8])

    def test_array_length_mismatch(self):
        # Corrupt the declared nbytes of an array payload: header says
        # one thing, shape*itemsize another.
        array = np.arange(4, dtype=np.float64)
        payload = bytearray(wire.encode(array))
        # layout: version, 'a', u8 len, dtype str, u8 ndim, u64 shape, u64 nbytes
        offset = 1 + 1 + 1 + len(array.dtype.str) + 1 + 8
        payload[offset:offset + 8] = (999).to_bytes(8, "big")
        with pytest.raises(WireError, match="does not match shape"):
            wire.decode(bytes(payload))

    def test_bad_dtype_string(self):
        array = np.arange(2, dtype=np.float64)
        payload = bytearray(wire.encode(array))
        payload[3:3 + len(array.dtype.str)] = b"?" * len(array.dtype.str)
        with pytest.raises(WireError, match="dtype"):
            wire.decode(bytes(payload))

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            wire.decode(wire.encode(42) + b"junk")

    def test_implausible_rank(self):
        payload = bytearray(wire.encode(np.arange(2.0)))
        dtype_len = len(np.dtype(np.float64).str)
        payload[1 + 1 + 1 + dtype_len] = 200  # ndim byte
        with pytest.raises(WireError, match="rank"):
            wire.decode(bytes(payload))

    def test_nesting_limit_is_the_same_in_both_directions(self):
        def nested(levels):
            value = None
            for _ in range(levels):
                value = [value]
            return value

        assert round_trip(nested(wire.MAX_DEPTH)) == nested(wire.MAX_DEPTH)
        with pytest.raises(WireError, match="nest deeper"):
            wire.encode(nested(wire.MAX_DEPTH + 1))

    @pytest.mark.parametrize("dtype_str", [b"<f8,<f8", b"(2,)<f8", b",", b"O",
                                           b"|V4", b"{'names':[]}"])
    def test_dtype_strings_numpy_would_parse_further_are_refused(
            self, dtype_str):
        payload = (bytes([wire.WIRE_VERSION]) + b"a"
                   + bytes([len(dtype_str)]) + dtype_str
                   + b"\x00" + struct.pack(">Q", 0))
        with pytest.raises(WireError, match="dtype"):
            wire.decode(payload)

    def test_string_scalar_is_refused_before_numpy_builds_it(self):
        # an out-of-range code point in a numpy str scalar is a SystemError
        payload = (bytes([wire.WIRE_VERSION]) + b"x\x03<U1"
                   + b"\xff\xff\xff\xff")
        with pytest.raises(WireError, match="string scalar"):
            wire.decode(payload)

    def test_zero_itemsize_dtype_is_a_wire_error(self):
        payload = bytearray(wire.encode(np.zeros(0, dtype="S1")))
        assert payload[3:6] == b"|S1"
        payload[5:6] = b"0"
        with pytest.raises(WireError, match="itemsize"):
            wire.decode(bytes(payload))


class TestDecodePayload:
    """decode_payload is the receiver's one door: FrameError or a value."""

    def test_payload_decodes(self):
        message = {"x": np.arange(3)}
        result = decode_payload(wire.encode(message))
        np.testing.assert_array_equal(result["x"], message["x"])

    def test_empty_payload_is_a_frame_error(self):
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(b"")

    def test_malformed_payload_is_a_frame_error(self):
        payload = wire.encode(np.arange(50))
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(payload[:-5])

    @pytest.mark.parametrize("name", HOSTILE)
    def test_hostile_payload_is_a_frame_error_and_nothing_runs(self, tmp_path,
                                                               name):
        # not RecursionError, not TypeError, not an unpickle, not a mapping
        sentinel = tmp_path / "ran"
        with pytest.raises(FrameError, match=HOSTILE[name]):
            decode_payload(hostile_payloads(sentinel)[name])
        assert not sentinel.exists()


# ----------------------------------------------------------------------
# Generated inputs: one law per test, derandomized and bounded
# ----------------------------------------------------------------------
PLAIN_DTYPES = [
    "?", "|i1", "|u1", "<i2", ">i2", "<u2", ">u2", "<i4", ">i4", "<u4",
    ">u4", "<i8", ">i8", "<u8", ">u8", "<f2", ">f2", "<f4", ">f4", "<f8",
    ">f8", "<c8", ">c8", "<c16", ">c16", "<M8[ns]", ">M8[D]", "<m8[s]",
    ">m8[ms]", "|S3", "<U2", ">U2",
]
LAYOUTS = [
    lambda a: a,
    np.asfortranarray,
    lambda a: a[::2] if a.ndim else a,       # strided: non-contiguous
    lambda a: a.T,
]

array_values = st.builds(
    lambda array, layout: layout(array),
    st.sampled_from(PLAIN_DTYPES).flatmap(lambda dtype: arrays(
        np.dtype(dtype), array_shapes(min_dims=0, max_dims=3, min_side=0,
                                      max_side=4))),
    st.sampled_from(LAYOUTS),
)
scalar_values = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True), st.text(max_size=8), st.binary(max_size=8),
    st.sampled_from([np.float32(1.5), np.int16(-3), np.uint64(2**63),
                     np.bool_(False), np.complex64(1 + 2j)]),
)
#: what a list of like arrays holds: one dtype and trailing shape, any
#: leading lengths and layouts that keep the trailing shape
like_arrays = st.tuples(
    st.sampled_from(PLAIN_DTYPES),
    array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
).flatmap(lambda spec: st.lists(
    st.builds(
        lambda array, layout: layout(array),
        st.integers(0, 4).flatmap(lambda n: arrays(np.dtype(spec[0]),
                                                    (n,) + spec[1])),
        st.sampled_from(LAYOUTS[:3]),
    ),
    min_size=1, max_size=4,
))
trees = st.recursive(
    st.one_of(scalar_values, array_values, like_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()),
                        children, max_size=3),
    ),
    max_leaves=10,
)


def assert_same(got, want):
    """Equality in value *and* type/dtype/shape; NaN equals itself. A
    list of like arrays comes back as the one packed block of them."""
    if type(got) is Ragged:
        assert type(want) is list and wire._is_ragged(want)
        got = list(got)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # both copy out in C order
    elif isinstance(want, np.generic):
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, float):
        assert struct.pack(">d", got) == struct.pack(">d", want)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_same(got_item, want_item)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    else:
        assert got == want


def decodes_or_frame_error(payload):
    try:
        decode_payload(payload)
    except FrameError:
        pass


#: the stack's own busiest messages, pinned beside the generated ones
KNN_REQUEST = ("knn", ([np.arange(6, dtype=np.float64).reshape(3, 2)],
                       10, None, None))
INGEST_SHARE = ("add", {1: ([np.arange(6, dtype=np.float64).reshape(3, 2),
                             np.arange(2, dtype=np.float64).reshape(1, 2)],
                            np.ones((2, 4), dtype=np.float32))})


@pytest.mark.parametrize("message, digest", [
    (KNN_REQUEST,
     "fda12fc68736832549df00c1afc30b50ca69440a32d74fcf0ea5a1960b8d2aad"),
    (INGEST_SHARE,
     "c7c4b9090c3ce32fa86414da0b876a10ea5e9f907028da97901afba8c386c993"),
], ids=["knn_request", "ingest_share"])
def test_the_busiest_frames_keep_their_bytes(message, digest):
    # pinned when decode began returning packed blocks: what a peer of
    # either build sends is byte for byte what it sent before, and so is
    # a decoded frame sent on again
    payload = wire.encode(message)
    assert hashlib.sha256(payload).hexdigest() == digest
    assert wire.encode(wire.decode(payload)) == payload


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trees)
def test_round_trip_is_lossless_in_value_dtype_and_shape(tree):
    assert_same(wire.decode(wire.encode(tree)), tree)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trees)
@example(KNN_REQUEST)
@example(INGEST_SHARE)
def test_every_strict_prefix_decodes_or_is_a_frame_error(tree):
    payload = wire.encode(tree)
    for length in range(len(payload)):
        decodes_or_frame_error(payload[:length])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trees)
@example(KNN_REQUEST)
@example(INGEST_SHARE)
def test_every_single_bit_flip_decodes_or_is_a_frame_error(tree):
    payload = bytearray(wire.encode(tree))
    for position in range(len(payload)):
        for bit in range(8):
            payload[position] ^= 1 << bit
            decodes_or_frame_error(bytes(payload))
            payload[position] ^= 1 << bit
