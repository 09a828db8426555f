"""Typed binary wire codec for the serving stack's framed RPC.

The one payload format between serving peers.  A payload is a one-byte
format version followed by a tagged value tree::

    +---------+-----------------------------------------------------+
    | version | tagged value                                        |
    | 0x02    | tag byte + tag-specific body (recursive)            |
    +---------+-----------------------------------------------------+

Tags (one ASCII byte each):

========  ============================================================
``N``     ``None``
``T``     ``True``
``F``     ``False``
``i``     int fitting a signed 64-bit big-endian word
``I``     big int: u32 length + signed big-endian two's-complement
``f``     float: IEEE-754 double, big-endian
``s``     str: u32 byte length + UTF-8
``b``     bytes: u64 length + raw
``l``     list: u32 count + elements
``t``     tuple: u32 count + elements
``d``     dict: u32 count + alternating key/value trees
``a``     ndarray: u8 dtype-str length + dtype-str + u8 ndim +
          u64 x ndim shape + u64 nbytes + raw C-order buffer
``x``     numpy scalar: u8 dtype-str length + dtype-str + item bytes
``r``     list of like arrays: u8 dtype-str length + dtype-str + u8 rank +
          u64 x (rank - 1) trailing dims + u32 count + u64 x (count + 1)
          offsets along axis 0 + u64 nbytes + every item's C-order bytes
========  ============================================================

A ``list`` of one or more plain ``np.ndarray`` items (exact type) that
share one dtype, one rank >= 1 and one trailing shape — a batch of
trajectories, the stack's busiest payload — takes the dense form ``r``:
one header, one offsets array and one buffer instead of one ``a``
header per item. A :class:`~repro.trajectory.trajectory.Ragged` is
encoded exactly as its list form, each packed block's base written as
one slice. ``r`` decodes to a read-only ``Ragged`` of one packed block:
the base array and the offsets are zero-copy views of the payload, and
an item — its dtype, shape and values as sent — is a view made when it
is read. Any other list is ``l``. The decoder checks the whole ``r``
header — rank, offsets that start at 0, never decrease and fit the
payload, a body of exactly ``last offset x row bytes`` — before it
builds the base array.

That vocabulary is closed: the set of types it carries is the one
above, ``r`` being only a denser spelling of a list. A value outside it
(a set, a custom class, an array whose dtype carries Python objects or
structured fields) raises :class:`WireError` in :func:`encode`, at the
sender, and any other first byte or tag is a :class:`WireError` in
:func:`decode`.  Nothing on the
wire is ever handed to :mod:`pickle`.  Containers nest at most
:data:`MAX_DEPTH` levels in either direction.

Arrays are encoded from a C-contiguous ``memoryview`` (no intermediate
``tobytes`` copy for contiguous native-order input) and decoded as
zero-copy ``np.frombuffer`` views over the received payload. Every byte
of an array travels inside the payload: there is no out-of-band path.
"""

from __future__ import annotations

import re
import struct
from typing import Any, List

import numpy as np

from ..trajectory.trajectory import Ragged

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "MAX_DEPTH",
    "encode",
    "decode",
]

#: first byte of every payload produced by :func:`encode`; an older peer
#: fails on it, naming the version, instead of on a tag it lacks
WIRE_VERSION = 0x02

#: containers may nest this deep (the protocol's own messages stay under
#: 6); a hostile frame must fail typed, not exhaust the interpreter stack
MAX_DEPTH = 64


class WireError(ValueError):
    """Raised for payloads this codec cannot encode or decode."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_BIGINT = b"I"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_ARRAY = b"a"
_TAG_SCALAR = b"x"
_TAG_RAGGED = b"r"

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: the dtype of ragged offsets (a byte-swapped dtype is a new object per
#: ``np.dtype`` call, and every decoded block would keep its own)
_OFFSETS = np.dtype(">u8")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# ---------------------------------------------------------------------------
# encoding


def _dtype_wire_str(dtype: np.dtype) -> bytes:
    text = dtype.str.encode("ascii")
    if len(text) > 255:  # pragma: no cover - no such numpy dtype
        raise WireError(f"dtype string too long: {dtype!r}")
    return text


def _plain_dtype(dtype: np.dtype) -> bool:
    """dtypes whose ``.str`` round-trips and whose buffer is raw data."""
    return not dtype.hasobject and dtype.names is None and dtype.kind != "V"


def _array_body(array: np.ndarray) -> Any:
    """Raw C-order bytes of *array* as a buffer (no copy if possible)."""
    if array.nbytes == 0:
        return b""
    flat = np.ascontiguousarray(array).reshape(-1)
    try:
        return memoryview(flat.view(np.uint8))
    except (ValueError, TypeError):  # pragma: no cover - exotic layout
        return flat.tobytes()


def _encode_array(array: np.ndarray, out: List[Any]) -> None:
    dtype_str = _dtype_wire_str(array.dtype)
    out.append(_TAG_ARRAY)
    out.append(_U8.pack(len(dtype_str)))
    out.append(dtype_str)
    out.append(_U8.pack(array.ndim))
    for dim in array.shape:
        out.append(_U64.pack(dim))
    out.append(_U64.pack(array.nbytes))
    out.append(_array_body(array))


def _is_ragged(arrays: list) -> bool:
    """Whether *arrays* take the dense form: one or more plain arrays of
    one dtype, one rank >= 1 and one trailing shape."""
    if not arrays:
        return False
    first = arrays[0]
    if (type(first) is not np.ndarray or first.ndim == 0
            or not _plain_dtype(first.dtype)):
        return False
    dtype, trailing = first.dtype, first.shape[1:]
    return all(type(item) is np.ndarray and item.dtype == dtype
               and item.shape[1:] == trailing for item in arrays)


def _encode_ragged(arrays: list, lengths, out: List[Any]) -> None:
    """``r`` of items whose ``lengths`` tile the rows of ``arrays``."""
    first = arrays[0]
    dtype_str = _dtype_wire_str(first.dtype)
    offsets = np.zeros(len(lengths) + 1, dtype=_OFFSETS)
    np.cumsum(lengths, out=offsets[1:])
    out.append(_TAG_RAGGED)
    out.append(_U8.pack(len(dtype_str)))
    out.append(dtype_str)
    out.append(_U8.pack(first.ndim))
    for dim in first.shape[1:]:
        out.append(_U64.pack(dim))
    out.append(_U32.pack(len(lengths)))
    out.append(offsets.tobytes())
    out.append(_U64.pack(sum(array.nbytes for array in arrays)))
    # a C-contiguous array is its own raw buffer to ``bytes.join``
    out.extend(array if array.flags.c_contiguous else _array_body(array)
               for array in arrays)


def _encode_value(value: Any, out: List[Any], depth: int) -> None:
    if depth > MAX_DEPTH:
        raise WireError(f"containers nest deeper than {MAX_DEPTH} levels")
    # np.generic before bool/int/float: numpy scalars subclass Python
    # numbers (np.float64 is a float) and would lose their dtype.
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, np.ndarray):
        if _plain_dtype(value.dtype):
            _encode_array(value, out)
        else:
            raise WireError(
                f"ndarray of dtype {value.dtype} is not wire-encodable")
    elif isinstance(value, np.generic):
        dtype = np.dtype(type(value))
        if _plain_dtype(dtype) and dtype.kind not in "OUS":
            dtype_str = _dtype_wire_str(dtype)
            out.append(_TAG_SCALAR)
            out.append(_U8.pack(len(dtype_str)))
            out.append(dtype_str)
            out.append(value.tobytes())
        else:
            raise WireError(
                f"{type(value).__name__} is not wire-encodable")
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_TAG_INT)
            out.append(_I64.pack(value))
        else:
            body = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            out.append(_TAG_BIGINT)
            out.append(_U32.pack(len(body)))
            out.append(body)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(_U32.pack(len(body)))
        out.append(body)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out.append(_U64.pack(len(value)))
        out.append(value)
    elif type(value) is list or type(value) is Ragged:
        arrays = value.arrays() if type(value) is Ragged else value
        if _is_ragged(arrays):
            _encode_ragged(arrays, value.lengths() if type(value) is Ragged
                           else [len(item) for item in value], out)
            return
        out.append(_TAG_LIST)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, depth + 1)
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, depth + 1)
    elif type(value) is dict:
        out.append(_TAG_DICT)
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out, depth + 1)
            _encode_value(item, out, depth + 1)
    else:
        raise WireError(f"{type(value).__name__} is not wire-encodable")


def encode(message: Any) -> bytes:
    """Encode *message* into a versioned binary payload."""
    out: List[Any] = [_U8.pack(WIRE_VERSION)]
    _encode_value(message, out, 0)
    return b"".join(out)


# ---------------------------------------------------------------------------
# decoding


class _Reader:
    __slots__ = ("view", "pos", "end")

    def __init__(self, view: memoryview):
        self.view = view
        self.pos = 0
        self.end = len(view)

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > self.end:
            raise WireError(
                f"truncated payload: wanted {n} bytes at offset "
                f"{self.pos} of {self.end}"
            )
        chunk = self.view[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def array(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """The next bytes as an array of ``shape`` over the whole payload's
        view: no copy, and no buffer slice of its own to keep alive."""
        start = self.pos
        count = 1
        for dim in shape:
            count *= dim
        self.take(count * dtype.itemsize)
        try:
            return np.ndarray(shape, dtype, buffer=self.view, offset=start)
        except (TypeError, ValueError, OverflowError) as exc:
            raise WireError(
                f"array of shape {shape}, dtype {dtype}: {exc}") from exc

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]


#: the shape of every ``dtype.str`` a plain dtype produces; ``np.dtype``
#: itself also parses comma lists, shapes and dict literals out of a
#: string — none of that is reachable from a frame
_DTYPE_STR = re.compile(rb"[<>|][biufcmMSU][0-9]+(\[[0-9]*[A-Za-z]+\])?")


def _read_dtype(reader: _Reader) -> np.dtype:
    length = reader.u8()
    text = bytes(reader.take(length))
    if _DTYPE_STR.fullmatch(text) is None:
        raise WireError(f"bad dtype in payload: {text!r}")
    try:
        dtype = np.dtype(text.decode("ascii"))
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad dtype in payload: {text!r}") from exc
    if not _plain_dtype(dtype):
        raise WireError(f"refusing non-plain wire dtype {dtype!r}")
    if dtype.itemsize == 0:
        raise WireError(f"refusing zero-itemsize dtype {dtype!r}")
    return dtype


def _read_shape(reader: _Reader) -> tuple:
    ndim = reader.u8()
    if ndim > 32:  # numpy's own NPY_MAXDIMS guard
        raise WireError(f"implausible array rank {ndim}")
    return tuple(reader.u64() for _ in range(ndim))


def _decode_array(reader: _Reader) -> np.ndarray:
    dtype = _read_dtype(reader)
    shape = _read_shape(reader)
    nbytes = reader.u64()
    count = 1
    for dim in shape:
        count *= dim
    if nbytes != count * dtype.itemsize:
        raise WireError(
            f"array body of {nbytes} bytes does not match shape "
            f"{shape} of dtype {dtype}"
        )
    # zero-copy: the view aliases the received payload buffer
    return reader.array(shape, dtype)


def _decode_ragged(reader: _Reader) -> Ragged:
    dtype = _read_dtype(reader)
    rank = reader.u8()
    if not 1 <= rank <= 32:
        raise WireError(f"implausible ragged rank {rank}")
    trailing = tuple(reader.u64() for _ in range(rank - 1))
    row_bytes = dtype.itemsize
    for dim in trailing:
        row_bytes *= dim
    count = reader.u32()
    left = reader.end - reader.pos
    if 8 * (count + 1) > left:
        raise WireError(
            f"{count + 1} ragged offsets do not fit in the {left} bytes left")
    # a view over bytes known to be there: reading it allocates nothing
    offsets = reader.array((count + 1,), _OFFSETS)
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise WireError("ragged offsets must start at 0 and never decrease")
    rows = int(offsets[-1])
    if rows >= 1 << 63:
        raise WireError(f"ragged offset {rows} is past 2**63")
    nbytes = reader.u64()
    if nbytes != rows * row_bytes:
        raise WireError(
            f"ragged body of {nbytes} bytes does not match {rows} rows "
            f"of {row_bytes} bytes")
    base = reader.array((rows,) + trailing, dtype)
    base.flags.writeable = False
    return Ragged([(base, offsets)])


def _decode_value(reader: _Reader, depth: int) -> Any:
    if depth > MAX_DEPTH:
        raise WireError(f"containers nest deeper than {MAX_DEPTH} levels")
    tag = bytes(reader.take(1))
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return _I64.unpack(reader.take(8))[0]
    if tag == _TAG_BIGINT:
        return int.from_bytes(bytes(reader.take(reader.u32())), "big", signed=True)
    if tag == _TAG_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        try:
            return bytes(reader.take(reader.u32())).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("undecodable string in payload") from exc
    if tag == _TAG_BYTES:
        return bytes(reader.take(reader.u64()))
    if tag == _TAG_LIST:
        return [_decode_value(reader, depth + 1)
                for _ in range(reader.u32())]
    if tag == _TAG_TUPLE:
        return tuple(_decode_value(reader, depth + 1)
                     for _ in range(reader.u32()))
    if tag == _TAG_DICT:
        count = reader.u32()
        result = {}
        for _ in range(count):
            key = _decode_value(reader, depth + 1)
            value = _decode_value(reader, depth + 1)
            try:
                result[key] = value
            except TypeError as exc:
                raise WireError(f"unhashable dict key: {exc}") from exc
        return result
    if tag == _TAG_ARRAY:
        return _decode_array(reader)
    if tag == _TAG_RAGGED:
        return _decode_ragged(reader)
    if tag == _TAG_SCALAR:
        dtype = _read_dtype(reader)
        if dtype.kind in "US":  # never sent; a bad code point is fatal
            raise WireError(f"refusing string scalar dtype {dtype!r}")
        body = reader.take(dtype.itemsize)
        return np.frombuffer(body, dtype=dtype, count=1)[0]
    raise WireError(f"unknown wire tag {tag!r}")


def decode(payload) -> Any:
    """Decode a payload produced by :func:`encode` (any buffer: ``bytes``,
    or the ``uint8`` array a transport received the frame into — decoded
    arrays are views over it).

    Raises :class:`WireError` on any malformed input — a short body is
    caught by bounds checks before it could reach ``np.frombuffer``.
    """
    reader = _Reader(memoryview(payload))
    version = reader.u8()
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version:#04x}")
    value = _decode_value(reader, 0)
    if reader.pos != reader.end:
        raise WireError(
            f"{reader.end - reader.pos} trailing bytes after payload"
        )
    return value
