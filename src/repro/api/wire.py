"""Typed binary wire codec for the serving stack's framed RPC.

The one payload format between serving peers.  A payload is a one-byte
format version followed by a tagged value tree::

    +---------+-----------------------------------------------------+
    | version | tagged value                                        |
    | 0x01    | tag byte + tag-specific body (recursive)            |
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
``M``     shared-memory ndarray: u8 name length + segment name +
          u8 dtype-str length + dtype-str + u8 ndim + u64 x ndim shape
========  ============================================================

That vocabulary is closed: a value outside it (a set, a custom class,
an array whose dtype carries Python objects or structured fields) raises
:class:`WireError` in :func:`encode`, at the sender, and any other first
byte or tag is a :class:`WireError` in :func:`decode`.  Nothing on the
wire is ever handed to :mod:`pickle`.  Containers nest at most
:data:`MAX_DEPTH` levels in either direction.

Arrays are encoded from a C-contiguous ``memoryview`` (no intermediate
``tobytes`` copy for contiguous native-order input) and decoded as
zero-copy ``np.frombuffer`` views over the received payload.

Shared memory: an :class:`ShmPool` attached to the sending side moves
large arrays through ``multiprocessing.shared_memory`` segments so the
buffer never crosses the pipe — the frame carries only the segment name,
dtype, and shape (tag ``M``).  Segment lifecycle is sender-owned: the
pool keeps every segment it created and ``release()`` closes + unlinks
them once the peer has provably consumed the message (after the routed
replies are read, or — for a worker's reply — when the next request
arrives).  Unlinking while the receiver still maps the segment is safe
on POSIX: the memory persists until the last mapping closes, which the
receiver does via a ``weakref.finalize`` hook on the decoded view.
:func:`decode` attaches a segment only when its caller asks for it
(``attach_shm=True``, which only a pipe endpoint does): a name arriving
over a socket is a malformed frame.  Segments are named
``repro_wire_<pid>_<seq>`` so smoke tests can assert ``/dev/shm`` holds
no litter after a run.
"""

from __future__ import annotations

import itertools
import os
import re
import struct
import threading
import weakref
from typing import Any, List, Optional

import numpy as np
from multiprocessing import shared_memory

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "ShmPool",
    "SHM_NAME_PREFIX",
    "DEFAULT_SHM_THRESHOLD",
    "MAX_DEPTH",
    "encode",
    "decode",
]

#: first byte of every payload produced by :func:`encode`
WIRE_VERSION = 0x01

#: shared-memory segments are named ``<prefix>_<pid>_<seq>``
SHM_NAME_PREFIX = "repro_wire"

#: arrays at or above this many bytes ride shared memory when a pool is
#: attached; below it the segment bookkeeping costs more than the copy
DEFAULT_SHM_THRESHOLD = 64 * 1024

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
_TAG_SHM = b"M"

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# ---------------------------------------------------------------------------
# shared-memory pool (sender side)

_SHM_SEQ = itertools.count()


class ShmPool:
    """Sender-owned allocator for shared-memory array segments.

    ``store`` copies an array into a fresh named segment and records it;
    ``release`` closes and unlinks everything stored since the previous
    release.  The caller releases only once the receiver has provably
    attached (request/response alternation makes that point explicit:
    after the routed replies are read, or when the next request
    arrives on a worker).  Unlink-with-open-mappings is safe on POSIX,
    so a receiver still holding views just keeps its private mapping
    alive until the views die.
    """

    def __init__(self, threshold: int = DEFAULT_SHM_THRESHOLD):
        self.threshold = int(threshold)
        self.hits = 0
        self.bytes_shared = 0
        self._segments: List[shared_memory.SharedMemory] = []
        self._lock = threading.Lock()
        # Start the resource tracker *now*, in whichever process builds
        # the pool: ShardedSimilarityService constructs its pool before
        # forking workers, so parent and workers share one tracker and
        # every register (create or attach) is balanced by the creator's
        # unlink-unregister in the same cache.  Forking first would give
        # each process a private tracker that never hears about the
        # other side's unlinks and warns about "leaked" segments at exit.
        try:
            from multiprocessing.resource_tracker import ensure_running

            ensure_running()
        except Exception:  # pragma: no cover - tracker internals moved
            pass

    def wants(self, array: np.ndarray) -> bool:
        """True when *array* should travel via shared memory."""
        return array.nbytes >= self.threshold

    def store(self, array: np.ndarray) -> str:
        """Copy *array* into a new segment; returns the segment name."""
        size = max(1, array.nbytes)
        seg = None
        while seg is None:
            name = f"{SHM_NAME_PREFIX}_{os.getpid()}_{next(_SHM_SEQ)}"
            try:
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except FileExistsError:  # stale name from a recycled pid
                continue
        if array.nbytes:
            dst = np.frombuffer(
                seg.buf, dtype=array.dtype, count=array.size
            ).reshape(array.shape)
            dst[...] = array
        with self._lock:
            self._segments.append(seg)
            self.hits += 1
            self.bytes_shared += array.nbytes
        return seg.name

    def release(self) -> None:
        """Close + unlink every segment stored since the last release."""
        _sweep_attachments()
        with self._lock:
            segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # a pool is released on close; the alias keeps call sites readable
    close = release


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a sender-owned segment without adopting its lifetime.

    On 3.13+ ``track=False`` skips resource-tracker registration.  Older
    interpreters register attachments too; :class:`ShmPool` guarantees
    the tracker is shared across the process tree (see ``__init__``),
    where the name cache is a set — the duplicate registration is
    harmless and the creator's ``unlink`` still unregisters cleanly.
    An explicit unregister here would instead *remove* the creator's
    entry and make its later unlink warn.  Shm payloads never leave the
    process tree (pipes only), so the foreign-tracker spurious-unlink
    hazard does not arise.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


# Receiver attachments whose close() failed because a view's death was
# still in progress: ``weakref.finalize`` callbacks fire during the
# array's deallocation, *before* its buffer export is released, so the
# first close attempt can raise BufferError.  Parking the SharedMemory
# object here keeps its __del__ from retrying (and printing an ignored
# exception) mid-dealloc; the sweep retries once the view is fully gone.
_PENDING_CLOSE: List[shared_memory.SharedMemory] = []
_PENDING_LOCK = threading.Lock()


def _close_attachment(shm: shared_memory.SharedMemory) -> bool:
    try:
        shm.close()
        return True
    except BufferError:
        return False


def _on_view_dead(shm: shared_memory.SharedMemory) -> None:
    if not _close_attachment(shm):
        with _PENDING_LOCK:
            _PENDING_CLOSE.append(shm)


def _sweep_attachments() -> None:
    """Retry deferred attachment closes (views now fully deallocated)."""
    with _PENDING_LOCK:
        pending = _PENDING_CLOSE[:]
        del _PENDING_CLOSE[:]
    still_open = [shm for shm in pending if not _close_attachment(shm)]
    if still_open:  # pragma: no cover - a view resurrected mid-sweep
        with _PENDING_LOCK:
            _PENDING_CLOSE.extend(still_open)


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


def _encode_array(array: np.ndarray, out: List[Any], pool: Optional[ShmPool]) -> None:
    dtype_str = _dtype_wire_str(array.dtype)
    if pool is not None and pool.wants(array):
        name = pool.store(array).encode("ascii")
        out.append(_TAG_SHM)
        out.append(_U8.pack(len(name)))
        out.append(name)
        out.append(_U8.pack(len(dtype_str)))
        out.append(dtype_str)
        out.append(_U8.pack(array.ndim))
        for dim in array.shape:
            out.append(_U64.pack(dim))
        return
    out.append(_TAG_ARRAY)
    out.append(_U8.pack(len(dtype_str)))
    out.append(dtype_str)
    out.append(_U8.pack(array.ndim))
    for dim in array.shape:
        out.append(_U64.pack(dim))
    out.append(_U64.pack(array.nbytes))
    out.append(_array_body(array))


def _encode_value(value: Any, out: List[Any], pool: Optional[ShmPool],
                  depth: int) -> None:
    if depth > MAX_DEPTH:
        raise WireError(f"containers nest deeper than {MAX_DEPTH} levels")
    # np.generic before bool/int/float: numpy scalars subclass Python
    # numbers (np.float64 is a float) and would lose their dtype.
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, np.ndarray):
        if _plain_dtype(value.dtype):
            _encode_array(value, out, pool)
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
    elif type(value) is list:
        out.append(_TAG_LIST)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, pool, depth + 1)
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, pool, depth + 1)
    elif type(value) is dict:
        out.append(_TAG_DICT)
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out, pool, depth + 1)
            _encode_value(item, out, pool, depth + 1)
    else:
        raise WireError(f"{type(value).__name__} is not wire-encodable")


def encode(message: Any, pool: Optional[ShmPool] = None) -> bytes:
    """Encode *message* into a versioned binary payload.

    With *pool*, arrays at or above the pool threshold are copied into
    shared-memory segments and only referenced in the payload; the
    caller owns releasing the pool once the peer has consumed them.
    """
    out: List[Any] = [_U8.pack(WIRE_VERSION)]
    _encode_value(message, out, pool, 0)
    return b"".join(out)


# ---------------------------------------------------------------------------
# decoding


class _Reader:
    __slots__ = ("view", "pos", "end", "attach_shm")

    def __init__(self, view: memoryview, attach_shm: bool):
        self.view = view
        self.pos = 0
        self.end = len(view)
        self.attach_shm = attach_shm

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > self.end:
            raise WireError(
                f"truncated payload: wanted {n} bytes at offset "
                f"{self.pos} of {self.end}"
            )
        chunk = self.view[self.pos:self.pos + n]
        self.pos += n
        return chunk

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
    body = reader.take(nbytes)
    try:
        # zero-copy: the view aliases the received payload buffer
        return np.frombuffer(body, dtype=dtype, count=count).reshape(shape)
    except ValueError as exc:  # zero itemsize, a dimension past ssize_t
        raise WireError(f"array of shape {shape}, dtype {dtype}: {exc}") from exc


def _decode_shm(reader: _Reader) -> np.ndarray:
    if not reader.attach_shm:
        # only a pipe peer shares this machine's /dev/shm by construction
        raise WireError("shared-memory tag on a transport without one")
    name_len = reader.u8()
    try:
        name = bytes(reader.take(name_len)).decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError("undecodable shared-memory segment name") from exc
    dtype = _read_dtype(reader)
    shape = _read_shape(reader)
    count = 1
    for dim in shape:
        count *= dim
    try:
        shm = _attach_segment(name)
    except (OSError, ValueError) as exc:  # missing, or not a valid name
        raise WireError(f"shared-memory segment {name!r} unavailable") from exc
    if count * dtype.itemsize > len(shm.buf):
        _close_attachment(shm)
        raise WireError(
            f"segment {name!r} holds {len(shm.buf)} bytes, payload "
            f"claims shape {shape} of dtype {dtype}"
        )
    array = np.frombuffer(shm.buf, dtype=dtype, count=count).reshape(shape)
    # the receiver's mapping lives exactly as long as the decoded view
    weakref.finalize(array, _on_view_dead, shm)
    return array


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
    if tag == _TAG_SHM:
        return _decode_shm(reader)
    if tag == _TAG_SCALAR:
        dtype = _read_dtype(reader)
        if dtype.kind in "US":  # never sent; a bad code point is fatal
            raise WireError(f"refusing string scalar dtype {dtype!r}")
        body = reader.take(dtype.itemsize)
        return np.frombuffer(body, dtype=dtype, count=1)[0]
    raise WireError(f"unknown wire tag {tag!r}")


def decode(payload, attach_shm: bool = False) -> Any:
    """Decode a payload produced by :func:`encode`.

    Raises :class:`WireError` on any malformed input — a short body is
    caught by bounds checks before it could reach ``np.frombuffer``.
    *attach_shm* permits ``M`` tags to map the named ``/dev/shm``
    segment; leave it off for bytes that may come from another machine.
    """
    _sweep_attachments()
    view = memoryview(payload)
    reader = _Reader(view, attach_shm)
    version = reader.u8()
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version:#04x}")
    value = _decode_value(reader, 0)
    if reader.pos != reader.end:
        raise WireError(
            f"{reader.end - reader.pos} trailing bytes after payload"
        )
    return value
