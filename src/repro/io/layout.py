"""One checksummed columnar layout for every snapshot file and segment.

Network files, score-index files and sharded-store files share this
layout, and a store placed in shared memory for a worker fleet is the
same bytes.  A snapshot has three parts, in order:

1. a 16-byte prefix: the magic ``b"REPROSNP"``, then the header length
   and the CRC32 of the header span, each a little-endian ``uint32``;
2. the header, UTF-8 JSON: the ``kind`` (``"network"``, ``"index"`` or
   ``"store"``), the ``format`` version, the kind's ``meta`` object,
   the body's ``size`` in bytes, and ``arrays``, one ``{"name",
   "dtype", "count", "offset", "crc32"}`` record per array;
3. the body: the arrays in header order, each at the first 64-byte
   boundary after the previous one (offsets count from the body's
   start, itself aligned), the body ending at the boundary after the
   last.

Every byte after the prefix lies in exactly one checksummed span: the
header through its zero padding, or one array through the padding
before the next.  So a flipped, missing or extra byte fails a check
before anything is decoded.  Arrays are one-dimensional, with an
explicit little-endian dtype from :data:`DTYPES`.  Ragged columns —
paper ids, author lists — are a values array plus ``int64`` end
offsets; ids are their UTF-8 bytes, so any id round-trips exactly,
including an empty one or one ending in NUL.

The header is untrusted input: every malformed prefix, header or array
table raises the error type the caller names, naming the file or
segment.  Decoded arrays are read-only zero-copy views of the buffer
they were read from; a loader that must not pin it copies what it
keeps.
"""

from __future__ import annotations

import glob
import json
import os
import reprlib
import struct
import zlib
from typing import BinaryIO, Mapping, Sequence

import numpy as np

from repro.chaos.points import chaos_point
from repro.errors import DataFormatError, ReproError

__all__ = [
    "DTYPES", "FORMAT_VERSION", "KINDS", "Decoded", "Encoded", "decode",
    "encode", "put_ids", "put_ragged", "read", "read_kind",
]

#: First bytes of every snapshot file and segment.
MAGIC = b"REPROSNP"

#: Version of the layout and of every kind's arrays and metadata.
FORMAT_VERSION = 1

#: Alignment of the body and of every array in it, in bytes.
ALIGN = 64

#: The dtypes an array may have.
DTYPES = ("<f8", "<i8", "|u1")

#: Snapshot kinds, with the names error messages use for them.
KINDS = {"network": "network", "index": "score index", "store": "score store"}

_PREFIX = struct.Struct("<8sII")  # magic, header length, header CRC32
_RECORD = ("name", "dtype", "count", "offset", "crc32")


def _aligned(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


class Encoded:
    """A snapshot ready to write: its byte chunks, in order, and their size."""

    __slots__ = ("_chunks", "size")

    def __init__(self, chunks: Sequence[bytes | memoryview]) -> None:
        self._chunks = tuple(chunks)
        self.size = sum(len(chunk) for chunk in self._chunks)

    def into(self, buffer: memoryview) -> None:
        """Copy the snapshot to the start of ``buffer``."""
        position = 0
        for chunk in self._chunks:
            buffer[position:position + len(chunk)] = chunk
            position += len(chunk)

    def save(self, path: str) -> None:
        """Write the snapshot to exactly ``path``, atomically.

        Temp file, fsync, rename: ``repro update`` overwrites the live
        index in place, and an interrupted write must never destroy the
        only copy of the serving state or leave a torn file behind.
        """
        # Temp debris from a *crashed* earlier save (the cleanup below
        # only runs on live exceptions, not on a kill) is swept here,
        # on the next commit attempt — the same recovery moment the
        # checkpoint protocol uses.
        for stale in glob.glob(f"{glob.escape(path)}.tmp-*"):
            os.remove(stale)
        temp_path = f"{path}.tmp-{os.getpid()}"
        try:
            with open(temp_path, "wb") as handle:
                for chunk in self._chunks:
                    handle.write(chunk)
                handle.flush()
                chaos_point("index.save.write")
                os.fsync(handle.fileno())
            chaos_point("index.save.fsync")
            os.replace(temp_path, path)
            chaos_point("index.save.replace")
        except Exception:
            # Deliberately narrower than a finally: an injected crash
            # (BaseException) must leave the same orphaned temp file a
            # real kill would, so the sweep above stays honest.
            if os.path.exists(temp_path):
                os.remove(temp_path)
            raise


def encode(
    kind: str, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> Encoded:
    """Lay out ``arrays``, in mapping order, under a ``kind`` header."""
    records, chunks, offset = [], [], 0
    for name, array in arrays.items():
        array = np.asarray(array)
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        if array.ndim != 1 or array.dtype.str not in DTYPES:
            raise ValueError(f"array {name!r} is not a 1-D {DTYPES} array")
        data = memoryview(array.view(np.uint8))
        padding = bytes(_aligned(len(data)) - len(data))
        checksum = zlib.crc32(padding, zlib.crc32(data))
        fields = (name, array.dtype.str, array.size, offset, checksum)
        records.append(dict(zip(_RECORD, fields)))
        chunks += [data, padding]
        offset += len(data) + len(padding)
    header = json.dumps(
        {"kind": kind, "format": FORMAT_VERSION, "meta": meta, "size": offset,
         "arrays": records},
        separators=(",", ":"),
    ).encode("utf-8")
    padding = bytes(_aligned(_PREFIX.size + len(header)) - _PREFIX.size - len(header))
    prefix = _PREFIX.pack(MAGIC, len(header), zlib.crc32(padding, zlib.crc32(header)))
    return Encoded([prefix, header, padding, *chunks])


def put_ragged(
    arrays: dict[str, np.ndarray], name: str, values: np.ndarray,
    lengths: Sequence[int],
) -> None:
    """Store a ragged column: ``name/values`` plus ``name/ends``."""
    arrays[f"{name}/values"] = values
    arrays[f"{name}/ends"] = np.cumsum(np.asarray(lengths, dtype=np.int64))


def put_ids(arrays: dict[str, np.ndarray], name: str, ids: Sequence[str]) -> None:
    """Store paper ids as a ragged column of their UTF-8 bytes."""
    encoded = [paper_id.encode("utf-8") for paper_id in ids]
    put_ragged(
        arrays, name, np.frombuffer(b"".join(encoded), dtype=np.uint8),
        [len(raw) for raw in encoded],
    )


class Decoded:
    """A checked snapshot: its metadata and the arrays not yet taken.

    Readers :meth:`take` each array they expect, with its dtype and
    count, then call :meth:`finish`, which refuses arrays nobody took.
    Every failure is ``error`` naming ``source``.
    """

    __slots__ = ("meta", "source", "error", "arrays")

    def __init__(
        self, meta: dict, source: str, error: type[ReproError],
        arrays: dict[str, np.ndarray],
    ) -> None:
        self.meta, self.source, self.error, self.arrays = meta, source, error, arrays

    def fail(self, message: str) -> ReproError:
        """The typed error for ``message``, naming the source."""
        return self.error(f"{self.source}: {message}")

    def take(self, name: str, dtype: str, count: int | None = None) -> np.ndarray:
        """Remove and return array ``name``, checking dtype and count."""
        array = self.arrays.pop(name, None)
        if array is None:
            raise self.fail(f"array {name!r} is missing")
        if array.dtype.str != dtype or count not in (None, array.size):
            raise self.fail(
                f"array {name!r} is {array.size} x {array.dtype.str}, "
                f"expected {'any' if count is None else count} x {dtype}"
            )
        return array

    def take_ragged(
        self, name: str, dtype: str, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(values, ends)`` of a ragged column of ``count`` rows."""
        values = self.take(f"{name}/values", dtype)
        ends = self.take(f"{name}/ends", "<i8", count)
        total = int(ends[-1]) if count else 0
        if total != values.size or np.any(np.diff(ends, prepend=0) < 0):
            raise self.fail(f"'{name}/ends' does not partition '{name}/values'")
        return values, ends

    def decode_ids(self, values: np.ndarray, ends: np.ndarray) -> list[str]:
        """Paper ids from a ragged column of their UTF-8 bytes."""
        raw, stops = values.tobytes(), ends.tolist()
        try:
            text = raw.decode("utf-8")
            if len(text) == len(raw):  # ASCII: byte offsets are str offsets
                return [text[a:b] for a, b in zip([0, *stops], stops)]
            return [raw[a:b].decode("utf-8") for a, b in zip([0, *stops], stops)]
        except UnicodeDecodeError:
            raise self.fail("paper ids are not valid UTF-8") from None

    def finish(self) -> None:
        """Refuse the arrays no reader took."""
        if self.arrays:
            raise self.fail(
                f"arrays {sorted(self.arrays)} are not declared in the "
                "metadata — the file was assembled inconsistently"
            )


def _header(
    view: memoryview, kind: str | None, source: str, error: type[ReproError]
) -> tuple[dict, int]:
    """The checked header of a snapshot, and where its body starts.

    ``view`` must hold at least the prefix and the header span.
    """
    expected = "snapshot" if kind is None else KINDS[kind]
    if len(view) < _PREFIX.size:
        raise error(f"{source}: truncated to {len(view)} bytes, inside the prefix")
    magic, length, checksum = _PREFIX.unpack_from(view)
    if magic != MAGIC:
        raise error(f"{source}: not a repro {expected} file (bad magic)")
    body = _aligned(_PREFIX.size + length)
    if len(view) < body:
        raise error(f"{source}: truncated to {len(view)} bytes, inside the header")
    if zlib.crc32(view[_PREFIX.size:body]) != checksum:
        raise error(f"{source}: header checksum mismatch")
    try:
        text = bytes(view[_PREFIX.size:_PREFIX.size + length]).decode("utf-8")
        header = json.loads(text)
    except UnicodeDecodeError:
        raise error(f"{source}: header is not UTF-8") from None
    except ValueError as exc:
        raise error(f"{source}: header is not valid JSON ({exc})") from None
    except RecursionError:
        raise error(f"{source}: header is nested too deeply") from None
    if not isinstance(header, dict):
        raise error(f"{source}: header is a {type(header).__name__}, not an object")
    found, version = header.get("kind"), header.get("format")
    if not isinstance(found, str) or found not in KINDS:
        raise error(f"{source}: unknown snapshot kind {reprlib.repr(found)}")
    if type(version) is not int or version != FORMAT_VERSION:
        raise error(
            f"{source}: unsupported format version {reprlib.repr(version)} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if kind is not None and found != kind:
        raise error(f"{source}: not a repro {expected} (it holds a {KINDS[found]})")
    for field, type_ in (("meta", dict), ("size", int), ("arrays", list)):
        if type(header.get(field)) is not type_:
            raise error(f"{source}: header field {field!r} is not a {type_.__name__}")
    return header, body


def decode(
    buffer: bytes | memoryview, *, kind: str | None, source: str,
    error: type[ReproError],
) -> Decoded:
    """Check every span of ``buffer`` and map its arrays.

    ``kind`` is the kind the caller reads (``None`` accepts any).
    """
    spans = []
    with memoryview(buffer) as view:
        header, body = _header(view, kind, source, error)
        size = header["size"]
        if len(view) - body != size:
            raise error(
                f"{source}: header declares a {size}-byte body, "
                f"found {len(view) - body} bytes"
            )
        offset, names = 0, set()
        for record in header["arrays"]:
            fields = [record.get(k) for k in _RECORD] if type(record) is dict else []
            if (
                [type(value) for value in fields] != [str, str, int, int, int]
                or fields[1] not in DTYPES
                or fields[2] < 0
                or fields[0] in names
            ):
                raise error(f"{source}: malformed array record {reprlib.repr(record)}")
            name, dtype, count, start, checksum = fields
            names.add(name)
            # The placement is canonical, so one comparison refuses
            # unaligned, overlapping and out-of-range offsets alike.
            if start != offset:
                raise error(f"{source}: array {name!r} at offset {start}, not {offset}")
            end = start + count * np.dtype(dtype).itemsize
            if end > size:
                raise error(f"{source}: array {name!r} runs past the {size}-byte body")
            spans.append((name, dtype, count, start, checksum))
            offset = _aligned(end)
        if offset != size:
            raise error(f"{source}: arrays end at {offset}, the body at {size}")
        stops = [span[3] for span in spans[1:]] + [size]
        for (name, _, _, start, checksum), stop in zip(spans, stops):
            if zlib.crc32(view[body + start:body + stop]) != checksum:
                raise error(f"{source}: checksum mismatch in array {name!r}")
    arrays = {}
    for name, dtype, count, start, _ in spans:
        array = np.frombuffer(buffer, dtype=dtype, count=count, offset=body + start)
        array.setflags(write=False)
        arrays[name] = array
    return Decoded(header["meta"], source, error, arrays)


def _open(path: str, error: type[ReproError]) -> BinaryIO:
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise error(f"file not found: {path}") from None
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def read(path: str, *, kind: str, error: type[ReproError]) -> Decoded:
    """Read and :func:`decode` the snapshot file at ``path``."""
    with _open(path, error) as handle:
        data = handle.read()
    return decode(data, kind=kind, source=path, error=error)


def read_kind(path: str) -> str:
    """The kind of the snapshot file at ``path``, from its checked header.

    Reads the prefix and the header span only; any failure is a
    :class:`~repro.errors.DataFormatError`.
    """
    with _open(path, DataFormatError) as handle:
        head = handle.read(_PREFIX.size)
        if len(head) == _PREFIX.size and head.startswith(MAGIC):
            length = _PREFIX.unpack(head)[1]
            head += handle.read(_aligned(_PREFIX.size + length) - _PREFIX.size)
    return _header(memoryview(head), None, path, DataFormatError)[0]["kind"]
