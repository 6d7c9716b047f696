"""The one crash-safe writer and the one JSON parser for every artifact, and the versioned
binary container (named arrays plus a JSON meta block) for checkpoints and precomputed embeddings.

The container is fixed-endian and carries no timestamps, so identical content
always produces identical bytes.
"""

import contextlib
import json
import math
import os
import secrets
import struct

import numpy as np

MAGIC = b"SPARRAY1"
VERSION = 1

_ALLOWED_DTYPES = {"<f8", "<f4", "<i8", "<i4"}


class CorruptContainer(ValueError):
    """The file is not a well-formed array container."""

    def __init__(self, path, offset: int, reason: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path}: corrupt array container at byte offset {offset}: {reason}")


class TruncatedContainer(CorruptContainer):
    """The file ends before the bytes its header promises."""


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", *, durable: bool = True, **open_kwargs):
    """Yield a handle on a new temp file beside `path`, then rename it over `path`.

    A durable write fsyncs the file before the rename and its directory after it, so
    the new content outlives a power cut once this returns. `durable=False` calls no
    fsync, for files that carry their own checksum and can be made again (explain
    cache entries): after a crash such a file may be torn or empty. On any exception
    the temp file is unlinked and `path` keeps its old content."""
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)  # like open(): 0666 & ~umask
    try:
        with fh:
            yield fh
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if durable:  # the rename itself is a change to the directory
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def json_value(data: bytes | str):
    """The JSON value in `data`, bytes decoding as strict UTF-8; every failure, be it bad UTF-8,
    bad JSON, an integer past the digit limit or too deep a nesting, raises a ValueError."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from exc


def write_json(path, record) -> None:
    """Write `record` as indent-2, key-sorted JSON plus a newline, through atomic_open."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays, little-endian, and an optional JSON-serializable meta dict; an array
    of a dtype outside _ALLOWED_DTYPES raises a ValueError naming it, and nothing is written."""
    meta_bytes = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], order="C")  # a 0-d array stays 0-d
            dtype = arr.dtype.newbyteorder("<")
            if dtype.str not in _ALLOWED_DTYPES:
                raise ValueError(f"array {name!r} has dtype {arr.dtype.str}, not one of "
                                 f"{sorted(_ALLOWED_DTYPES)}")
            arr = arr.astype(dtype, copy=False)
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            dtype_bytes = arr.dtype.str.encode("ascii")
            fh.write(struct.pack("<B", len(dtype_bytes)))
            fh.write(dtype_bytes)
            fh.write(struct.pack("<B", arr.ndim))
            for size in arr.shape:
                fh.write(struct.pack("<Q", size))
            fh.write(arr.data)  # the C-order bytes, without a copy


def load_arrays(path) -> tuple[dict, dict]:
    """Read back (arrays, meta) written by save_arrays.

    Raises TruncatedContainer when the file ends before a length its header
    gives (checked before each read, so a corrupt length never allocates more
    than the file holds) and CorruptContainer for any other malformed field,
    for a repeated array name and for bytes left over after the last array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = 0  # offset of the field read last

        def read(n: int) -> bytes:
            nonlocal start
            start = fh.tell()
            if start + n > size:
                raise TruncatedContainer(path, start, f"truncated, {n} bytes needed but the "
                                                      f"file ends at byte {size}")
            return fh.read(n)

        def unpack(fmt: str) -> int:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))[0]

        try:
            if (magic := read(len(MAGIC))) != MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            if (version := unpack("<I")) != VERSION:
                raise ValueError(f"unsupported version {version}")
            meta = json_value(read(unpack("<I")))
            if not isinstance(meta, dict):
                raise ValueError(f"meta is a JSON {type(meta).__name__}, not an object")
            arrays = {}
            for _ in range(unpack("<I")):
                name = read(unpack("<H")).decode("utf-8")
                if name in arrays:
                    raise ValueError(f"array name {name!r} repeats")
                dtype = read(unpack("<B")).decode("ascii")
                if dtype not in _ALLOWED_DTYPES:
                    raise ValueError(f"dtype {dtype!r} is not one of {sorted(_ALLOWED_DTYPES)}")
                shape = tuple(unpack("<Q") for _ in range(unpack("<B")))
                n_bytes = np.dtype(dtype).itemsize * math.prod(shape)
                arrays[name] = np.frombuffer(read(n_bytes), dtype=dtype).reshape(shape).copy()
            if (end := fh.tell()) != size:
                raise CorruptContainer(path, end, f"{size - end} bytes after the last array")
        except CorruptContainer:
            raise
        except ValueError as exc:  # decode and JSON errors are ValueErrors
            raise CorruptContainer(path, start, str(exc)) from exc
        return arrays, meta
