"""Versioned binary container for named arrays plus a JSON meta block.

Used for parameter checkpoints and precomputed embedding files. The layout is
fixed-endian and carries no timestamps, so identical content always produces
identical bytes.
"""

import json
import math
import os
import struct

import numpy as np

MAGIC = b"SPARRAY1"
VERSION = 1

_ALLOWED_DTYPES = {"<f8", "<f4", "<i8", "<i4"}


class TruncatedContainer(ValueError):
    """The file ends before the bytes its header promises."""

    def __init__(self, path, offset: int, needed: int, size: int):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path}: truncated array container: {needed} bytes needed at byte "
                         f"offset {offset}, but the file ends at byte {size}")


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays and an optional JSON-serializable meta dict."""
    meta_bytes = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            dtype = arr.dtype.newbyteorder("<")
            if dtype.str not in _ALLOWED_DTYPES:
                arr = arr.astype("<f8")
                dtype = arr.dtype
            elif arr.dtype != dtype:
                arr = arr.astype(dtype)
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            dtype_bytes = dtype.str.encode("ascii")
            fh.write(struct.pack("<B", len(dtype_bytes)))
            fh.write(dtype_bytes)
            fh.write(struct.pack("<B", arr.ndim))
            for size in arr.shape:
                fh.write(struct.pack("<Q", size))
            fh.write(arr.tobytes(order="C"))


def load_arrays(path) -> tuple[dict, dict]:
    """Read back (arrays, meta) written by save_arrays.

    Raises TruncatedContainer when the file ends before a length its header
    gives; the size is checked before each read, so a corrupt length never
    allocates more than the file holds.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            offset = fh.tell()
            if offset + n > size:
                raise TruncatedContainer(path, offset, n, size)
            return fh.read(n)

        def unpack(fmt: str) -> int:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))[0]

        magic = read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a recognized array container (bad magic {magic!r})")
        version = unpack("<I")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        meta = json.loads(read(unpack("<I")).decode("utf-8"))
        count = unpack("<I")
        arrays = {}
        for _ in range(count):
            name = read(unpack("<H")).decode("utf-8")
            dtype = np.dtype(read(unpack("<B")).decode("ascii"))
            shape = tuple(unpack("<Q") for _ in range(unpack("<B")))
            n_bytes = dtype.itemsize * math.prod(shape)
            arrays[name] = np.frombuffer(read(n_bytes), dtype=dtype).reshape(shape).copy()
        return arrays, meta
