"""Binary container for named float64 tensors.

Frozen layout, all integers little-endian:

    magic   4 bytes  b"NSPW"
    version u32      currently 1
    count   u32      number of tensors
    table   count entries of:
        name_len u32, name bytes (utf-8)
        ndim u32, dims u32 * ndim
        offset u64   absolute byte offset of the tensor's data
    data    float64 little-endian, C-order, at the recorded offsets

Table order is the write-time insertion order, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = ["write_tensors", "read_tensors"]

_MAGIC = b"NSPW"
_VERSION = 1


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    entries = []
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype="<f8", order="C")
        entries.append((name.encode("utf-8"), a))

    header_size = 4 + 4 + 4
    for name_b, a in entries:
        header_size += 4 + len(name_b) + 4 + 4 * a.ndim + 8

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        offset = header_size
        for name_b, a in entries:
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(struct.pack("<Q", offset))
            offset += a.nbytes
        for _, a in entries:
            fh.write(a.tobytes())


def _unpack(fmt: str, blob: bytes, pos: int) -> tuple[tuple, int]:
    end = pos + struct.calcsize(fmt)
    if end > len(blob):
        raise ValueError("truncated header")
    return struct.unpack_from(fmt, blob, pos), end


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a container written by write_tensors.

    The layout the writer produces is recomputed from the table
    (contiguous blocks in table order, starting right after the table)
    and any difference raises ValueError naming the cause: bad magic,
    unsupported version, truncated header, invalid name, duplicate
    name, offset mismatch, truncated data or trailing bytes. Sizes are
    checked against the file length before any array is allocated.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"not a tensor file: bad magic {blob[:4]!r}")
    (version, count), pos = _unpack("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported tensor file version {version}")
    table = []
    for _ in range(count):
        (name_len,), pos = _unpack("<I", blob, pos)
        (name_b,), pos = _unpack(f"<{name_len}s", blob, pos)
        try:
            name = name_b.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"tensor name {name_b!r} is not valid UTF-8") from None
        (ndim,), pos = _unpack("<I", blob, pos)
        shape, pos = _unpack(f"<{ndim}I", blob, pos)
        (offset,), pos = _unpack("<Q", blob, pos)
        table.append((name, shape, offset))

    out: dict[str, np.ndarray] = {}
    expected = pos
    for name, shape, offset in table:
        if name in out:
            raise ValueError(f"duplicate tensor name {name!r}")
        if offset != expected:
            raise ValueError(f"offset mismatch for tensor {name!r}: "
                             f"recorded {offset}, expected {expected}")
        size = math.prod(shape)
        if expected + 8 * size > len(blob):
            raise ValueError(f"truncated data for tensor {name!r}")
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        out[name] = data.reshape(shape).copy()
        expected += 8 * size
    if expected != len(blob):
        raise ValueError(f"trailing bytes: {len(blob) - expected} after the last tensor")
    return out
