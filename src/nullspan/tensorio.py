"""Binary container for one named float64 tensor.

Frozen layout, all integers little-endian:

    magic   4 bytes  b"NSPW"
    version u32      currently 1
    count   u32      number of tensors, always 1
    entry   name_len u32, name bytes (utf-8)
            ndim u32, dims u32 * ndim
            offset u64   absolute byte offset of the tensor's data
    data    float64 little-endian, C-order, at the recorded offset

Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = ["write_tensor", "read_tensor"]

_MAGIC = b"NSPW"
_VERSION = 1


def write_tensor(path, name: str, array: np.ndarray) -> None:
    name_b = name.encode("utf-8")
    a = np.asarray(array, dtype="<f8", order="C")
    head = (_MAGIC + struct.pack("<III", _VERSION, 1, len(name_b)) + name_b
            + struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape))
    with open(path, "wb") as fh:
        fh.write(head + struct.pack("<Q", len(head) + 8))
        fh.write(a.tobytes())


def _unpack(fmt: str, blob: bytes, pos: int) -> tuple[tuple, int]:
    end = pos + struct.calcsize(fmt)
    if end > len(blob):
        raise ValueError("truncated header")
    return struct.unpack_from(fmt, blob, pos), end


def read_tensor(path) -> tuple[str, np.ndarray]:
    """The (name, array) of a file written by write_tensor.

    Anything else raises ValueError naming the cause: bad magic,
    unsupported version, a tensor count other than 1, truncated header,
    invalid name, offset mismatch (the data must start right after the
    header), truncated data or trailing bytes. The data size is checked
    against the file length before the array is allocated.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"not a tensor file: bad magic {blob[:4]!r}")
    (version, count), pos = _unpack("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported tensor file version {version}")
    if count != 1:
        raise ValueError(f"tensor count {count}: a tensor file holds exactly one tensor")
    (name_len,), pos = _unpack("<I", blob, pos)
    (name_b,), pos = _unpack(f"<{name_len}s", blob, pos)
    try:
        name = name_b.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"tensor name {name_b!r} is not valid UTF-8") from None
    (ndim,), pos = _unpack("<I", blob, pos)
    (*shape, offset), pos = _unpack(f"<{ndim}IQ", blob, pos)
    if offset != pos:
        raise ValueError(f"offset mismatch for tensor {name!r}: "
                         f"recorded {offset}, expected {pos}")
    extra = len(blob) - pos - 8 * math.prod(shape)
    if extra < 0:
        raise ValueError(f"truncated data for tensor {name!r}")
    if extra:
        raise ValueError(f"trailing bytes: {extra} after the tensor")
    return name, np.frombuffer(blob, dtype="<f8", offset=pos).reshape(shape).copy()
