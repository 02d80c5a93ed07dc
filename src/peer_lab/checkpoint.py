"""Binary tensor records and the PEERCKPT checkpoint container.

Record layout (little-endian): dtype tag u8, rank u32, one u64 per
dimension, then the raw element bytes. Container layout: magic "PEERCKPT",
format version u32, entry count u32, then per entry a u32 name length, the
utf-8 name, and a tensor record. A save writes a temporary file beside the
target and renames it over the target, so a run killed mid-save keeps its
last checkpoint. A load rejects a file that ends inside a record or has
bytes after the last one.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"PEERCKPT"
VERSION = 1

_TAG_TO_DTYPE = {0: "<f8", 1: "<f4", 2: "<i8", 3: "|u1"}
_KIND_TO_TAG = {("f", 8): 0, ("f", 4): 1, ("i", 8): 2, ("u", 1): 3}


def _tag_for(arr: np.ndarray) -> int:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _KIND_TO_TAG:
        raise ValueError(f"unsupported tensor dtype {arr.dtype} (supported: float64, float32, int64, uint8)")
    return _KIND_TO_TAG[key]


def write_tensor_record(f, arr: np.ndarray) -> None:
    """Write arr's record into the binary file f; a C-ordered little-endian
    array is written from its own buffer, without a copy."""
    arr = np.asarray(arr)
    tag = _tag_for(arr)
    f.write(struct.pack(f"<BI{arr.ndim}Q", tag, arr.ndim, *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[tag]))


def _take(buf: bytes, offset: int, nbytes: int, what: str) -> int:
    """Check that `nbytes` of `what` fit at `offset`; returns the offset after them."""
    end = offset + nbytes
    if end > len(buf):
        raise ValueError(f"{what} at byte {offset} needs {nbytes} bytes, but the buffer ends at byte {len(buf)}")
    return end


def read_tensor_record(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode the record at `offset`; returns the array and the offset after it."""
    dims_at = _take(buf, offset, 5, "tensor header")
    tag, rank = struct.unpack_from("<BI", buf, offset)
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"unknown tensor dtype tag {tag} at byte {offset}")
    data_at = _take(buf, dims_at, 8 * rank, "tensor shape")
    shape = struct.unpack_from(f"<{rank}Q", buf, dims_at) if rank else ()
    dt = np.dtype(_TAG_TO_DTYPE[tag])
    count = math.prod(shape)
    end = _take(buf, data_at, count * dt.itemsize, f"tensor data of shape {shape}")
    arr = np.frombuffer(buf, dtype=dt, count=count, offset=data_at).reshape(shape).copy()
    return arr, end


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Stream every entry into `<path>.tmp`, then rename it over `path`."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
            for name, arr in tensors.items():
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)) + encoded)
                write_tensor_record(f, arr)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {buf[: len(MAGIC)]!r}")
    offset = _take(buf, len(MAGIC), 8, f"checkpoint {path} header")
    version, count = struct.unpack_from("<II", buf, len(MAGIC))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version} (expected {VERSION})")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        entry, name = offset, None
        try:
            offset = _take(buf, offset, 4, "name length")
            (name_len,) = struct.unpack_from("<I", buf, entry)
            name_at, offset = offset, _take(buf, offset, name_len, "name")
            name = buf[name_at:offset].decode("utf-8")
            tensors[name], offset = read_tensor_record(buf, offset)
        except ValueError as e:
            label = f"entry {i} of {count}" + ("" if name is None else f" ({name!r})")
            raise ValueError(f"checkpoint {path}: {label}, starting at byte {entry}: {e}") from None
    if offset != len(buf):
        raise ValueError(f"checkpoint {path}: {len(buf) - offset} bytes left over after the last entry, at byte {offset}")
    return tensors
