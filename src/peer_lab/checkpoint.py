"""Binary tensor records and the PEERCKPT checkpoint container.

Record layout (little-endian): dtype tag u8, rank u32, one u64 per
dimension, then the raw element bytes. Container layout: magic "PEERCKPT",
format version u32, entry count u32, then per entry a u32 name length, the
utf-8 name, and a tensor record. A save writes a temporary file beside the
target and renames it over the target, so a run killed mid-save keeps its
last checkpoint. A load reads each record's data straight into its array,
so it holds the file once, and rejects a file that ends inside a record or
has bytes after the last one.
"""

from __future__ import annotations

import io
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


def _take(offset: int, nbytes: int, size: int, what: str) -> int:
    """Check that `nbytes` of `what` fit at `offset` of `size` bytes; returns the offset after them."""
    end = offset + nbytes
    if end > size:
        raise ValueError(f"{what} at byte {offset} needs {nbytes} bytes, but the input ends at byte {size}")
    return end


def _read_record(f, offset: int, size: int) -> tuple[np.ndarray, int]:
    """Decode the record at `offset` of the binary file f of `size` bytes,
    positioned there; the data is read straight into the returned array."""
    dims_at = _take(offset, 5, size, "tensor header")
    tag, rank = struct.unpack("<BI", f.read(5))
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"unknown tensor dtype tag {tag} at byte {offset}")
    data_at = _take(dims_at, 8 * rank, size, "tensor shape")
    shape = struct.unpack(f"<{rank}Q", f.read(8 * rank))
    dt = np.dtype(_TAG_TO_DTYPE[tag])
    nbytes = math.prod(shape) * dt.itemsize
    end = _take(data_at, nbytes, size, f"tensor data of shape {shape}")
    arr = np.empty(shape, dt)
    if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
        raise ValueError(f"tensor data of shape {shape} at byte {data_at} ended early: the input shrank while it was read")
    return arr, end


def read_tensor_record(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode the record at `offset`; returns the array and the offset after it."""
    f = io.BytesIO(buf)
    f.seek(offset)
    return _read_record(f, offset, len(buf))


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
    """Read every entry of the file at `path`, each straight into its own array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        offset = _take(len(MAGIC), 8, size, f"checkpoint {path} header")
        version, count = struct.unpack("<II", f.read(8))
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version} (expected {VERSION})")
        tensors: dict[str, np.ndarray] = {}
        for i in range(count):
            entry, name = offset, None
            try:
                offset = _take(offset, 4, size, "name length")
                (name_len,) = struct.unpack("<I", f.read(4))
                offset = _take(offset, name_len, size, "name")
                name = f.read(name_len).decode("utf-8")
                tensors[name], offset = _read_record(f, offset, size)
            except ValueError as e:
                label = f"entry {i} of {count}" + ("" if name is None else f" ({name!r})")
                raise ValueError(f"checkpoint {path}: {label}, starting at byte {entry}: {e}") from None
    if offset != size:
        raise ValueError(f"checkpoint {path}: {size - offset} bytes left over after the last entry, at byte {offset}")
    return tensors


def checked_entry(tensors: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """tensors[name], which a checkpoint must hold with the model's `shape`."""
    if name not in tensors:
        raise ValueError(f"checkpoint is missing tensor {name!r}")
    if tensors[name].shape != tuple(shape):
        raise ValueError(f"shape mismatch for {name}: checkpoint {tensors[name].shape} vs model {tuple(shape)}")
    return tensors[name]
