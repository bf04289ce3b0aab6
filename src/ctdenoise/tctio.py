"""The "TCT1" binary tensor format shared by fixtures and checkpoints.

Layout: magic bytes ``TCT1``, u8 rank, rank little-endian u32 extents,
u8 dtype tag (0 = float32, 1 = float64), then the raw little-endian
scalars in row-major order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TCT1"

_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

MAX_RANK = 8


class TensorFormatError(ValueError):
    """Malformed TCT1 payload; the message carries the byte offset."""


def frame_header(arr):
    """The bytes that precede ``arr``'s scalars in a record: magic, rank,
    extents and dtype tag. Either byte order is accepted."""
    tag = _DTYPE_TO_TAG.get(arr.dtype.newbyteorder("="))
    if tag is None:
        raise TypeError(f"TCT1 stores float32/float64 only, got {arr.dtype}")
    if arr.ndim > MAX_RANK:
        raise ValueError(f"TCT1 rank limit is {MAX_RANK}, got {arr.ndim}")
    return struct.pack(f"<4sB{arr.ndim}IB", MAGIC, arr.ndim, *arr.shape, tag)


def tensor_to_bytes(arr):
    # note: ascontiguousarray would promote 0-d to 1-d; tobytes() below
    # already emits row-major bytes for any memory layout
    arr = np.asarray(arr)
    return frame_header(arr) + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


def tensor_from_bytes(buf, offset=0):
    """Decode one record; returns (array, next_offset)."""
    base = offset
    if buf[offset : offset + 4] != MAGIC:
        raise TensorFormatError(f"bad magic at byte {base}")
    offset += 4
    if offset >= len(buf):
        raise TensorFormatError(f"truncated header at byte {offset}")
    rank = buf[offset]
    offset += 1
    if rank > MAX_RANK:
        raise TensorFormatError(f"implausible rank {rank} at byte {offset - 1}")
    need = 4 * rank
    if offset + need > len(buf):
        raise TensorFormatError(f"truncated shape table at byte {offset}")
    shape = struct.unpack(f"<{rank}I", buf[offset : offset + need])
    offset += need
    if offset >= len(buf):
        raise TensorFormatError(f"truncated dtype tag at byte {offset}")
    tag = buf[offset]
    offset += 1
    if tag not in _TAG_TO_DTYPE:
        raise TensorFormatError(f"unknown dtype tag {tag} at byte {offset - 1}")
    dtype = _TAG_TO_DTYPE[tag]
    # Python ints: an int64 product of four u32 extents can wrap to a small count
    count = math.prod(shape)
    nbytes = count * dtype.itemsize
    if offset + nbytes > len(buf):
        raise TensorFormatError(
            f"truncated payload at byte {offset}: need {nbytes} bytes, "
            f"have {len(buf) - offset}"
        )
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset).reshape(shape)
    # astype copies out of the read-only buffer and into native byte order
    return arr.astype(arr.dtype.newbyteorder("=")), offset + nbytes


def write_tensor(path, arr):
    Path(path).write_bytes(tensor_to_bytes(arr))


def read_tensor(path):
    """The one record a file holds; its errors name the file."""
    buf = Path(path).read_bytes()
    try:
        arr, end = tensor_from_bytes(buf)
        if end != len(buf):
            raise TensorFormatError(f"trailing {len(buf) - end} bytes after record at byte {end}")
    except TensorFormatError as exc:
        raise TensorFormatError(f"{path}: {exc}") from None
    return arr
