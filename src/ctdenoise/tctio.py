"""The package's file formats: "TCT1" tensors and ``key = value`` text.

TCT1 (fixtures, checkpoints): magic bytes ``TCT1``, u8 rank, rank u32 extents,
u8 dtype tag (0 = float32, 1 = float64), then the scalars in row-major order,
all little-endian. Config files, ``run.cfg`` and manifests are ``key = value``.
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


def parse_key_values(text, source):
    """``(lineno, key, value)`` per ``key = value`` line; ``#`` starts a comment."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        entries.append((lineno, key, value))
    return entries


def format_key_values(values):
    """``key = value`` lines; ``ValueError`` names an entry that would not read back."""
    lines = [f"{key} = {value}\n" for key, value in values.items()]
    for line, (key, value) in zip(lines, values.items()):
        if parse_key_values(line, f"entry {key!r}") != [(1, key, f"{value}")]:
            raise ValueError(f"entry {key!r}: {value!r} would not read back as itself")
    return "".join(lines)
