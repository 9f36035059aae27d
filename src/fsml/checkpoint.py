"""Checkpoint container.

Layout (all integers little-endian):

    magic "FSML" | version u16 | count u32
    then per parameter:
    id_len u16 | id bytes (utf-8) | rank u8 | extents u32 * rank | f32 data

Data is float32, as training runs in float32.  `dump_params` refuses an
array of any other dtype rather than round it, so a float64 network never
silently loses precision through a checkpoint; verification paths that run
in float64 rebuild their own values.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError, FormatError

MAGIC = b"FSML"
VERSION = 1


def dump_params(params: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<4sHI", MAGIC, VERSION, len(params))]
    for pid, arr in params.items():
        ident = pid.encode("utf-8")
        if len(ident) > 0xFFFF:
            raise CheckpointError(f"parameter id too long: {pid!r}")
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise CheckpointError(f"parameter {pid!r} is {arr.dtype}; checkpoints hold float32 only")
        chunks.append(struct.pack("<H", len(ident)))
        chunks.append(ident)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(chunks)


def parse_params(blob: bytes) -> dict[str, np.ndarray]:
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"truncated checkpoint while reading {what}", off)
        piece = blob[off : off + n]
        off += n
        return piece

    magic, version, count = struct.unpack("<4sHI", take(10, "header"))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4)
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (id_len,) = struct.unpack("<H", take(2, "id length"))
        pid = take(id_len, "parameter id").decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        n = int(np.prod(shape)) if rank else 1
        data = np.frombuffer(take(4 * n, f"data of {pid!r}"), dtype="<f4").reshape(shape)
        params[pid] = data.astype(np.float32)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after last parameter", off)
    return params


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return parse_params(fh.read())


def apply_checkpoint(net, params: dict[str, np.ndarray]) -> None:
    """Copy loaded values into a network; ids and shapes must match exactly."""
    live = net.params()
    missing = sorted(set(live) - set(params))
    extra = sorted(set(params) - set(live))
    if missing or extra:
        raise CheckpointError(f"parameter id mismatch: missing {missing}, unexpected {extra}")
    for pid, tensor in live.items():
        if params[pid].shape != tensor.shape:
            raise CheckpointError(f"shape mismatch for {pid!r}: checkpoint {params[pid].shape}, network {tensor.shape}")
    for pid, tensor in live.items():
        tensor.data = params[pid].astype(tensor.dtype)
