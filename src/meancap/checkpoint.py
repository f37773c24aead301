"""Versioned checkpoint container, bit-exact on round trip.

Layout: magic "CMLC" | version u16 LE | header length u32 LE | header JSON
| parameter blobs | CRC32 (of header plus blobs).  The header holds the
version and the fields of ``Checkpoint``, each under its own name, with
the parameter groups as a name/shape/dtype listing; blobs follow in exactly
that order as little-endian raw bytes.  Everything needed to resume or
caption is inside: a checkpoint is self-contained.
"""

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

CHECKPOINT_MAGIC = b"CMLC"
CHECKPOINT_VERSION = 1

_PREAMBLE = struct.Struct("<4sHI")


@dataclass
class Checkpoint:
    config: dict
    vocab: dict  # {"tokens": [...], "merges": [[left, right], ...]}
    step: int
    adam_t: int
    seed: int
    stage: str
    momentum: float
    lambda_kd: float
    groups: dict  # group name -> {param name -> ndarray}
    best: dict = None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    listing = {}
    blobs = []
    for group in sorted(ckpt.groups):
        entries = []
        for name in sorted(ckpt.groups[group]):
            arr = np.asarray(ckpt.groups[group][name], order="C")  # keeps a 0-d shape
            if arr.dtype.kind != "f":  # load_checkpoint would refuse the file
                raise ValueError(f"parameter {group}/{name} has dtype {arr.dtype}, not a float")
            dtype = arr.dtype.newbyteorder("<")
            entries.append([name, list(arr.shape), dtype.str])
            blobs.append(arr.astype(dtype, copy=False).tobytes())
        listing[group] = entries
    header = {f.name: getattr(ckpt, f.name) for f in fields(Checkpoint)}
    header.update(version=CHECKPOINT_VERSION, groups=listing)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = head + b"".join(blobs)
    # write beside the target, then rename over it: a failed save leaves
    # the previous checkpoint whole
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREAMBLE.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(head)))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREAMBLE.size + 4:
        raise ValueError(f"checkpoint too short: {len(blob)} bytes")
    magic, version, head_len = _PREAMBLE.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic: {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    payload = blob[_PREAMBLE.size:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    actual = zlib.crc32(payload)
    if crc != actual:
        raise ValueError(f"checkpoint checksum mismatch: stored {crc:#010x}, computed {actual:#010x}")
    try:
        header = json.loads(payload[:head_len].decode("utf-8"))
    except RecursionError:
        raise ValueError("checkpoint header nests too deeply") from None
    offset = head_len
    groups = {}
    for group in sorted(header["groups"]):
        params = {}
        for name, shape, dtype_str in header["groups"][group]:
            # the listing is outside input: sizes are checked before numpy sees them
            if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
                raise ValueError(f"checkpoint parameter {name!r} has shape {shape!r}")
            dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
            if dtype is None or dtype.kind != "f":
                raise ValueError(f"checkpoint parameter {name!r} has dtype {dtype_str!r}, not a float")
            count = math.prod(shape)
            size = count * dtype.itemsize
            if offset + size > len(payload):
                raise ValueError(f"checkpoint payload ends inside parameter {name!r}")
            arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            params[name] = arr.reshape(shape).copy()
            offset += size
        groups[group] = params
    if offset != len(payload):
        raise ValueError(f"checkpoint payload length mismatch: consumed {offset}, have {len(payload)}")
    # keys an older writer left (a retired "use_ema") are not fields
    known = {f.name: header[f.name] for f in fields(Checkpoint) if f.name in header}
    return Checkpoint(**dict(known, groups=groups))
