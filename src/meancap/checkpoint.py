"""Versioned checkpoint container, bit-exact on round trip.

Layout: magic "CMLC" | version u16 LE | header length u32 LE | header JSON
| parameter blobs | CRC32 (of header plus blobs).  The header holds the
version and the fields of ``Checkpoint``, each under its own name, with
the parameter groups as a name/shape/dtype listing; blobs follow in exactly
that order as little-endian raw bytes.  Everything needed to resume or
caption is inside: a checkpoint is self-contained.

Both directions stream.  A save writes each blob straight from its array
(copying only one that is not C-contiguous little-endian), so it holds no
copy of the payload.  A load checks the CRC in chunks of at most 1 MiB
before it reads any header byte, then reads each blob into its own new
array: it holds the parameters it returns plus one chunk.  Feature files
(``data``) stream through the same ``write_array``, ``check_crc`` and
``read_array``.  Every file a command writes goes through ``atomic_write``:
written beside its target, flushed to disk and renamed over it, so a crash
leaves the previous file or the new one whole.  Text files are UTF-8.
"""

import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

CHECKPOINT_MAGIC = b"CMLC"
CHECKPOINT_VERSION = 1

_PREAMBLE = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")
_CHUNK = 1 << 20  # bytes read at a time while checking a CRC


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


def json_is(value, kind: type) -> bool:
    """Whether a decoded JSON ``value`` is of type ``kind``, by the rule every
    reader of outside input keeps: an integer is a fine float, a bool is no number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open ``<path>.tmp`` for writing, UTF-8 in text mode, and yield it.  When
    the block succeeds the file is flushed to disk and renamed over ``path``;
    on any failure it is removed, leaving whatever ``path`` held before."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_array(fh, arr: np.ndarray, crc: int) -> int:
    """Write ``arr``'s little-endian bytes in C order; return ``crc`` carried
    over them.  Only an array not already laid out so is copied."""
    flat = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False).reshape(-1).view(np.uint8)
    fh.write(flat)
    return zlib.crc32(flat, crc)


def check_crc(fh, size: int) -> None:
    """Check the next ``size`` bytes of ``fh``, read one chunk at a time,
    against the CRC32 stored after them."""
    crc = 0
    for start in range(0, size, _CHUNK):
        crc = zlib.crc32(fh.read(min(_CHUNK, size - start)), crc)
    (stored,) = _CRC.unpack(fh.read(_CRC.size))
    if stored != crc:
        raise ValueError(f"checksum mismatch at offset {fh.tell() - _CRC.size}: "
                         f"stored {stored:#010x}, computed {crc:#010x}")


def read_array(fh, dtype, shape) -> np.ndarray:
    """A new array of ``shape`` filled from the next bytes of ``fh``."""
    arr = np.empty(shape, dtype)
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
        raise ValueError("file ends inside an array")
    return arr


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    listing = {}
    arrays = []
    for group in sorted(ckpt.groups):
        entries = []
        for name in sorted(ckpt.groups[group]):
            arr = np.asarray(ckpt.groups[group][name])  # keeps a 0-d shape
            if arr.dtype.kind != "f":  # load_checkpoint would refuse the file
                raise ValueError(f"parameter {group}/{name} has dtype {arr.dtype}, not a float")
            entries.append([name, list(arr.shape), arr.dtype.newbyteorder("<").str])
            arrays.append(arr)
        listing[group] = entries
    header = {f.name: getattr(ckpt, f.name) for f in fields(Checkpoint)}
    header.update(version=CHECKPOINT_VERSION, groups=listing)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_PREAMBLE.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(head)))
        fh.write(head)
        crc = zlib.crc32(head)
        for arr in arrays:
            crc = write_array(fh, arr, crc)
        fh.write(_CRC.pack(crc))


def _listing(groups, payload: int) -> list:
    """(group, name, shape, dtype) of every blob, checked to fill ``payload``
    bytes exactly: the listing is outside input, so no size or dtype reaches
    numpy unchecked."""
    entries, offset = [], 0
    for group in sorted(groups):
        if not isinstance(groups[group], list):
            raise ValueError(f"checkpoint group {group!r} is not a listing")
        for entry in groups[group]:
            if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)):
                raise ValueError(f"checkpoint group {group!r} lists {entry!r}, not [name, shape, dtype]")
            name, shape, dtype_str = entry
            if not isinstance(shape, list) or not all(json_is(n, int) and n >= 0 for n in shape):
                raise ValueError(f"checkpoint parameter {name!r} has shape {shape!r}")
            try:
                dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
            except (TypeError, SyntaxError):  # not a dtype at all ("02" is a SyntaxError)
                dtype = None
            if dtype is None or dtype.kind != "f":
                raise ValueError(f"checkpoint parameter {name!r} has dtype {dtype_str!r}, not a float")
            offset += math.prod(shape) * dtype.itemsize
            if offset > payload:
                raise ValueError(f"checkpoint payload ends inside parameter {name!r}")
            entries.append((group, name, shape, dtype))
    if offset != payload:
        raise ValueError(f"checkpoint payload length mismatch: listed {offset}, have {payload}")
    return entries


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _PREAMBLE.size + _CRC.size:
            raise ValueError(f"checkpoint too short: {size} bytes")
        magic, version, head_len = _PREAMBLE.unpack(fh.read(_PREAMBLE.size))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic: {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        payload = size - _PREAMBLE.size - _CRC.size
        if head_len > payload:
            raise ValueError(f"checkpoint header of {head_len} bytes exceeds its {payload}-byte payload")
        check_crc(fh, payload)
        fh.seek(_PREAMBLE.size)
        try:
            header = json.loads(fh.read(head_len).decode("utf-8"))
        except RecursionError:
            raise ValueError("checkpoint header nests too deeply") from None
        if not isinstance(header, dict):
            raise ValueError(f"checkpoint header is {type(header).__name__}, not an object")
        for f in fields(Checkpoint):
            value = header.get(f.name)
            if value is None is f.default:  # best may be absent or null
                continue
            if not json_is(value, f.type):
                raise ValueError(f"checkpoint header needs {f.name} as {f.type.__name__}, got {value!r}")
        # keys an older writer left (a retired "use_ema") are not fields
        known = {f.name: header[f.name] for f in fields(Checkpoint) if f.name in header}
        groups = {group: {} for group in header["groups"]}
        for group, name, shape, dtype in _listing(header["groups"], payload - head_len):
            groups[group][name] = read_array(fh, dtype, shape)
    return Checkpoint(**dict(known, groups=groups))
