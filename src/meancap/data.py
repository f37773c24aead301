"""Synthetic captioned scenes and the binary feature-file format.

A scene is a small multiset of (color, object) pairs drawn from closed
sets.  Each pair occupies one grid cell as a projected one-hot code plus
optional noise; reference captions enumerate the pairs through a handful
of sentence templates in varied orders.  The template grammar is invertible
(a color word followed by an object word always names a pair), which the
tests use as a parsing oracle.

Feature files stream both ways.  ``write_features`` checks every grid, then
writes each record straight from its grid (copying only one that is not
C-contiguous little-endian float32), so it holds no copy of the records.
``read_features`` checks the file size against its header and the CRC in
chunks of at most 1 MiB, then reads each grid into its own new array: it
holds the grids it returns plus one chunk.
"""

import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write, check_crc, json_is, read_array, write_array
from .rng import ROLE_DATA, generator

COLORS = ["red", "blue", "green", "yellow", "black", "white", "purple", "orange"]
OBJECTS = ["ball", "cube", "star", "ring", "cone", "disk", "brick", "shell"]

# Sentence templates; {pairs} expands to "a red ball and a blue cube ...".
TEMPLATES = [
    "{pairs}",
    "there is {pairs}",
    "the picture shows {pairs}",
    "{pairs} in the picture",
]

FEATURE_MAGIC = b"CMLF"
FEATURE_VERSION = 1

# Keeps pair embeddings identical across dataset seeds, so features written
# by one run stay meaningful to a model trained on another.
_PROJECTION_SEED = 0x434D4C46


@dataclass
class FeatureGrid:
    image_id: int
    grid: np.ndarray  # (G, D) float32

    def __post_init__(self):
        if self.grid.ndim != 2:
            raise ValueError(f"grid must be 2D, got shape {self.grid.shape}")
        if not np.all(np.isfinite(self.grid)):
            raise ValueError(f"non-finite feature entries in image {self.image_id}")


@dataclass
class CaptionedSample:
    features: FeatureGrid
    references: list  # raw reference strings

    def __post_init__(self):
        if not self.references or any(not r for r in self.references):
            raise ValueError(f"image {self.features.image_id} needs non-empty references")


def pair_code(color: str, obj: str) -> np.ndarray:
    """Concatenated one-hot color and object code for one grid cell."""
    code = np.zeros(len(COLORS) + len(OBJECTS), dtype=np.float64)
    code[COLORS.index(color)] = 1.0
    code[len(COLORS) + OBJECTS.index(obj)] = 1.0
    return code


def projection_matrix(feature_dim: int) -> np.ndarray:
    rng = generator(_PROJECTION_SEED, ROLE_DATA, 0, 0)
    width = len(COLORS) + len(OBJECTS)
    return rng.standard_normal((width, feature_dim)) / np.sqrt(width)


def _pairs_phrase(pairs) -> str:
    chunks = [f"a {c} {o}" for c, o in pairs]
    return " and ".join([", ".join(chunks[:-1]), chunks[-1]] if len(chunks) > 1 else chunks)


def render_reference(pairs, order, template_index: int) -> str:
    ordered = [pairs[i] for i in order]
    return TEMPLATES[template_index].format(pairs=_pairs_phrase(ordered))


def caption_corpus() -> list:
    """Every word the template grammar can emit, one line per template shape.

    Lists with three or more pairs attach a comma to the object word, so
    each "{object}," spelling must appear here too or tokenizing a long
    reference would hit an unknown symbol.
    """
    lines = []
    for c in COLORS:
        for o in OBJECTS:
            lines.append(f"a {c} {o}")
            lines.append(f"a {c} {o}, a {c} {o} and a {c} {o}")
    for t in range(len(TEMPLATES)):
        lines.append(render_reference([("red", "ball"), ("blue", "cube"), ("green", "star")], [0, 1, 2], t))
    return lines


def generate_synthetic_dataset(
    seed: int,
    num_images: int = 200,
    min_objects: int = 1,
    max_objects: int = 4,
    refs_per_image: int = 5,
    grid_size: int = 9,
    feature_dim: int = 32,
    noise_sigma: float = 0.05,
) -> list:
    """Deterministic list of CaptionedSample; same seed, same bytes.

    Each image holds between ``min_objects`` and ``max_objects`` pairs,
    inclusive.  Cells beyond the sampled pairs hold the zero code (plus noise).
    """
    for name, value in (("num_images", num_images), ("refs_per_image", refs_per_image),
                        ("feature_dim", feature_dim)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not noise_sigma >= 0.0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if not 1 <= min_objects <= max_objects <= grid_size:
        raise ValueError(f"objects per image {min_objects}..{max_objects} must fit the grid of {grid_size} cells")
    if max_objects > len(COLORS) * len(OBJECTS):
        raise ValueError(f"requested up to {max_objects} pairs but only {len(COLORS) * len(OBJECTS)} distinct pairs exist")

    proj = projection_matrix(feature_dim)
    samples = []
    for image_id in range(num_images):
        rng = generator(seed, ROLE_DATA, image_id, 1)
        k = int(rng.integers(min_objects, max_objects + 1))
        pairs = [
            (COLORS[int(rng.integers(len(COLORS)))], OBJECTS[int(rng.integers(len(OBJECTS)))])
            for _ in range(k)
        ]
        grid = np.zeros((grid_size, feature_dim), dtype=np.float64)
        for cell, (c, o) in enumerate(pairs):
            grid[cell] = pair_code(c, o) @ proj
        if noise_sigma > 0:
            grid += noise_sigma * rng.standard_normal(grid.shape)
        refs = []
        for _ in range(refs_per_image):
            order = list(rng.permutation(k))
            template_index = int(rng.integers(len(TEMPLATES)))
            refs.append(render_reference(pairs, order, template_index))
        samples.append(
            CaptionedSample(FeatureGrid(image_id, grid.astype(np.float32)), refs)
        )
    return samples


def split_dataset(samples, seed: int = 0, train_fraction: float = 0.8, val_fraction: float = 0.1):
    """Shuffle by id and cut into train/val/test, test being what train and val
    leave; disjoint and seed-stable."""
    fractions = (train_fraction, val_fraction)
    if sum(fractions) > 1.0 + 1e-9 or not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError(f"split fractions must lie in [0, 1] and sum to at most 1, got {fractions}")
    rng = generator(seed, ROLE_DATA, 0, 2)
    order = rng.permutation(len(samples))
    n_train = int(round(train_fraction * len(samples)))
    # fractions that leave nothing leave no test image
    n_val = (len(samples) - n_train if train_fraction + val_fraction >= 1.0 - 1e-9
             else int(round(val_fraction * len(samples))))
    train = [samples[i] for i in order[:n_train]]
    val = [samples[i] for i in order[n_train:n_train + n_val]]
    test = [samples[i] for i in order[n_train + n_val:]]
    return train, val, test


# ---------------------------------------------------------------------------
# feature file format
# ---------------------------------------------------------------------------
# magic "CMLF" | version u16 | G u32 | D u32 | count u32 | records | crc32
# record: image id u64 | G*D float32, all little endian; crc covers records.

_HEADER = struct.Struct("<4sHIII")


def write_features(path, grids) -> None:
    grids = list(grids)
    if not grids:
        raise ValueError("no feature grids to write")
    g, d = grids[0].grid.shape
    if 0 in (g, d):
        raise ValueError(f"feature grids of {g} x {d} are empty")
    ids = struct.pack(f"<{len(grids)}Q", *(fg.image_id for fg in grids))
    for fg in grids:  # every grid is checked before the file is opened
        if fg.grid.shape != (g, d):
            raise ValueError(f"grid shape {fg.grid.shape} differs from first grid {(g, d)}")
        with np.errstate(over="ignore"):  # read_features would refuse what overflows
            if not np.isfinite(fg.grid.astype("<f4", copy=False)).all():
                raise ValueError(f"image {fg.image_id} has values beyond the float32 range")
    with atomic_write(path) as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, g, d, len(grids)))
        crc = 0
        for i, fg in enumerate(grids):
            image_id = ids[8 * i:8 * i + 8]
            fh.write(image_id)
            crc = write_array(fh, fg.grid.astype("<f4", copy=False), zlib.crc32(image_id, crc))
        fh.write(struct.pack("<I", crc))


def read_features(path) -> list:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"feature file too short for header: expected >= {_HEADER.size} bytes, got {size}")
        magic, version, g, d, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != FEATURE_MAGIC:
            raise ValueError(f"bad magic at offset 0: expected {FEATURE_MAGIC!r}, got {magic!r}")
        if version != FEATURE_VERSION:
            raise ValueError(f"unsupported feature file version {version}")
        if min(g, d, count) == 0:  # write_features makes no such file
            raise ValueError(f"feature file holds {count} grids of {g} x {d}; none may be empty")
        expected = _HEADER.size + count * (8 + g * d * 4) + 4
        if size != expected:
            raise ValueError(f"truncated feature file: expected {expected} bytes, got {size}")
        check_crc(fh, size - _HEADER.size - 4)
        fh.seek(_HEADER.size)
        grids = []
        for _ in range(count):
            (image_id,) = struct.unpack("<Q", fh.read(8))
            grids.append(FeatureGrid(image_id, read_array(fh, "<f4", (g, d))))
    return grids


def write_captions(path, samples) -> None:
    with atomic_write(path, "w") as fh:
        for s in samples:
            fh.write(json.dumps({"id": s.features.image_id, "refs": s.references}) + "\n")


def read_id_lines(path, key: str, kind: type):
    """(line number, id, value) of each non-blank line of a UTF-8 JSON-lines
    file of ``{"id": int, key: kind}`` objects; any other line is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long
                raise ValueError(f"{path} line {line_no} is not valid JSON: {exc}") from exc
            if not (isinstance(row, dict) and json_is(row.get("id"), int) and json_is(row.get(key), kind)):
                raise ValueError(f"{path} line {line_no} needs an object with an integer id "
                                 f"and {key} as {kind.__name__}")
            yield line_no, row["id"], row[key]


def read_captions(path) -> dict:
    refs = {}
    for line_no, image_id, texts in read_id_lines(path, "refs", list):
        if not texts or not all(isinstance(r, str) for r in texts):
            raise ValueError(f"{path} line {line_no} needs refs as a non-empty list of strings")
        refs[image_id] = texts
    return refs
