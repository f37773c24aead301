"""Synthetic captioned scenes and the binary feature-file format.

A scene is a small multiset of (color, object) pairs drawn from closed
sets.  Each pair occupies one grid cell as a projected one-hot code plus
optional noise; reference captions enumerate the pairs through a handful
of sentence templates in varied orders.  The template grammar is invertible
(a color word followed by an object word always names a pair), which the
tests use as a parsing oracle.
"""

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

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


def pair_embedding(color: str, obj: str, feature_dim: int) -> np.ndarray:
    return pair_code(color, obj) @ projection_matrix(feature_dim)


def _pairs_phrase(pairs) -> str:
    chunks = [f"a {c} {o}" for c, o in pairs]
    if len(chunks) == 1:
        return chunks[0]
    return " and ".join([", ".join(chunks[:-1]), chunks[-1]]) if len(chunks) > 2 else " and ".join(chunks)


def render_reference(pairs, order, template_index: int) -> str:
    ordered = [pairs[i] for i in order]
    return TEMPLATES[template_index].format(pairs=_pairs_phrase(ordered))


def parse_reference(text: str):
    """Invert the template grammar: every color followed by an object is a pair."""
    words = text.replace(",", " ").split()
    pairs = []
    for w, nxt in zip(words, words[1:]):
        if w in COLORS and nxt in OBJECTS:
            pairs.append((w, nxt))
    return sorted(pairs)


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
    num_images: int,
    objects_per_image=(1, 4),
    refs_per_image: int = 5,
    grid_size: int = 9,
    feature_dim: int = 32,
    noise_sigma: float = 0.05,
) -> list:
    """Deterministic list of CaptionedSample; same seed, same bytes.

    ``objects_per_image`` is an inclusive (low, high) range or a fixed int.
    Cells beyond the sampled pairs hold the zero code (plus noise).
    """
    if refs_per_image < 1:
        raise ValueError(f"refs_per_image must be >= 1, got {refs_per_image}")
    if isinstance(objects_per_image, int):
        lo = hi = objects_per_image
    else:
        lo, hi = objects_per_image
    if lo < 1 or hi > grid_size:
        raise ValueError(f"objects_per_image {lo}..{hi} must fit the grid of {grid_size} cells")
    if hi > len(COLORS) * len(OBJECTS):
        raise ValueError(f"requested up to {hi} pairs but only {len(COLORS) * len(OBJECTS)} distinct pairs exist")

    proj = projection_matrix(feature_dim)
    samples = []
    for image_id in range(num_images):
        rng = generator(seed, ROLE_DATA, image_id, 1)
        k = int(rng.integers(lo, hi + 1))
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


def split_dataset(samples, fractions=(0.8, 0.1, 0.1), seed: int = 0):
    """Shuffle by id and cut into train/val/test; disjoint and seed-stable."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    rng = generator(seed, ROLE_DATA, 0, 2)
    order = rng.permutation(len(samples))
    n_train = int(round(fractions[0] * len(samples)))
    n_val = int(round(fractions[1] * len(samples)))
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
    records = bytearray()
    for fg in grids:
        if fg.grid.shape != (g, d):
            raise ValueError(f"grid shape {fg.grid.shape} differs from first grid {(g, d)}")
        records += struct.pack("<Q", fg.image_id)
        records += fg.grid.astype("<f4").tobytes()
    payload = bytes(records)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, g, d, len(grids)))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def read_features(path) -> list:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"feature file too short for header: expected >= {_HEADER.size} bytes, got {len(blob)}")
    magic, version, g, d, count = _HEADER.unpack_from(blob, 0)
    if magic != FEATURE_MAGIC:
        raise ValueError(f"bad magic at offset 0: expected {FEATURE_MAGIC!r}, got {magic!r}")
    if version != FEATURE_VERSION:
        raise ValueError(f"unsupported feature file version {version}")
    record_size = 8 + g * d * 4
    expected = _HEADER.size + count * record_size + 4
    if len(blob) != expected:
        raise ValueError(f"truncated feature file: expected {expected} bytes, got {len(blob)}")
    payload = blob[_HEADER.size:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    actual = zlib.crc32(payload)
    if crc != actual:
        raise ValueError(f"checksum mismatch at offset {len(blob) - 4}: stored {crc:#010x}, computed {actual:#010x}")
    grids = []
    for i in range(count):
        offset = i * record_size
        (image_id,) = struct.unpack_from("<Q", payload, offset)
        flat = np.frombuffer(payload, dtype="<f4", count=g * d, offset=offset + 8)
        grids.append(FeatureGrid(int(image_id), flat.reshape(g, d).copy()))
    return grids


def write_captions(path, samples) -> None:
    with open(path, "w") as fh:
        for s in samples:
            fh.write(json.dumps({"id": s.features.image_id, "refs": s.references}) + "\n")


def is_image_id(value) -> bool:
    """A JSON image id: an integer, not a bool or a float."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_captions(path) -> dict:
    refs = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"captions line {line_no} is not valid JSON: {exc}") from exc
            if not isinstance(row, dict) or not is_image_id(row.get("id")):
                raise ValueError(f"captions line {line_no} needs an object with an integer id")
            texts = row.get("refs")
            if not isinstance(texts, list) or not texts or not all(isinstance(r, str) for r in texts):
                raise ValueError(f"captions line {line_no} needs refs as a non-empty list of strings")
            refs[row["id"]] = texts
    return refs
