"""Synthetic scenes: determinism, template inversion, feature file format."""

import hashlib
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from meancap import data
from test_checkpoint import corrupted_copies, traced_peak


def grids_equal(a, b):
    return a.image_id == b.image_id and np.array_equal(a.grid, b.grid)


def parse_reference(text):
    """Invert the template grammar: every color followed by an object is a pair."""
    words = text.replace(",", " ").split()
    pairs = []
    for w, nxt in zip(words, words[1:]):
        if w in data.COLORS and nxt in data.OBJECTS:
            pairs.append((w, nxt))
    return sorted(pairs)


def test_same_seed_is_bit_identical():
    s1 = data.generate_synthetic_dataset(seed=7, num_images=12)
    s2 = data.generate_synthetic_dataset(seed=7, num_images=12)
    for a, b in zip(s1, s2):
        assert grids_equal(a.features, b.features)
        assert a.references == b.references


def test_different_seeds_differ():
    s1 = data.generate_synthetic_dataset(seed=1, num_images=8)
    s2 = data.generate_synthetic_dataset(seed=2, num_images=8)
    assert any(not grids_equal(a.features, b.features) for a, b in zip(s1, s2))


def test_noise_free_single_pair_matches_fixed_embedding():
    samples = data.generate_synthetic_dataset(
        seed=3, num_images=6, max_objects=1, noise_sigma=0.0, feature_dim=16
    )
    for s in samples:
        pairs = parse_reference(s.references[0])
        assert len(pairs) == 1
        color, obj = pairs[0]
        expect = (data.pair_code(color, obj) @ data.projection_matrix(16)).astype(np.float32)
        np.testing.assert_array_equal(s.features.grid[0], expect)
        np.testing.assert_array_equal(s.features.grid[1:], 0.0)


def test_references_parse_back_to_the_scene_multiset():
    samples = data.generate_synthetic_dataset(seed=11, num_images=30, max_objects=5, grid_size=6)
    for s in samples:
        scenes = [parse_reference(r) for r in s.references]
        assert all(sc == scenes[0] for sc in scenes)  # all refs describe one scene
        assert 1 <= len(scenes[0]) <= 5


def test_reference_orders_vary():
    samples = data.generate_synthetic_dataset(seed=5, num_images=40, min_objects=4, max_objects=4)
    varied = 0
    for s in samples:
        orders = {tuple(w for w in r.replace(",", " ").split() if w in data.COLORS) for r in s.references}
        varied += len(orders) > 1
    assert varied > 20


def test_closed_set_limits_enforced():
    for values in (dict(min_objects=10, max_objects=10, grid_size=9), dict(refs_per_image=0),
                   dict(noise_sigma=-0.1), dict(num_images=0), dict(feature_dim=0),
                   dict(min_objects=0), dict(min_objects=3, max_objects=2),
                   dict(max_objects=65, grid_size=70)):
        with pytest.raises(ValueError):
            data.generate_synthetic_dataset(**dict(dict(seed=0, num_images=1), **values))


def test_splits_disjoint_and_stable():
    samples = data.generate_synthetic_dataset(seed=9, num_images=50)
    tr1, va1, te1 = data.split_dataset(samples, seed=4)
    tr2, va2, te2 = data.split_dataset(samples, seed=4)
    ids = lambda part: [s.features.image_id for s in part]
    assert ids(tr1) == ids(tr2) and ids(va1) == ids(va2) and ids(te1) == ids(te2)
    all_ids = ids(tr1) + ids(va1) + ids(te1)
    assert sorted(all_ids) == list(range(50))
    for fractions in ((1.2, -0.1), (0.9, 0.2)):  # no split may be negative or past the whole
        with pytest.raises(ValueError):
            data.split_dataset(samples, seed=4, train_fraction=fractions[0], val_fraction=fractions[1])
    train, val, test = data.split_dataset(samples, seed=4, train_fraction=0.5, val_fraction=0.2)
    assert (len(train), len(val), len(test)) == (25, 10, 15)  # test is what train and val leave
    for n, sizes in ((5, (2, 3, 0)), (7, (4, 3, 0))):  # fractions that sum to 1 leave no test
        parts = data.split_dataset(samples[:n], seed=4, train_fraction=0.5, val_fraction=0.5)
        assert tuple(map(len, parts)) == sizes


def test_feature_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    grids = [data.FeatureGrid(i * 7, rng.standard_normal((5, 8)).astype(np.float32)) for i in range(9)]
    path = tmp_path / "feat.bin"
    data.write_features(path, grids)
    back = data.read_features(path)
    assert len(back) == 9
    for a, b in zip(grids, back):
        assert grids_equal(a, b)


@st.composite
def _grid_lists(draw):
    """Grids of one shape, empty dimensions included, in any dtype the writer
    takes; FeatureGrid itself refuses non-finite entries."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    dtype = np.dtype(draw(st.sampled_from(["<f4", ">f4", "<f8", "<f2", "<i4"])))
    finite = {"allow_nan": False, "allow_infinity": False} if dtype.kind == "f" else {}
    grid = hnp.arrays(dtype, shape, elements=hnp.from_dtype(dtype, **finite))
    return [data.FeatureGrid(draw(st.integers(0, 2 ** 64 - 1)), draw(grid))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None)
@given(_grid_lists())
def test_what_write_features_accepts_reads_back_bit_for_bit(grids):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "feat.bin")
        try:
            data.write_features(path, grids)
        except ValueError:  # an empty grid, a value float32 cannot hold, or an id twice
            g = grids[0].grid
            with np.errstate(over="ignore"):
                assert (0 in g.shape
                        or not all(np.isfinite(x.grid.astype("<f4")).all() for x in grids)
                        or len({x.image_id for x in grids}) < len(grids))
            return
        back = data.read_features(path)
    assert [b.image_id for b in back] == [g.image_id for g in grids]
    for b, g in zip(back, grids):
        # the file holds float32; a float32 grid comes back as itself, NaN payloads too
        assert b.grid.dtype == np.float32 and b.grid.shape == g.grid.shape
        assert b.grid.tobytes() == g.grid.astype("<f4").tobytes()


def test_minimal_feature_file_is_34_bytes(tmp_path):
    path = tmp_path / "one.bin"
    data.write_features(path, [data.FeatureGrid(0, np.zeros((1, 1), dtype=np.float32))])
    assert path.stat().st_size == 34  # 18 header + 8 id + 4 value + 4 crc


def _fixed_grids():
    """Grids built without a random stream, in every layout the writer copies from."""
    base = np.arange(15, dtype=np.float32).reshape(3, 5) / 8 - 1
    return [data.FeatureGrid(0, base),
            data.FeatureGrid(7, (base * 3).astype(">f4")),
            data.FeatureGrid(2 ** 40 + 3, np.asfortranarray(base.astype(np.float64) / 3)),
            data.FeatureGrid(2 ** 64 - 1, np.arange(30, dtype=np.float32).reshape(3, 10)[:, ::2])]


def test_fixed_feature_file_bytes_are_pinned(tmp_path):
    """The sha256 of one small feature file, as the format wrote it before the
    writer streamed; a format change must update it on purpose."""
    path = tmp_path / "feat.bin"
    data.write_features(path, _fixed_grids())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0e22af6c3f98ee2bb8ee99376dc9616878d6e6d8a3b314186674eec6f68eaa92")
    for got, want in zip(data.read_features(path), _fixed_grids()):
        assert got.image_id == want.image_id
        assert got.grid.tobytes() == want.grid.astype("<f4").tobytes()


def test_write_and_read_stream_the_grids(tmp_path):
    """A write holds no copy of the records; a read holds the grids it returns
    plus bounded chunks.  Whole-file copies peaked at about 2x the file on
    write and 3.2x on read."""
    grids = [data.FeatureGrid(i, np.full((9, 32), i, dtype=np.float32)) for i in range(2000)]
    path = tmp_path / "feat.bin"
    written = traced_peak(data.write_features, path, grids)
    size = path.stat().st_size
    assert written < size / 4, (written, size)
    assert traced_peak(data.read_features, path) <= 1.5 * size


def test_truncated_file_reports_lengths(tmp_path):
    path = tmp_path / "feat.bin"
    data.write_features(path, [data.FeatureGrid(1, np.ones((2, 3), dtype=np.float32))])
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[:-5])
    with pytest.raises(ValueError) as exc:
        data.read_features(clipped)
    assert str(len(blob)) in str(exc.value) and str(len(blob) - 5) in str(exc.value)


def test_corrupt_magic_and_checksum_detected(tmp_path):
    path = tmp_path / "feat.bin"
    data.write_features(path, [data.FeatureGrid(1, np.ones((2, 3), dtype=np.float32))])
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="magic"):
        data.read_features(bad_magic)

    blob[20] ^= 0xFF  # flip a payload byte
    bad_crc = tmp_path / "crc.bin"
    bad_crc.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        data.read_features(bad_crc)


def test_every_truncation_and_byte_flip_raises_value_error(tmp_path):
    path = tmp_path / "feat.bin"
    data.write_features(path, [data.FeatureGrid(i, np.full((2, 3), i, dtype=np.float32))
                               for i in range(3)])
    bad = tmp_path / "bad.bin"
    cases = 0
    for corrupt in corrupted_copies(path.read_bytes()):
        bad.write_bytes(corrupt)
        with pytest.raises(ValueError):
            data.read_features(bad)
        cases += 1
    assert cases == 4 * path.stat().st_size


def test_captions_round_trip(tmp_path):
    samples = data.generate_synthetic_dataset(seed=2, num_images=5)
    path = tmp_path / "caps.jsonl"
    data.write_captions(path, samples)
    refs = data.read_captions(path)
    assert set(refs) == {s.features.image_id for s in samples}
    for s in samples:
        assert refs[s.features.image_id] == s.references


def test_captions_reject_malformed(tmp_path):
    path = tmp_path / "caps.jsonl"
    for line in ['{"id": 1}', "not json", "7", '["a dog"]',
                 '{"id": null, "refs": ["a dog"]}', '{"id": 1.7, "refs": ["a dog"]}',
                 '{"id": true, "refs": ["a dog"]}', '{"id": "1", "refs": ["a dog"]}',
                 '{"id": 1, "refs": 5}', '{"id": 1, "refs": []}', '{"id": 1, "refs": ["a dog", 3]}',
                 '{"id": 1, "refs": [""]}', '{"id": 1, "refs": ["a dog", " \\t"]}',
                 '{"id": 0, "refs": ["a dog"]}']:
        path.write_text('{"id": 0, "refs": ["a cat"]}\n' + line + "\n")
        with pytest.raises(ValueError, match="line 2"):
            data.read_captions(path)


_REFERENCE = st.one_of(st.sampled_from(["", " ", " \t\n", "\u3000", "a dog", " a red ball "]),
                       st.text(max_size=6), st.integers(), st.none())
_CAPTION_LINE = st.one_of(
    st.builds(lambda i, refs: json.dumps({"id": i, "refs": refs}),
              st.integers(-3, 3), st.lists(_REFERENCE, max_size=3)),
    st.builds(lambda depth: "[" * depth + "]" * depth, st.sampled_from([1, 10 ** 5])),
    st.sampled_from(["", "   ", "7", "not json", '{"id": 1}', '{"id": 1.5, "refs": ["a"]}',
                     '{"id": 1, "refs": "a dog"}']))


@settings(max_examples=150, deadline=None)
@given(st.lists(_CAPTION_LINE, max_size=5))
def test_read_captions_gives_worded_references_or_a_value_error_naming_a_line(lines):
    """Any JSON-lines file: every line is read back, under an id no other
    line has, with references that each hold a word; or the reader refuses
    the file with a ValueError that names a line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "caps.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        try:
            refs = data.read_captions(path)
        except ValueError as exc:
            assert re.search(r"line \d+", str(exc)), exc
            return
    assert len(refs) == sum(1 for line in lines if line.strip())
    assert all(r.split() for texts in refs.values() for r in texts)


def test_captions_are_read_as_utf8_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "caps.jsonl"
    path.write_bytes('{"id": 0, "refs": ["a café"]}\n\n{"id": 1, "refs": ["a dog"]}\n'.encode("utf-8"))
    assert data.read_captions(path) == {0: ["a café"], 1: ["a dog"]}


def test_write_features_refuses_an_image_twice(tmp_path):
    grids = [data.FeatureGrid(i, np.zeros((1, 2), np.float32)) for i in (4, 5, 4)]
    with pytest.raises(ValueError, match="image 4 has two grids"):
        data.write_features(tmp_path / "feat.bin", grids)
    assert not os.listdir(tmp_path)  # refused before any file is opened


def test_write_features_refuses_no_grids_or_grids_of_two_shapes(tmp_path):
    path = tmp_path / "feat.bin"
    with pytest.raises(ValueError, match="no feature grids"):
        data.write_features(path, [])
    grids = [data.FeatureGrid(0, np.zeros((2, 3), np.float32)),
             data.FeatureGrid(1, np.zeros((3, 2), np.float32))]
    with pytest.raises(ValueError, match="differs from first grid"):
        data.write_features(path, grids)
    assert not os.listdir(tmp_path)  # refused before any file is opened


@pytest.mark.parametrize("grid, match", [(np.zeros(3, np.float32), "2D"),
                                         (np.zeros((1, 2, 3), np.float32), "2D"),
                                         (np.array([[0.0, np.nan]], np.float32), "non-finite"),
                                         (np.array([[np.inf]], np.float32), "non-finite")])
def test_feature_grid_must_be_2d_and_finite(grid, match):
    with pytest.raises(ValueError, match=match):
        data.FeatureGrid(3, grid)


@pytest.mark.parametrize("references", [[], [""], ["a dog", ""], [" "]])
def test_captioned_sample_needs_non_empty_references(references):
    with pytest.raises(ValueError, match="non-empty references"):
        data.CaptionedSample(data.FeatureGrid(3, np.zeros((1, 1), np.float32)), references)
