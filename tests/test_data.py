"""Synthetic scenes: determinism, template inversion, feature file format."""

import numpy as np
import pytest

from meancap import data


def grids_equal(a, b):
    return a.image_id == b.image_id and np.array_equal(a.grid, b.grid)


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
        seed=3, num_images=6, objects_per_image=1, noise_sigma=0.0, feature_dim=16
    )
    for s in samples:
        pairs = data.parse_reference(s.references[0])
        assert len(pairs) == 1
        color, obj = pairs[0]
        expect = data.pair_embedding(color, obj, 16).astype(np.float32)
        np.testing.assert_array_equal(s.features.grid[0], expect)
        np.testing.assert_array_equal(s.features.grid[1:], 0.0)


def test_references_parse_back_to_the_scene_multiset():
    samples = data.generate_synthetic_dataset(seed=11, num_images=30, objects_per_image=(1, 5), grid_size=6)
    for s in samples:
        scenes = [data.parse_reference(r) for r in s.references]
        assert all(sc == scenes[0] for sc in scenes)  # all refs describe one scene
        assert 1 <= len(scenes[0]) <= 5


def test_reference_orders_vary():
    samples = data.generate_synthetic_dataset(seed=5, num_images=40, objects_per_image=4)
    varied = 0
    for s in samples:
        orders = {tuple(w for w in r.replace(",", " ").split() if w in data.COLORS) for r in s.references}
        varied += len(orders) > 1
    assert varied > 20


def test_closed_set_limits_enforced():
    with pytest.raises(ValueError):
        data.generate_synthetic_dataset(seed=0, num_images=1, objects_per_image=10, grid_size=9)
    with pytest.raises(ValueError):
        data.generate_synthetic_dataset(seed=0, num_images=1, refs_per_image=0)


def test_splits_disjoint_and_stable():
    samples = data.generate_synthetic_dataset(seed=9, num_images=50)
    tr1, va1, te1 = data.split_dataset(samples, (0.8, 0.1, 0.1), seed=4)
    tr2, va2, te2 = data.split_dataset(samples, (0.8, 0.1, 0.1), seed=4)
    ids = lambda part: [s.features.image_id for s in part]
    assert ids(tr1) == ids(tr2) and ids(va1) == ids(va2) and ids(te1) == ids(te2)
    all_ids = ids(tr1) + ids(va1) + ids(te1)
    assert sorted(all_ids) == list(range(50))


def test_feature_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    grids = [data.FeatureGrid(i * 7, rng.standard_normal((5, 8)).astype(np.float32)) for i in range(9)]
    path = tmp_path / "feat.bin"
    data.write_features(path, grids)
    back = data.read_features(path)
    assert len(back) == 9
    for a, b in zip(grids, back):
        assert grids_equal(a, b)


def test_minimal_feature_file_is_34_bytes(tmp_path):
    path = tmp_path / "one.bin"
    data.write_features(path, [data.FeatureGrid(0, np.zeros((1, 1), dtype=np.float32))])
    assert path.stat().st_size == 34  # 18 header + 8 id + 4 value + 4 crc


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
                 '{"id": 1, "refs": 5}', '{"id": 1, "refs": []}', '{"id": 1, "refs": ["a dog", 3]}']:
        path.write_text('{"id": 0, "refs": ["a cat"]}\n' + line + "\n")
        with pytest.raises(ValueError, match="line 2"):
            data.read_captions(path)
