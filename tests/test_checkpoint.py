"""Checkpoint container: bit-exact round trips and corruption detection."""

import dataclasses
import hashlib
import json
import os
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from meancap import checkpoint
from meancap.checkpoint import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Checkpoint,
                                load_checkpoint, save_checkpoint)
from meancap.model import ModelConfig
from meancap.tokenizer import Vocabulary
from meancap.training import TrainState, state_from_checkpoint, state_to_checkpoint


def _make_checkpoint(rng):
    groups = {
        "online": {
            "a.weight": rng.normal(size=(4, 6)).astype(np.float32),
            "a.bias": rng.normal(size=(6,)).astype(np.float32),
        },
        "target": {
            "a.weight": rng.normal(size=(4, 6)).astype(np.float32),
            "a.bias": rng.normal(size=(6,)).astype(np.float32),
        },
        "adam_m": {"a.weight": rng.normal(size=(4, 6)), "a.bias": np.zeros(6)},
        "adam_v": {"a.weight": rng.normal(size=(4, 6)) ** 2, "a.bias": np.zeros(6)},
    }
    return Checkpoint(
        config={"model_dim": 16, "vocab_size": 9},
        vocab={"tokens": ["<pad>", "<bos>", "<eos>", "a</w>", "b</w>"], "merges": [["a", "b</w>"]]},
        step=17,
        adam_t=12,
        seed=5,
        stage="xe",
        momentum=0.999,
        lambda_kd=0.1,
        groups=groups,
        best={"step": 10, "cider_target": 0.5},
    )


def assert_same_checkpoint(back, ckpt):
    """Every field equal; every array bit for bit, in little-endian order."""
    for f in dataclasses.fields(Checkpoint):
        if f.name != "groups":
            assert getattr(back, f.name) == getattr(ckpt, f.name), f.name
    assert {g: set(p) for g, p in back.groups.items()} == {g: set(p) for g, p in ckpt.groups.items()}
    for group in ckpt.groups:
        for name, arr in ckpt.groups[group].items():
            want = arr.astype(arr.dtype.newbyteorder("<"))
            got = back.groups[group][name]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = _make_checkpoint(rng)
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)

    assert (back.step, back.adam_t, back.seed) == (17, 12, 5)
    assert (back.stage, back.momentum, back.lambda_kd) == ("xe", 0.999, 0.1)
    assert_same_checkpoint(back, ckpt)


def _header(path) -> dict:
    blob = path.read_bytes()
    (head_len,) = struct.unpack_from("<I", blob, 6)
    return json.loads(blob[10:10 + head_len])


def _fixed_checkpoint():
    """A small checkpoint built without a random stream, so its bytes are fixed."""
    w = np.arange(12, dtype=np.float32).reshape(3, 4) / 8
    groups = {"online": {"a.weight": w, "a.bias": np.float32([0.5, -1.0, 2.0, 0.25])},
              "target": {"a.weight": w * 2, "a.bias": np.zeros(4, np.float32)},
              "adam_m": {"a.weight": w.astype(np.float64) / 3, "a.bias": np.ones(4)},
              "adam_v": {"a.weight": (w.astype(np.float64) / 3) ** 2, "a.bias": np.full(4, 1e-8)}}
    return Checkpoint(config={"model_dim": 16, "vocab_size": 9},
                      vocab={"tokens": ["<pad>", "<bos>", "<eos>", "a</w>", "b</w>"],
                             "merges": [["a", "b</w>"]]},
                      step=17, adam_t=12, seed=5, stage="scst", momentum=0.999, lambda_kd=0.1,
                      groups=groups, best={"step": 10, "cider_target": 0.5})


def test_header_keys_are_pinned(tmp_path):
    """A new Checkpoint field would change every file: it must be added here on purpose."""
    save_checkpoint(tmp_path / "run.ckpt", _fixed_checkpoint())
    assert set(_header(tmp_path / "run.ckpt")) == {
        "adam_t", "best", "config", "groups", "lambda_kd", "momentum", "seed", "stage", "step",
        "version", "vocab"}


def test_fixed_checkpoint_bytes_are_pinned(tmp_path):
    """The sha256 of one small checkpoint, as the format wrote it before its header
    was built from the fields of Checkpoint; a format change must update it on purpose."""
    save_checkpoint(tmp_path / "run.ckpt", _fixed_checkpoint())
    assert hashlib.sha256((tmp_path / "run.ckpt").read_bytes()).hexdigest() == (
        "6d496e77079ba80e978e02ae6ff65e963c98687c31b21514048e63e852a52084")
    assert_same_checkpoint(load_checkpoint(tmp_path / "run.ckpt"), _fixed_checkpoint())


_TEXT = st.text(max_size=6)
_JSON = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT
# the same values in C order, in Fortran order, or as a view with gaps
# between elements that walks memory backwards
_LAYOUTS = [lambda a: a, np.asfortranarray, lambda a: np.flip(np.stack([np.flip(a)] * 2, axis=-1)[..., 0])]
# any shape, 0-d and empty included, in any byte order and layout; NaN payloads too
_ARRAYS = st.tuples(
    st.sampled_from(["<f2", "<f4", ">f4", "<f8", ">f8", "<i4"]).flatmap(
        lambda d: hnp.arrays(d, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))),
    st.sampled_from(_LAYOUTS)).map(lambda drawn: drawn[1](drawn[0]))


@st.composite
def _checkpoints(draw):
    """Any checkpoint save_checkpoint takes; an integer array it must refuse."""
    ints = st.integers(0, 2 ** 40)
    return Checkpoint(
        config=draw(st.dictionaries(_TEXT, _JSON, max_size=4)),
        vocab={"tokens": draw(st.lists(_TEXT, max_size=5)),
               "merges": draw(st.lists(st.lists(_TEXT, min_size=2, max_size=2), max_size=3))},
        step=draw(ints), adam_t=draw(ints), seed=draw(ints), stage=draw(_TEXT),
        momentum=draw(st.floats(allow_nan=False)), lambda_kd=draw(st.floats(allow_nan=False)),
        groups=draw(st.dictionaries(_TEXT, st.dictionaries(_TEXT, _ARRAYS, max_size=3),
                                    max_size=3)),
        best=draw(st.none() | st.dictionaries(_TEXT, _JSON, max_size=3)),
    )


@settings(max_examples=200, deadline=None)
@given(_checkpoints())
def test_what_save_checkpoint_accepts_loads_back_bit_for_bit(ckpt):
    floats = all(a.dtype.kind == "f" for params in ckpt.groups.values() for a in params.values())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ckpt")
        try:
            save_checkpoint(path, ckpt)
        except ValueError:
            assert not floats and os.listdir(tmp) == []
            return
        assert floats
        assert_same_checkpoint(load_checkpoint(path), ckpt)


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    ckpt = _make_checkpoint(rng)
    save_checkpoint(tmp_path / "a.ckpt", ckpt)
    save_checkpoint(tmp_path / "b.ckpt", ckpt)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_corrupted_blob_detected(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(2)))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(3)))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(4)))
    blob = bytearray(path.read_bytes())
    # the CRC covers the payload, not the preamble, so this stays "valid"
    struct.pack_into("<H", blob, 4, CHECKPOINT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(5)))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_bytes(blob[:5])
    with pytest.raises(ValueError, match="short"):
        load_checkpoint(path)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(6)))
    before = path.read_bytes()

    class BrokenZlib:
        @staticmethod
        def crc32(data):
            raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "zlib", BrokenZlib)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _make_checkpoint(np.random.default_rng(7)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).step == 17
    assert os.listdir(tmp_path) == ["last.ckpt"]  # no temporary file left behind


def with_header_keys(src, dst, drop=(), **keys):
    """Copy a checkpoint with header keys added or dropped, as an older writer left them."""
    header = dict(_header(src), **keys)
    for key in drop:
        del header[key]
    return with_header(src, dst, header)


def with_header(src, dst, header):
    """Copy a checkpoint with ``header`` as its JSON header, checksum redone."""
    with open(src, "rb") as fh:
        blob = fh.read()
    _, _, head_len = struct.unpack_from("<4sHI", blob, 0)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = head + blob[10 + head_len:-4]
    with open(dst, "wb") as fh:
        fh.write(struct.pack("<4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(head))
                 + payload + struct.pack("<I", zlib.crc32(payload)))
    return str(dst)


def test_header_with_retired_use_ema_key_loads(tmp_path):
    """Checkpoints written while the header still carried "use_ema", or
    "extra" with the SCST stage start, load."""
    ckpt = _make_checkpoint(np.random.default_rng(8))
    save_checkpoint(tmp_path / "new.ckpt", ckpt)
    for retired in ({"use_ema": True}, {"extra": {"stage_start": 0}}):
        back = load_checkpoint(with_header_keys(tmp_path / "new.ckpt", tmp_path / "old.ckpt",
                                                **retired))
        assert (back.step, back.adam_t, back.momentum, back.best) == (17, 12, 0.999, ckpt.best)
        for group in ckpt.groups:
            for name, arr in ckpt.groups[group].items():
                assert back.groups[group][name].tobytes() == arr.tobytes()


def test_header_without_best_loads(tmp_path):
    """``best`` has a default, so a header without it loads; any other field is required."""
    save_checkpoint(tmp_path / "run.ckpt", _fixed_checkpoint())
    back = load_checkpoint(with_header_keys(tmp_path / "run.ckpt", tmp_path / "old.ckpt",
                                            drop=("best",)))
    assert back.best is None and back.step == 17
    with pytest.raises(ValueError, match="stage"):
        load_checkpoint(with_header_keys(tmp_path / "run.ckpt", tmp_path / "bad.ckpt",
                                         drop=("best", "stage")))


def corrupted_copies(blob: bytes):
    """Every truncation of ``blob``, then every byte flipped three ways."""
    for n in range(len(blob)):
        yield blob[:n]
    for i in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[i] ^= mask
            yield bytes(bad)


def test_every_truncation_and_byte_flip_raises_value_error(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(9)))
    bad = tmp_path / "bad.ckpt"
    cases = 0
    for corrupt in corrupted_copies(path.read_bytes()):
        bad.write_bytes(corrupt)
        with pytest.raises(ValueError):
            load_checkpoint(bad)
        cases += 1
    assert cases == 4 * path.stat().st_size


@pytest.mark.parametrize("part, value", [(1, [2 ** 63]), (1, [2 ** 70, 0]), (1, [-1, 6]),
                                         (1, [4.0, 6]), (1, [True, 6]), (1, "46"),
                                         (2, "|O"), (2, "V0"), (2, "<i8"), (2, 8), (2, [["a", "<f8"]]),
                                         (2, "x"), (2, "02")])
def test_listing_with_impossible_shape_or_dtype_raises_value_error(tmp_path, part, value):
    # the listing is outside input: no size or dtype reaches numpy unchecked
    save_checkpoint(tmp_path / "run.ckpt", _make_checkpoint(np.random.default_rng(10)))
    blob = (tmp_path / "run.ckpt").read_bytes()
    groups = json.loads(blob[10:10 + struct.unpack_from("<I", blob, 6)[0]])["groups"]
    groups["adam_m"][0][part] = value
    with pytest.raises(ValueError):
        load_checkpoint(with_header_keys(tmp_path / "run.ckpt", tmp_path / "bad.ckpt", groups=groups))


def test_header_nested_too_deeply_raises_value_error(tmp_path):
    head = b"[" * 100000
    path = tmp_path / "deep.ckpt"
    path.write_bytes(struct.pack("<4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(head))
                     + head + struct.pack("<I", zlib.crc32(head)))
    with pytest.raises(ValueError, match="nests too deeply"):
        load_checkpoint(path)


def test_group_listing_that_is_not_a_list_raises_value_error(tmp_path):
    save_checkpoint(tmp_path / "run.ckpt", _make_checkpoint(np.random.default_rng(10)))
    groups = dict(_header(tmp_path / "run.ckpt")["groups"], adam_m={"a.bias": [[6], "<f8"]})
    with pytest.raises(ValueError, match="'adam_m' is not a listing"):
        load_checkpoint(with_header_keys(tmp_path / "run.ckpt", tmp_path / "bad.ckpt", groups=groups))


def test_file_cut_short_after_its_checksum_passed_raises_value_error(tmp_path, monkeypatch):
    """A file truncated in place while it is read (only an outside writer
    does that: saves replace the file whole) ends inside an array."""
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, _make_checkpoint(np.random.default_rng(10)))
    check_crc = checkpoint.check_crc

    def check_then_cut(fh, size):
        check_crc(fh, size)
        os.truncate(path, path.stat().st_size - 6)  # the CRC and two bytes of the last blob

    monkeypatch.setattr(checkpoint, "check_crc", check_then_cut)
    with pytest.raises(ValueError, match="file ends inside an array"):
        load_checkpoint(path)


def test_magic_constant():
    assert CHECKPOINT_MAGIC == b"CMLC" and len(CHECKPOINT_MAGIC) == 4


def _tiny_state_checkpoint(tmp_path):
    cfg = ModelConfig(vocab_size=5, feature_dim=4, model_dim=8, feedforward_dim=8, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1)
    vocab = Vocabulary(["<pad>", "<bos>", "<eos>", "a</w>", "b</w>"], [])
    save_checkpoint(tmp_path / "run.ckpt", state_to_checkpoint(TrainState.create(cfg, seed=1), vocab, "xe"))
    return tmp_path / "run.ckpt"


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "groups"},
    lambda h: dict(h, vocab=3),
    lambda h: dict(h, vocab={"tokens": []}),
    lambda h: dict(h, vocab={"tokens": h["vocab"]["tokens"], "merges": [["a"]]}),
    lambda h: dict(h, config=dict(h["config"], heads=2)),
    lambda h: dict(h, config=[]),
    lambda h: dict(h, momentum="0.9"),
    lambda h: dict(h, groups={("x" if g == "target" else g): e for g, e in h["groups"].items()}),
    lambda h: dict(h, groups={**h["groups"], "adam_m": [["a.weight", [1], "<f4", 0]]}),
    lambda h: list(h),
], ids=["no-groups", "vocab-3", "vocab-no-merges", "merge-of-one", "config-key",
        "config-list", "momentum-text", "no-target-group", "listing-entry", "list"])
def test_checksum_valid_header_of_the_wrong_form_raises_value_error(tmp_path, edit):
    """A header edit that keeps the checksum reaches neither a TypeError nor a KeyError."""
    path = _tiny_state_checkpoint(tmp_path)
    bad = with_header(path, tmp_path / "bad.ckpt", edit(_header(path)))
    with pytest.raises(ValueError):
        state_from_checkpoint(load_checkpoint(bad))
    state_from_checkpoint(load_checkpoint(path))  # the unedited file is whole


def test_every_field_train_state_shares_with_checkpoint_survives_a_round_trip(tmp_path):
    shared = ({f.name for f in dataclasses.fields(TrainState)}
              & {f.name for f in dataclasses.fields(Checkpoint)})
    assert shared >= {"config", "step", "adam_t", "seed", "momentum", "lambda_kd", "best"}
    cfg = ModelConfig(vocab_size=5, feature_dim=4, model_dim=8, feedforward_dim=8, num_heads=2)
    vocab = Vocabulary(["<pad>", "<bos>", "<eos>", "a</w>", "b</w>"], [])
    state = TrainState.create(cfg, seed=9, momentum=0.5, lambda_kd=0.25)
    state.step, state.adam_t = 17, 12
    state.best = {"step": 16, "cider_target": 0.5, "cider_online": 0.25}
    fresh = TrainState.create(dataclasses.replace(cfg, max_length=9), seed=0)
    save_checkpoint(tmp_path / "run.ckpt", state_to_checkpoint(state, vocab, "xe"))
    back, _ = state_from_checkpoint(load_checkpoint(tmp_path / "run.ckpt"))
    for name in sorted(shared):
        # each value differs from a fresh state's, so a field left out shows
        assert getattr(back, name) == getattr(state, name) != getattr(fresh, name), name


def traced_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` holds at its peak, what it returns included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_and_load_stream_the_parameters(tmp_path):
    """A save holds no copy of the payload; a load holds the parameters it
    returns plus bounded chunks.  Whole-file copies peaked at about 3x the
    file on both sides."""
    cfg = ModelConfig(vocab_size=64, mesh_enabled=True)
    vocab = Vocabulary(["<pad>", "<bos>", "<eos>"] + [f"w{i}</w>" for i in range(61)], [])
    ckpt = state_to_checkpoint(TrainState.create(cfg, seed=0), vocab, "xe")
    path = tmp_path / "run.ckpt"
    saved = traced_peak(save_checkpoint, path, ckpt)
    size = path.stat().st_size
    assert size > 4e6
    assert saved < size / 4, (saved, size)
    assert traced_peak(load_checkpoint, path) <= 1.25 * size
