"""Dropout streams: one generator per model and step, masks read in draw order."""

import math

import numpy as np

from meancap import rng as R
from meancap import training as tr
from meancap.data import caption_corpus, generate_synthetic_dataset
from meancap.model import ModelConfig
from meancap.tokenizer import build_vocab


def masks(stream, shapes, rate=0.1):
    return [stream.keep(shape, rate) for shape in shapes]


def test_a_desk_xe_step_builds_one_generator_per_model(monkeypatch):
    samples = generate_synthetic_dataset(seed=1, num_images=16)
    vocab = build_vocab(caption_corpus(), 200)
    cfg = ModelConfig(vocab_size=len(vocab.tokens))
    assert cfg.dropout_rate > 0
    state = tr.TrainState.create(cfg, seed=1)
    batch = [(s.features.grid, tr.sequence_ids(s.references[0], vocab, cfg.max_length))
             for s in samples]
    ro, rt = R.KeyedRng(1, R.ROLE_ONLINE), R.KeyedRng(1, R.ROLE_TARGET)
    original, built = R.generator, []

    def counted(*key):
        built.append(key)
        return original(*key)

    monkeypatch.setattr(R, "generator", counted)
    ro.begin_step(1)
    rt.begin_step(1)
    tr.xe_step(state, batch, 1e-3, ro, rt)
    assert built == [(1, R.ROLE_ONLINE, 1), (1, R.ROLE_TARGET, 1)]


def test_the_kept_share_is_one_minus_the_rounded_up_rate():
    n = 1 << 22
    kept = R.KeyedRng(7, R.ROLE_ONLINE).keep((n,), 0.1).mean()
    p = 1 - math.ceil(0.1 * 65536) / 65536
    assert p == 1 - 6554 / 65536
    assert abs(kept - p) < 5 * math.sqrt(p * (1 - p) / n)


def test_any_positive_rate_drops_something():
    stream = R.KeyedRng(3, R.ROLE_TARGET)
    for rate in (5e-324, 1e-9, 2.0 ** -17):
        assert not stream.keep((1 << 21,), rate).all()  # about 32 drops each
    assert stream.keep((1 << 21,), 0.0).all()


def test_one_stream_never_moves_the_others_masks():
    shapes = [(4, 7), (3,), (2, 5, 6)]
    online, target = R.KeyedRng(5, R.ROLE_ONLINE), R.KeyedRng(5, R.ROLE_TARGET)
    online.begin_step(2)
    alone = masks(online, shapes)
    online.begin_step(2)
    target.begin_step(2)
    interleaved = []
    for shape in shapes:
        masks(target, [shape, (9, 9)])
        interleaved += masks(online, [shape])
    assert all(np.array_equal(a, b) for a, b in zip(alone, interleaved, strict=True))
    target.begin_step(2)
    assert not all(np.array_equal(a, b) for a, b in zip(alone, masks(target, shapes)))


def test_begin_step_replays_the_masks_of_that_step():
    shapes = [(16, 8), (16, 8), (5,)]
    stream = R.KeyedRng(11, R.ROLE_ONLINE)
    stream.begin_step(4)
    first = masks(stream, shapes)
    stream.begin_step(5)
    later = masks(stream, shapes)
    stream.begin_step(4)
    again = masks(stream, shapes)
    assert all(np.array_equal(a, b) for a, b in zip(first, again, strict=True))
    assert not np.array_equal(first[0], later[0])
    assert not np.array_equal(first[0], first[1])  # each draw reads the next block
