"""Beam search vs exhaustive enumeration, greedy equivalence, cached decoder."""

import numpy as np
import pytest

from meancap import decoding as D
from meancap import model as mdl
from meancap.fastdecode import FastDecoder
from meancap.tokenizer import BOS_ID, EOS_ID


def table_model(rng, vocab, max_length, sharpness=1.0):
    """Markov toy model: logits depend on (position, previous token), so it
    needs no parent rows."""
    table = rng.standard_normal((max_length, vocab, vocab)) * sharpness

    def expand(prefixes, parents=None):
        return np.stack([table[len(p) - 1, p[-1]] for p in prefixes])

    return expand


def lsm(row):
    s = row - row.max()
    return s - np.log(np.exp(s).sum())


def greedy(expand, max_length):
    """Argmax decoding; argmax takes the lowest token id on exact ties."""
    h = D.Hypothesis([BOS_ID], 0.0)
    while not h.finished and len(h.ids) < max_length:
        row = np.asarray(expand([h.ids]))[0]
        logp = lsm(row)
        tok = int(np.argmax(logp))
        h = D.Hypothesis(h.ids + [tok], h.logprob + float(logp[tok]),
                         h.logits + [row], tok == EOS_ID)
    return h


def enumerate_all(expand, max_length):
    """Every reachable sequence: EOS-terminated or capped at max_length."""
    leaves = []

    def walk(ids, score):
        logp = lsm(expand([ids])[0])
        for tok in range(len(logp)):
            nids, nscore = ids + [tok], score + float(logp[tok])
            if tok == EOS_ID or len(nids) == max_length:
                leaves.append((nids, nscore))
            else:
                walk(nids, nscore)

    walk([BOS_ID], 0.0)
    leaves.sort(key=lambda x: -x[1])
    return leaves


def test_beam_equals_enumeration_at_full_width():
    rng = np.random.default_rng(50)
    for trial in range(20):
        vocab = int(rng.integers(4, 7))
        expand = table_model(rng, vocab, 4)
        leaves = enumerate_all(expand, 4)
        beam = D.beam_search(expand, k=len(leaves), max_length=4)
        assert len(beam) == len(leaves)
        for hyp, (ids, score) in zip(beam, leaves):
            assert hyp.ids == ids
            assert hyp.logprob == pytest.approx(score, abs=1e-12)


def test_narrow_beam_scores_are_true_sequence_scores():
    rng = np.random.default_rng(51)
    expand = table_model(rng, 5, 4)
    truth = {tuple(ids): score for ids, score in enumerate_all(expand, 4)}
    for hyp in D.beam_search(expand, k=5, max_length=4):
        assert hyp.logprob == pytest.approx(truth[tuple(hyp.ids)], abs=1e-12)


def test_beam_is_sorted_and_sized():
    rng = np.random.default_rng(52)
    expand = table_model(rng, 6, 5)
    beam = D.beam_search(expand, k=4, max_length=5)
    assert len(beam) == 4
    scores = [h.logprob for h in beam]
    assert scores == sorted(scores, reverse=True)
    for h in beam:
        assert h.finished == (h.ids[-1] == EOS_ID)


def test_beam_k1_equals_greedy():
    rng = np.random.default_rng(53)
    for _ in range(10):
        expand = table_model(rng, 5, 6)
        beam = D.beam_search(expand, k=1, max_length=6)
        g = greedy(expand, max_length=6)
        assert beam[0].ids == g.ids
        assert beam[0].logprob == pytest.approx(g.logprob, abs=1e-12)


def test_near_deterministic_model_scores_zero():
    want = [BOS_ID, 4, 3, EOS_ID]

    def expand(prefixes, parents):
        rows = []
        for p in prefixes:
            row = np.full(6, -1000.0)
            row[want[min(len(p), len(want) - 1)]] = 1000.0
            rows.append(row)
        return np.stack(rows)

    beam = D.beam_search(expand, k=3, max_length=6)
    assert beam[0].ids == want
    assert abs(beam[0].logprob) < 1e-6


def test_each_prefix_extends_its_parent_row_of_the_previous_call():
    # the contract an incremental decoder's cache relies on, at widths from 1
    # to past the vocabulary (gate 4's enumeration regime), with beams whose
    # finished hypotheses sit among the live ones
    rng = np.random.default_rng(57)
    for k in range(1, 21):
        table, calls = table_model(rng, int(rng.integers(4, 7)), 5), []

        def expand(prefixes, parents):
            calls.append(([list(p) for p in prefixes], parents))
            return table(prefixes)

        D.beam_search(expand, k=k, max_length=5)
        assert calls[0] == ([[BOS_ID]], None)
        for (previous, _), (prefixes, parents) in zip(calls, calls[1:]):
            assert parents is not None and len(parents) == len(prefixes)
            assert [p[:-1] for p in prefixes] == [previous[r] for r in parents]


def test_retained_logits_rescore_to_logprob():
    rng = np.random.default_rng(54)
    expand = table_model(rng, 6, 5)
    for hyp in D.beam_search(expand, k=4, max_length=5):
        assert len(hyp.logits) == len(hyp.ids) - 1
        assert hyp.rescored() == pytest.approx(hyp.logprob, abs=1e-6)


def test_width_and_vocab_validation():
    rng = np.random.default_rng(55)
    expand = table_model(rng, 4, 4)
    with pytest.raises(ValueError):
        D.beam_search(expand, k=0, max_length=4)
    with pytest.raises(ValueError):
        D.beam_search(expand, k=2, max_length=1)


def test_caption_rejects_beam_wider_than_vocab():
    cfg = tiny_config()
    params = mdl.init_params(cfg, seed=8, dtype=np.float64)
    with pytest.raises(ValueError):
        D.caption_image(params, cfg, np.zeros((4, cfg.feature_dim)), k=cfg.vocab_size + 1)


# --- cached decoder equivalence ---------------------------------------------


def tiny_config(**kw):
    base = dict(vocab_size=9, feature_dim=5, num_encoder_layers=2, num_decoder_layers=2,
                model_dim=16, feedforward_dim=24, num_heads=4, num_memory_slots=2,
                dropout_rate=0.0, max_length=8)
    base.update(kw)
    return mdl.ModelConfig(**base)


# expand calls in beam order, with each prefix's row in the previous call:
# (BOS, 4) has two children, (BOS, 5) is dropped, and a lone [BOS] starts over
BEAM_ORDER_CALLS = [
    ([[BOS_ID]], None),
    ([[BOS_ID, 4], [BOS_ID, 5], [BOS_ID, 6]], [0, 0, 0]),
    ([[BOS_ID, 4, 7], [BOS_ID, 6, 2], [BOS_ID, 4, 3]], [0, 2, 0]),
    ([[BOS_ID, 4, 3, 8], [BOS_ID, 6, 2, 5]], [2, 1]),
    ([[BOS_ID]], None),
    ([[BOS_ID, 8], [BOS_ID, 4]], [0, 0]),
]


@pytest.mark.parametrize("mesh", [False, True])
def test_fast_decoder_matches_slow_path(mesh):
    rng = np.random.default_rng(56)
    cfg = tiny_config(mesh_enabled=mesh)
    params = mdl.init_params(cfg, seed=3, dtype=np.float64)
    enc = mdl.encode(rng.standard_normal((4, cfg.feature_dim)), params, cfg)
    slow = D.model_expander(params, cfg, enc)
    fast = FastDecoder(params, cfg, enc)
    for prefixes, parents in BEAM_ORDER_CALLS:
        np.testing.assert_allclose(fast.expand(prefixes, parents), slow(prefixes, parents),
                                   atol=1e-9)


@pytest.mark.parametrize("mesh", [False, True], ids=["plain", "mesh"])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_fast_and_slow_beams_agree_on_real_model(mesh, dtype, tol):
    rng = np.random.default_rng(58)
    cfg = tiny_config(mesh_enabled=mesh)
    params = mdl.init_params(cfg, seed=5, dtype=dtype)
    enc = mdl.encode(rng.standard_normal((4, cfg.feature_dim)), params, cfg)
    slow_beam = D.beam_search(D.model_expander(params, cfg, enc), k=4, max_length=cfg.max_length)
    fast_beam = D.beam_search(FastDecoder(params, cfg, enc).expand, k=4, max_length=cfg.max_length)
    assert [h.ids for h in slow_beam] == [h.ids for h in fast_beam]
    for a, b in zip(slow_beam, fast_beam):
        assert a.logprob == pytest.approx(b.logprob, abs=tol)


def test_fast_decoder_validates_prefixes():
    cfg = tiny_config()
    params = mdl.init_params(cfg, seed=6, dtype=np.float64)
    enc = mdl.encode(np.zeros((4, cfg.feature_dim)), params, cfg)
    fast = FastDecoder(params, cfg, enc)
    with pytest.raises(ValueError, match="previous call"):
        fast.expand([[BOS_ID, 4]], [0])  # nothing decoded yet
    fast.expand([[BOS_ID]], None)
    with pytest.raises(ValueError, match="previous call"):
        fast.expand([[BOS_ID, 4]], None)  # would decode 4 at position 0
    prefix, parents = [BOS_ID], None
    for _ in range(cfg.max_length):  # the last position is max_length - 1
        fast.expand([prefix], parents)
        prefix, parents = prefix + [3], [0]
    with pytest.raises(ValueError, match="max_length"):
        fast.expand([prefix], parents)


def test_caption_image_end_to_end():
    rng = np.random.default_rng(59)
    cfg = tiny_config()
    params = mdl.init_params(cfg, seed=7, dtype=np.float64)
    beam = D.caption_image(params, cfg, rng.standard_normal((4, cfg.feature_dim)), k=3)
    assert len(beam) == 3
    for h in beam:
        assert h.ids[0] == BOS_ID
        assert h.finished == (h.ids[-1] == EOS_ID)
        assert len(h.ids) <= cfg.max_length
