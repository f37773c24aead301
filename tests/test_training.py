"""Twin-model training: EMA algebra, stop-gradients, SCST mechanics, resume."""

import functools
import json
import math
import shutil
import tracemalloc

import numpy as np
import pytest

from gradcheck import check_gradients
from meancap import rng as R
from meancap import tensor as T
from meancap import training as tr
from meancap.assignment import BagEmbedder, hungarian, pairing_cost
from meancap.checkpoint import load_checkpoint
from meancap.data import caption_corpus, generate_synthetic_dataset, split_dataset
from meancap.decoding import Hypothesis, beam_search, caption_image
from meancap.fastdecode import FastDecoder
from meancap.metrics import DocumentFrequency, reference_vectors, reward
from meancap.model import ModelConfig, decode_logits, encode, init_params
from meancap.rng import KeyedRng, ROLE_BATCH, ROLE_ONLINE, ROLE_TARGET, generator
from meancap.tokenizer import (BOS_ID, EOS_ID, Vocabulary, build_vocab, detokenize_ids,
                               tokenize)
from test_tensor import constant, cross_entropy_oracle


def tiny_setup(seed=3, num_images=10, model_dim=16, **cfg_over):
    samples = generate_synthetic_dataset(seed=seed, num_images=num_images,
                                         max_objects=2, refs_per_image=3)
    vocab = build_vocab(caption_corpus(), 100)
    defaults = dict(vocab_size=len(vocab.tokens), model_dim=model_dim,
                    feedforward_dim=2 * model_dim, num_heads=2,
                    num_encoder_layers=1, num_decoder_layers=1,
                    num_memory_slots=2, max_length=24)
    defaults.update(cfg_over)
    return samples, vocab, ModelConfig(**defaults)


def snapshot(params):
    return {n: p.data.tobytes() for n, p in params.items()}


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------


def test_noam_schedule_shape():
    d, w = 64, 400
    assert tr.noam_lr(1, d, w) == d ** -0.5 * w ** -1.5
    assert tr.noam_lr(w, d, w) == d ** -0.5 * w ** -0.5  # both branches meet here
    before = [tr.noam_lr(s, d, w) for s in range(1, w + 1)]
    assert all(a < b for a, b in zip(before, before[1:]))
    assert tr.noam_lr(w + 1, d, w) < tr.noam_lr(w, d, w) > tr.noam_lr(4 * w, d, w)
    with pytest.raises(ValueError):
        tr.noam_lr(0, d, w)


def test_adam_zero_gradient_is_identity():
    rng = np.random.default_rng(0)
    p = T.parameter(rng.normal(size=(5, 3)).astype(np.float32))
    before = p.data.tobytes()
    m = {"p": np.zeros_like(p.data)}
    v = {"p": np.zeros_like(p.data)}
    tr.adam_update({"p": p}, m, v, t=1, lr=1e-3)
    assert p.data.tobytes() == before
    assert not m["p"].any() and not v["p"].any()


def test_adam_matches_manual_reference():
    rng = np.random.default_rng(1)
    x = rng.normal(size=7)
    g1, g2 = rng.normal(size=7), rng.normal(size=7)
    p = T.parameter(x.copy())
    m = {"p": np.zeros(7)}
    v = {"p": np.zeros(7)}
    ref, rm, rv = x.copy(), np.zeros(7), np.zeros(7)
    for t, g in [(1, g1), (2, g2)]:
        p.grad = g.copy()
        tr.adam_update({"p": p}, m, v, t=t, lr=0.01)
        rm = 0.9 * rm + 0.1 * g
        rv = 0.98 * rv + 0.02 * g * g
        ref = ref - 0.01 * (rm / (1 - 0.9 ** t)) / (np.sqrt(rv / (1 - 0.98 ** t)) + 1e-9)
    assert np.allclose(p.data, ref, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# EMA: closed form and ordering
# ---------------------------------------------------------------------------


def unrolled_ema(theta_t0, onlines, lam):
    """theta_t after T steps, written as the explicit weighted sum."""
    steps = len(onlines)
    acc = (lam ** steps) * theta_t0
    for s, o in enumerate(onlines, start=1):
        acc = acc + (1.0 - lam) * (lam ** (steps - s)) * o
    return acc


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("steps", [1, 5, 50])
def test_ema_closed_form(lam, steps):
    rng = np.random.default_rng(1000 * steps + int(lam * 10))
    shapes = {"w": (3, 4), "b": (6,)}
    target = {n: T.parameter(rng.normal(size=s)) for n, s in shapes.items()}
    online = {n: T.parameter(rng.normal(size=s)) for n, s in shapes.items()}
    t0 = {n: p.data.copy() for n, p in target.items()}
    t0_bytes = {n: p.data.tobytes() for n, p in target.items()}
    history = {n: [] for n in shapes}
    for _ in range(steps):
        for n in shapes:
            online[n].data = rng.normal(size=shapes[n])
            history[n].append(online[n].data.copy())
        tr.ema_update(target, online, lam)
    for n in shapes:
        want = unrolled_ema(t0[n], history[n], lam)
        assert np.max(np.abs(target[n].data - want)) < 1e-12
        if lam == 1.0:
            assert target[n].data.tobytes() == t0_bytes[n]
        if lam == 0.0:
            assert target[n].data.tobytes() == history[n][-1].tobytes()


def test_ema_momentum_validated():
    p = {"x": T.parameter(np.ones(2))}
    with pytest.raises(ValueError):
        tr.ema_update(p, p, 1.5)
    with pytest.raises(ValueError):
        tr.ema_update(p, p, -0.1)


def test_ema_uses_post_update_online():
    # after one xe step the target must blend the *new* online weights
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=9)
    t_before = {n: p.data.copy() for n, p in state.target.items()}
    ids = tr.sequence_ids(samples[0].references[0], vocab, cfg.max_length)
    ro, rt = KeyedRng(9, ROLE_ONLINE), KeyedRng(9, 3)
    ro.begin_step(1)
    rt.begin_step(1)
    tr.xe_step(state, [(samples[0].features.grid, ids)], 1e-3, ro, rt)
    for n, p in state.target.items():
        want = 0.999 * t_before[n] + 0.001 * state.online[n].data
        assert p.data.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# stop-gradient into the target model
# ---------------------------------------------------------------------------


def test_xe_loss_never_reaches_target():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=4)
    batch = [(s.features.grid, tr.sequence_ids(s.references[0], vocab, cfg.max_length))
             for s in samples[:2]]
    ro, rt = KeyedRng(4, ROLE_ONLINE), KeyedRng(4, 3)
    ro.begin_step(1)
    rt.begin_step(1)
    tr.xe_step(state, batch, 1e-3, ro, rt)
    assert all(p.grad is None for p in state.target.values())
    # the online side did receive gradient
    assert any(p.grad is not None and np.abs(p.grad).max() > 0
               for p in state.online.values())


def test_a_desk_xe_step_holds_only_what_a_later_step_reads():
    # backward frees the graph as it goes, no vertex keeps a value its
    # backward does not read, and the target pass runs before the online
    # graph exists; a step that kept every interior gradient, closure and
    # parent link until it returned peaked at about 20 MB here, and one
    # whose vertices kept every value at about 8 MB
    samples = generate_synthetic_dataset(seed=1, num_images=16)
    vocab = build_vocab(caption_corpus(), 200)
    cfg = ModelConfig(vocab_size=len(vocab.tokens))
    state = tr.TrainState.create(cfg, seed=1)
    batch = [(s.features.grid, tr.sequence_ids(s.references[0], vocab, cfg.max_length))
             for s in samples]
    ro, rt = KeyedRng(1, ROLE_ONLINE), KeyedRng(1, ROLE_TARGET)
    ro.begin_step(1)
    rt.begin_step(1)
    tracemalloc.start()
    try:
        tr.xe_step(state, batch, 1e-3, ro, rt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6  # about 5 MB


def test_scst_loss_never_reaches_target():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=6)
    train = samples[:4]
    df = DocumentFrequency([s.references for s in train])
    emb = BagEmbedder.from_corpus(
        [tokenize(r, vocab).ids for s in train for r in s.references],
        len(vocab.tokens))
    scst = tr.ScstConfig(strategy="all", beam_size=3, learning_rate=1e-4)
    batch = [(s.features.grid, s.references) for s in train[:2]]
    tr.scst_step(state, batch, scst, df, vocab, emb)
    assert all(p.grad is None for p in state.target.values())


# ---------------------------------------------------------------------------
# reduction: lambda_kd = 0 is plain single-model XE, bit for bit
# ---------------------------------------------------------------------------


def plain_xe_loop(samples, vocab, cfg, seed, steps, batch_size, warmup):
    """Single-model XE trainer written independently of TrainState.

    Shares the leaf building blocks (forward ops, Adam, schedule) but none
    of the twin-model plumbing; used to pin down what the full pipeline
    must collapse to when distillation and the target model are inert.
    Like the pipeline, it encodes and decodes each step's batch in one pass
    (right-padded references, a step mask from their lengths), so the
    dropout draws cover the same batched shapes.
    """
    params = init_params(cfg, seed, np.float32)
    m = {n: np.zeros_like(p.data) for n, p in params.items()}
    v = {n: np.zeros_like(p.data) for n, p in params.items()}
    rng = KeyedRng(seed, ROLE_ONLINE)
    losses = []
    for step in range(1, steps + 1):
        idx = generator(seed, ROLE_BATCH, step, 0).permutation(len(samples))[:batch_size]
        u = generator(seed, ROLE_BATCH, step, 1).random(len(idx))
        rng.begin_step(step)
        grids, seqs = [], []
        for j, i in enumerate(idx):
            s = samples[int(i)]
            ref = s.references[int(u[j] * len(s.references))]
            ids = tokenize(ref, vocab).ids
            if len(ids) > cfg.max_length:
                ids = ids[:cfg.max_length - 1] + [EOS_ID]
            grids.append(s.features.grid)
            seqs.append(ids)
        width = max(len(ids) for ids in seqs)
        padded = np.zeros((len(seqs), width), dtype=np.int64)
        mask = np.zeros((len(seqs), width - 1))
        for row, ids in enumerate(seqs):
            padded[row, :len(ids)] = ids
            mask[row, :len(ids) - 1] = 1.0
        enc = encode(np.stack(grids), params, cfg, rng=rng)
        logits = decode_logits(padded[:, :-1], enc, params, cfg, rng=rng)
        loss = cross_entropy_oracle(logits, padded[:, 1:], mask)
        losses.append(float(loss.data))
        for p in params.values():
            p.zero_grad()
        T.backward(loss)
        tr.adam_update(params, m, v, step, tr.noam_lr(step, cfg.model_dim, warmup))
    return params, losses


def test_lambda_zero_reduces_to_plain_xe():
    samples, vocab, cfg = tiny_setup(num_images=8)
    seed, steps, bs, warmup = 11, 5, 3, 50

    state = tr.TrainState.create(cfg, seed, lambda_kd=0.0)
    loop = tr.LoopConfig(steps=steps, batch_size=bs, warmup=warmup)
    tr.train_xe(state, samples, [], vocab, loop)

    ref_params, _ = plain_xe_loop(samples, vocab, cfg, seed, steps, bs, warmup)
    assert snapshot(state.online) == snapshot(ref_params)


def test_lambda_positive_diverges_from_plain_xe():
    # guard against the reduction test passing because KD is silently dead
    samples, vocab, cfg = tiny_setup(num_images=8)
    seed, steps, bs, warmup = 11, 3, 3, 50
    state = tr.TrainState.create(cfg, seed, lambda_kd=0.5)
    # decouple target so its logits differ and the KD term has teeth
    for p in state.target.values():
        p.data = p.data + np.float32(0.01)
    tr.train_xe(state, samples, [], vocab,
                tr.LoopConfig(steps=steps, batch_size=bs, warmup=warmup))
    ref_params, _ = plain_xe_loop(samples, vocab, cfg, seed, steps, bs, warmup)
    assert snapshot(state.online) != snapshot(ref_params)


# ---------------------------------------------------------------------------
# SCST mechanics
# ---------------------------------------------------------------------------


def test_advantage_coefficients_exact():
    assert tr.advantage([1.0, 0.0]) == [0.5, -0.5]
    assert tr.advantage([0.3, 0.3, 0.3]) == [0.0, 0.0, 0.0]
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.random(5).tolist()
        adv = tr.advantage(r)
        assert abs(sum(adv)) < 1e-12


def test_equal_rewards_leave_online_bit_unchanged():
    # references share no tokens with anything the model can emit, so every
    # hypothesis scores exactly zero and the baseline absorbs it all
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=7)
    alien_refs = ["zzz qqq xxx", "qqq zzz"]
    df = DocumentFrequency([alien_refs])
    emb = BagEmbedder(len(vocab.tokens), np.ones(len(vocab.tokens)))
    before = snapshot(state.online)
    scst = tr.ScstConfig(strategy="best", beam_size=3, learning_rate=1e-3, lambda_kd=0.0)
    report = tr.scst_step(state, [(samples[0].features.grid, alien_refs)],
                          scst, df, vocab, emb)
    assert report["baseline"] == 0.0 and report["reward_mean"] == 0.0
    assert snapshot(state.online) == before
    assert state.step == 1 and state.adam_t == 1


def test_policy_gradient_matches_finite_differences():
    """Frozen trajectory: with hypotheses and advantages held fixed, the
    teacher-forced policy loss must gradcheck like any other op chain."""
    samples, vocab, cfg = tiny_setup(model_dim=8)
    params = init_params(cfg, seed=13, dtype=np.float64)
    grid = samples[0].features.grid
    with T.no_grad():
        enc_frozen = encode(grid, params, cfg)
    beam = beam_search(FastDecoder(params, cfg, enc_frozen).expand, 3, cfg.max_length)
    adv = [0.7, -0.2, -0.5]

    def make_loss():
        enc = encode(grid, params, cfg)
        terms = []
        for h, a in zip(beam, adv):
            logits = decode_logits(h.ids[:-1], enc, params, cfg)
            lp = T.sequence_log_prob(logits, h.ids[1:], np.ones(len(h.ids) - 1))
            terms.append(T.scale(lp, -a / len(beam)))
        return functools.reduce(T.add, terms)

    leaves = [params["output.bias"], params["enc0.norm1.gain"],
              params["dec0.cross.wq.weight"]]
    check_gradients(make_loss, leaves, tol=1e-4)


# ---------------------------------------------------------------------------
# batched steps against per-sample loops
# ---------------------------------------------------------------------------


def xe_loss_per_sample(state, batch):
    """The XE objective as a loop over samples: the mean over samples of
    each one's cross-entropy plus lambda_kd times its logit MSE."""
    cfg = state.config
    losses = []
    for grid, ids in batch:
        logits = decode_logits(ids[:-1], encode(grid, state.online, cfg), state.online, cfg)
        valid = np.ones(len(ids) - 1)
        with T.no_grad():
            target = decode_logits(ids[:-1], encode(grid, state.target, cfg), state.target, cfg)
        kd = T.masked_mse(target, logits, valid)
        losses.append(T.add(cross_entropy_oracle(logits, ids[1:], valid),
                            T.scale(kd, state.lambda_kd)))
    return T.scale(functools.reduce(T.add, losses), 1.0 / len(losses))


def scst_loss_per_image(state, batch, scst, df, vocab, embedder):
    """The SCST objective as a loop over images, each hypothesis re-scored
    alone and each pair distilled alone."""
    cfg, k = state.config, scst.beam_size
    losses = []
    for grid, refs in batch:
        enc_o = encode(grid, state.online, cfg)
        online = beam_search(FastDecoder(state.online, cfg, enc_o).expand, k, cfg.max_length)
        vectors = reference_vectors(refs, df)
        rewards = [reward(detokenize_ids(h.ids, vocab), vectors, df) for h in online]
        logits = [decode_logits(h.ids[:-1], enc_o, state.online, cfg) for h in online]
        terms = [T.scale(T.sequence_log_prob(lg, h.ids[1:], np.ones(len(h.ids) - 1)), -a / k)
                 for lg, h, a in zip(logits, online, tr.advantage(rewards))]
        with T.no_grad():
            enc_t = encode(grid, state.target, cfg)
        target = beam_search(FastDecoder(state.target, cfg, enc_t).expand, k, cfg.max_length)
        partner = list(range(k))
        if scst.strategy in ("hungarian_best", "hungarian_all"):
            cost = pairing_cost([h.ids for h in target], [h.ids for h in online], embedder)
            partner = [int(j) for j in hungarian(cost)]
        pairs = []
        for i in (range(k) if scst.strategy in ("all", "hungarian_all") else [0]):
            rows = logits[partner[i]]
            n = min(len(target[i].logits), rows.shape[0])
            pairs.append(T.masked_mse(T.Tensor(np.stack(target[i].logits[:n])),
                                      T.embedding(rows, np.arange(n)), np.ones(n)))
        kd = T.scale(functools.reduce(T.add, pairs), 1.0 / len(pairs))
        losses.append(functools.reduce(T.add, terms + [T.scale(kd, scst.lambda_kd)]))
    return T.scale(functools.reduce(T.add, losses), 1.0 / len(batch))


def twin_state(cfg, seed=17):
    """A float64 state whose target differs from its online model."""
    state = tr.TrainState.create(cfg, seed, lambda_kd=0.5, dtype=np.float64)
    for p in state.target.values():
        p.data = p.data + 0.01
    return state


def assert_same_grads(got, want):
    def grad(p):
        return p.grad if p.grad is not None else np.zeros_like(p.data)

    largest = max(np.abs(grad(p)).max() for p in want.values())
    assert largest > 0
    worst = max(np.abs(grad(got[n]) - grad(want[n])).max() for n in want)
    assert worst <= 1e-12 * largest, (worst, largest)


def test_batched_xe_step_matches_loop_over_samples():
    samples, vocab, cfg = tiny_setup(dropout_rate=0.0)
    batch = [(s.features.grid, tr.sequence_ids(s.references[j % 3], vocab, cfg.max_length))
             for j, s in enumerate(samples[:4])]
    assert len({len(ids) for _, ids in batch}) > 1  # the batch needs padding
    state, ref = twin_state(cfg), twin_state(cfg)
    tr.xe_step(state, batch, 1e-3, KeyedRng(17, ROLE_ONLINE), KeyedRng(17, 3))
    T.backward(xe_loss_per_sample(ref, batch))
    assert_same_grads(state.online, ref.online)


@pytest.mark.parametrize("strategy", tr.PAIRING_STRATEGIES)
def test_batched_scst_step_matches_loop_over_images(strategy):
    samples, vocab, cfg = tiny_setup(dropout_rate=0.0)
    scst = tr.ScstConfig(strategy=strategy, beam_size=3, learning_rate=1e-4, lambda_kd=0.5)
    state, ref = twin_state(cfg), twin_state(cfg)
    # each image's references are its own top online caption, so rewards
    # differ within every beam and the policy term has weight everywhere
    batch, beams = [], []
    for s in samples[:3]:
        enc = encode(s.features.grid, ref.online, cfg)
        beams.append(beam_search(FastDecoder(ref.online, cfg, enc).expand, 3, cfg.max_length))
        batch.append((s.features.grid, [detokenize_ids(beams[-1][0].ids, vocab)]))
    df = DocumentFrequency([refs for _, refs in batch])
    for beam, (_, refs) in zip(beams, batch):
        vectors = reference_vectors(refs, df)
        rewards = [reward(detokenize_ids(h.ids, vocab), vectors, df) for h in beam]
        assert min(map(abs, tr.advantage(rewards))) > 0
    emb = BagEmbedder.from_corpus([tokenize(r, vocab).ids for _, refs in batch for r in refs],
                                  len(vocab.tokens))
    tr.scst_step(state, batch, scst, df, vocab, emb)
    loss = scst_loss_per_image(ref, batch, scst, df, vocab, emb)
    T.backward(loss)
    assert_same_grads(state.online, ref.online)


def test_distill_pair_identical_hypotheses_is_zero():
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=9) for _ in range(4)]
    h = Hypothesis(ids=[1, 5, 6, 7, 2], logprob=-1.0, logits=rows, finished=True)
    loss = tr.distill_pair_logits([h], [h], constant(np.stack(rows)[None]))
    assert float(loss.data) == 0.0


def test_distill_pair_masks_extra_rows():
    rng = np.random.default_rng(4)
    t_rows = [rng.normal(size=6) for _ in range(3)]
    o_rows = [rng.normal(size=6) for _ in range(5)]
    h_t = Hypothesis(ids=[1, 4, 5, 2], logprob=-1.0, logits=t_rows, finished=True)
    h_o = Hypothesis(ids=[1, 4, 5, 6, 7, 2], logprob=-2.0, logits=o_rows, finished=True)
    online = T.parameter(np.stack(o_rows)[None])
    loss = tr.distill_pair_logits([h_t], [h_o], online)
    want = np.mean((np.stack(t_rows) - np.stack(o_rows)[:3]) ** 2)
    assert abs(float(loss.data) - want) < 1e-12
    T.backward(loss)
    assert np.abs(online.grad[0, :3]).max() > 0
    assert not online.grad[0, 3:].any()  # rows past the shared length are masked


def test_scst_config_validation():
    for unknown in ("nearest", "embedder_best"):
        with pytest.raises(ValueError, match="strategy"):
            tr.ScstConfig(strategy=unknown)
    with pytest.raises(ValueError, match="beam_size"):
        tr.ScstConfig(beam_size=1)
    # a negative weight would switch distillation off without a word
    cfg = tiny_setup()[2]
    for value in (-0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_kd"):
            tr.ScstConfig(lambda_kd=value)
        with pytest.raises(ValueError, match="lambda_kd"):
            tr.TrainState.create(cfg, seed=0, lambda_kd=value)
    for value in (0.0, -1e-4, math.nan):
        with pytest.raises(ValueError, match="learning_rate"):
            tr.ScstConfig(learning_rate=value)


def test_a_state_and_both_stages_refuse_what_they_cannot_train():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=2)
    fewer = dict(list(state.target.items())[1:])
    with pytest.raises(ValueError, match="name sets differ"):
        tr.TrainState(cfg, state.online, fewer, state.m, state.v)
    loop = tr.LoopConfig(steps=1, batch_size=1)
    with pytest.raises(ValueError, match="no training samples"):
        tr.train_xe(state, [], samples, vocab, loop)
    with pytest.raises(ValueError, match="no training samples"):
        tr.train_scst(state, [], samples, vocab, tr.ScstConfig(learning_rate=1e-4), loop)


def test_xe_divergence_raises():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=5)
    state.online["output.bias"].data[:] = np.nan
    ids = tr.sequence_ids(samples[0].references[0], vocab, cfg.max_length)
    ro, rt = KeyedRng(5, ROLE_ONLINE), KeyedRng(5, 3)
    ro.begin_step(1)
    rt.begin_step(1)
    with pytest.raises(tr.TrainingDiverged):
        tr.xe_step(state, [(samples[0].features.grid, ids)], 1e-3, ro, rt)


def test_xe_step_refuses_a_reference_with_no_target_step():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=5)
    before = snapshot(state.online)
    ids = tr.sequence_ids(samples[0].references[0], vocab, cfg.max_length)
    batch = [(samples[0].features.grid, ids), (samples[1].features.grid, [BOS_ID])]
    ro, rt = KeyedRng(5, ROLE_ONLINE), KeyedRng(5, 3)
    ro.begin_step(1)
    rt.begin_step(1)
    with pytest.raises(ValueError, match="at least one target step"):
        tr.xe_step(state, batch, 1e-3, ro, rt)
    assert state.step == 0 and snapshot(state.online) == before


def test_scst_non_finite_reward_raises_with_the_rewards(monkeypatch):
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=5)
    df = DocumentFrequency([samples[0].references])
    emb = BagEmbedder(len(vocab.tokens), np.ones(len(vocab.tokens)))
    monkeypatch.setattr(tr.metrics, "reward", lambda *args: math.nan)
    scst = tr.ScstConfig(strategy="best", beam_size=2, lambda_kd=0.0)
    with pytest.raises(tr.TrainingDiverged) as exc:
        tr.scst_step(state, [(samples[0].features.grid, samples[0].references)],
                     scst, df, vocab, emb)
    assert exc.value.step == 1
    assert len(exc.value.detail["rewards"]) == 2
    assert all(math.isnan(r) for r in exc.value.detail["rewards"])


def test_scst_all_empty_hypotheses_abort():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=5)
    # pin EOS and PAD so both beam slots detokenize to "" (PAD is dropped)
    state.online["output.bias"].data[EOS_ID] = 60.0
    state.online["output.bias"].data[0] = 50.0
    df = DocumentFrequency([samples[0].references])
    emb = BagEmbedder(len(vocab.tokens), np.ones(len(vocab.tokens)))
    scst = tr.ScstConfig(strategy="best", beam_size=2, lambda_kd=0.0)
    with pytest.raises(tr.TrainingDiverged, match="empty"):
        tr.scst_step(state, [(samples[0].features.grid, samples[0].references)],
                     scst, df, vocab, emb)


# ---------------------------------------------------------------------------
# checkpoint resume
# ---------------------------------------------------------------------------


def _read_log(path):
    with open(path) as fh:
        return fh.read()


def test_xe_resume_is_bitwise_identical(tmp_path):
    samples, vocab, cfg = tiny_setup(num_images=8)
    train, val = samples[:6], samples[6:]
    seed, total = 21, 6

    def loop_cfg(d, steps):
        d.mkdir(exist_ok=True)
        return tr.LoopConfig(steps=steps, batch_size=3, warmup=50, val_every=3,
                             val_beam=3, log_path=str(d / "log.jsonl"),
                             ckpt_dir=str(d))

    a = tmp_path / "straight"
    tr.train_xe(tr.TrainState.create(cfg, seed), train, val, vocab, loop_cfg(a, total))

    b = tmp_path / "resumed"
    tr.train_xe(tr.TrainState.create(cfg, seed), train, val, vocab, loop_cfg(b, 3))
    ckpt = load_checkpoint(b / "last.ckpt")
    state, vocab_back = tr.state_from_checkpoint(ckpt)
    assert vocab_back.tokens == vocab.tokens
    tr.train_xe(state, train, val, vocab_back, loop_cfg(b, total))

    assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
    assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
    assert _read_log(a / "log.jsonl") == _read_log(b / "log.jsonl")


def test_resume_after_an_off_schedule_stop_is_bitwise_identical(tmp_path):
    samples, vocab, cfg = tiny_setup(num_images=8)
    train, val = samples[:6], samples[6:]
    seed = 25

    def loop_cfg(d, steps):
        d.mkdir(exist_ok=True)
        return tr.LoopConfig(steps=steps, batch_size=3, warmup=50, val_every=3,
                             val_beam=3, log_path=str(d / "train_log.jsonl"),
                             ckpt_dir=str(d))

    def artifacts(d):
        return [(d / name).read_bytes() for name in ("train_log.jsonl", "last.ckpt", "best.ckpt")]

    a = tmp_path / "straight"
    out = tr.train_xe(tr.TrainState.create(cfg, seed), train, val, vocab, loop_cfg(a, 4))
    assert out["final_val"] is not None  # step 4 is scored for the caller only
    records = [json.loads(line) for line in _read_log(a / "train_log.jsonl").splitlines()]
    assert [r["step"] for r in records if r.get("event") == "val"] == [3]

    b = tmp_path / "resumed"
    state = tr.TrainState.create(cfg, seed)
    out = tr.train_xe(state, train, val, vocab, loop_cfg(b, 2))
    assert out["final_val"] is not None and state.best is None
    assert not (b / "best.ckpt").exists()
    state, _ = tr.state_from_checkpoint(load_checkpoint(b / "last.ckpt"))
    tr.train_xe(state, train, val, vocab, loop_cfg(b, 4))
    assert artifacts(a) == artifacts(b)


def test_scst_resume_is_bitwise_identical(tmp_path):
    samples, vocab, cfg = tiny_setup(num_images=8)
    train, val = samples[:6], samples[6:]
    seed = 22
    scst = tr.ScstConfig(strategy="best", beam_size=3, learning_rate=1e-4)

    def warm_state():
        st = tr.TrainState.create(cfg, seed)
        tr.train_xe(st, train, val, vocab, tr.LoopConfig(steps=2, batch_size=3, warmup=50))
        tr.prepare_for_scst(st, scst)
        return st

    def loop_cfg(d, steps):
        d.mkdir(exist_ok=True)
        return tr.LoopConfig(steps=steps, batch_size=2, val_every=0,
                             log_path=str(d / "log.jsonl"), ckpt_dir=str(d))

    a = tmp_path / "straight"
    tr.train_scst(warm_state(), train, val, vocab, scst, loop_cfg(a, 5))

    b = tmp_path / "resumed"
    tr.train_scst(warm_state(), train, val, vocab, scst, loop_cfg(b, 3))
    ckpt = load_checkpoint(b / "last.ckpt")
    assert ckpt.stage == "scst"
    state, _ = tr.state_from_checkpoint(ckpt)
    tr.train_scst(state, train, val, vocab, scst, loop_cfg(b, 5))

    assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
    assert _read_log(a / "log.jsonl") == _read_log(b / "log.jsonl")


def test_resume_from_an_older_checkpoint_logs_each_step_once(tmp_path):
    samples, vocab, cfg = tiny_setup(num_images=8)
    train, val = samples[:6], samples[6:]
    seed = 24

    def loop_cfg(d, steps):
        d.mkdir(exist_ok=True)
        return tr.LoopConfig(steps=steps, batch_size=3, warmup=50, val_every=2,
                             val_beam=3, log_path=str(d / "log.jsonl"),
                             ckpt_dir=str(d))

    def resume(path, d, steps):
        ckpt = load_checkpoint(path)
        state, _ = tr.state_from_checkpoint(ckpt)
        tr.train_xe(state, train, val, vocab, loop_cfg(d, steps))

    a = tmp_path / "straight"
    tr.train_xe(tr.TrainState.create(cfg, seed), train, val, vocab, loop_cfg(a, 4))
    straight = _read_log(a / "log.jsonl")

    b = tmp_path / "rewound"
    tr.train_xe(tr.TrainState.create(cfg, seed), train, val, vocab, loop_cfg(b, 2))
    shutil.copy(b / "last.ckpt", tmp_path / "step2.ckpt")
    resume(b / "last.ckpt", b, 4)
    resume(tmp_path / "step2.ckpt", b, 4)  # steps 3 and 4 run again
    assert _read_log(b / "log.jsonl") == straight
    assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()

    # a torn last line, as a crash in mid-write leaves it, is cut as well
    with open(b / "log.jsonl", "a") as fh:
        fh.write('{"step": 5, "lr"')
    resume(b / "last.ckpt", b, 4)
    assert _read_log(b / "log.jsonl") == straight


def test_validation_scores_each_model_under_its_own_name(tmp_path):
    samples, vocab, cfg = tiny_setup(num_images=8)
    train, val = samples[:6], samples[6:]
    log = tmp_path / "log.jsonl"
    # at momentum 1 the target keeps its initial weights, so the two models
    # differ by construction and a swap of their names must show
    state = tr.TrainState.create(cfg, seed=5, momentum=1.0)
    loop = tr.LoopConfig(steps=30, batch_size=3, warmup=10, val_every=30, val_beam=2,
                         log_path=str(log))
    tr.train_xe(state, train, val, vocab, loop)
    df = DocumentFrequency([s.references for s in val])
    online, target = (tr.validate_cider(params, cfg, val, vocab, 2, df)
                      for params in (state.online, state.target))
    assert online != target
    [record] = [r for r in map(json.loads, log.read_text().splitlines()) if "event" in r]
    assert (record["val_cider_online"], record["val_cider_target"]) == (online, target)
    assert (state.best["cider_online"], state.best["cider_target"]) == (online, target)


def test_both_stages_log_the_same_record_keys(tmp_path):
    samples, vocab, cfg = tiny_setup(num_images=8)
    train, val = samples[:6], samples[6:]
    log = tmp_path / "log.jsonl"
    state = tr.TrainState.create(cfg, seed=23)
    tr.train_xe(state, train, val, vocab,
                tr.LoopConfig(steps=2, batch_size=3, warmup=50, log_path=str(log)))
    scst = tr.ScstConfig(beam_size=3, learning_rate=1e-4)
    tr.prepare_for_scst(state, scst)
    tr.train_scst(state, train, val, vocab, scst,
                  tr.LoopConfig(steps=4, batch_size=2, log_path=str(log)))
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2, 3, 4]
    keys = {"step", "lr", "xe_loss", "kd_loss", "reward_mean", "baseline"}
    assert all(set(r) == keys for r in records)
    assert [r["xe_loss"] is None for r in records] == [False, False, True, True]
    assert [r["reward_mean"] is None for r in records] == [True, True, False, False]


def test_prepare_for_scst_resets_optimizer():
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=8)
    tr.train_xe(state, samples, [], vocab, tr.LoopConfig(steps=2, batch_size=2, warmup=50))
    assert state.adam_t == 2 and any(state.m[n].any() for n in state.m)
    tr.prepare_for_scst(state, tr.ScstConfig())
    assert state.adam_t == 0
    assert not any(state.m[n].any() for n in state.m)
    assert not any(state.v[n].any() for n in state.v)
    assert state.step == 2  # the global step keeps counting across stages


def test_train_scst_records_the_weight_it_trains_with(tmp_path):
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=8, lambda_kd=0.1)
    tr.train_xe(state, samples, [], vocab, tr.LoopConfig(steps=2, batch_size=2, warmup=50))
    tr.prepare_for_scst(state, tr.ScstConfig())
    for lambda_kd, steps in ((0.25, 3), (0.5, 4)):  # a stage, then its continuation
        scst = tr.ScstConfig(beam_size=2, learning_rate=1e-4, lambda_kd=lambda_kd)
        tr.train_scst(state, samples, [], vocab, scst,
                      tr.LoopConfig(steps=steps, batch_size=2, ckpt_dir=str(tmp_path)))
        assert state.lambda_kd == load_checkpoint(tmp_path / "last.ckpt").lambda_kd == lambda_kd
        state, _ = tr.state_from_checkpoint(load_checkpoint(tmp_path / "last.ckpt"))


def test_states_rebuilt_from_one_checkpoint_never_write_its_arrays():
    """A state adopts its checkpoint's arrays, not copies, so no step may
    write a parameter or a moment in place, nor touch the checkpoint's dicts:
    the arrays are read-only here, and any such write raises."""
    samples, vocab, cfg = tiny_setup(mesh_enabled=True, num_encoder_layers=2, dropout_rate=0.1)
    state = tr.TrainState.create(cfg, seed=5, lambda_kd=0.1)
    tr.train_xe(state, samples, [], vocab, tr.LoopConfig(steps=2, batch_size=3, warmup=10))
    ckpt = tr.state_to_checkpoint(state, vocab, "scst")
    groups = {g: dict(group) for g, group in ckpt.groups.items()}
    for group in groups.values():
        for a in group.values():
            a.flags.writeable = False
    before = {(g, n): a.tobytes() for g, group in groups.items() for n, a in group.items()}

    state, _ = tr.state_from_checkpoint(ckpt)
    assert all(state.online[n].data is a for n, a in ckpt.groups["online"].items())
    picks = tr._select_batch(samples, 3, state.seed, state.step + 1)
    batch = [(s.features.grid, tr.sequence_ids(ref, vocab, cfg.max_length)) for s, ref in picks]
    rngs = KeyedRng(state.seed, ROLE_ONLINE), KeyedRng(state.seed, ROLE_TARGET)
    for rng in rngs:
        rng.begin_step(state.step + 1)
    tr.xe_step(state, batch, 1e-3, *rngs)

    state, _ = tr.state_from_checkpoint(ckpt)  # an SCST resume keeps the moments
    scst = tr.ScstConfig(strategy="hungarian_all", beam_size=3, learning_rate=1e-4)
    emb = BagEmbedder.from_corpus([tokenize(r, vocab).ids for s in samples for r in s.references],
                                  len(vocab.tokens))
    tr.scst_step(state, [(s.features.grid, s.references) for s in samples[:3]], scst,
                 DocumentFrequency([s.references for s in samples]), vocab, emb)
    assert state.online["output.bias"].data is not ckpt.groups["online"]["output.bias"]

    for g, group in groups.items():  # the same arrays under the same names
        assert list(ckpt.groups[g]) == list(group)
        assert all(ckpt.groups[g][n] is a for n, a in group.items())
    assert {(g, n): a.tobytes() for g, group in ckpt.groups.items()
            for n, a in group.items()} == before


def test_sequence_ids_truncates_with_eos():
    samples, vocab, _ = tiny_setup()
    text = samples[0].references[0]
    full = tokenize(text, vocab).ids
    short = tr.sequence_ids(text, vocab, 6)
    assert len(short) == 6
    assert short[0] == full[0] and short[-1] == EOS_ID
    assert tr.sequence_ids(text, vocab, len(full)) == full


def test_xe_step_is_the_same_with_a_cold_or_a_warm_word_cache():
    samples, vocab, cfg = tiny_setup()
    start = tr.state_to_checkpoint(tr.TrainState.create(cfg, seed=4), vocab, "xe")
    warm = Vocabulary(list(vocab.tokens), list(vocab.merges))
    for line in caption_corpus():
        tokenize(line, warm)
    runs = []
    for v in (Vocabulary(list(vocab.tokens), list(vocab.merges)), warm):
        state, _ = tr.state_from_checkpoint(start)
        batch = [(s.features.grid, tr.sequence_ids(s.references[1], v, cfg.max_length))
                 for s in samples[:4]]
        rng_online, rng_target = KeyedRng(4, ROLE_ONLINE), KeyedRng(4, ROLE_TARGET)
        rng_online.begin_step(1)
        rng_target.begin_step(1)
        report = tr.xe_step(state, batch, 1e-3, rng_online, rng_target)
        runs.append((report, snapshot(state.online), snapshot(state.target)))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# graph size
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, fn, sites=()):
    """Tensor ops (``tensor._result`` calls) made by ``fn()``, as "ops", and its
    calls of each ``(owner, name)`` site: by the name its callers look up, as
    ``bench/tracing.py`` counts them."""
    counts = {}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, name, key in [(T, "_result", "ops"), *((o, n, n) for o, n in sites)]:
        counts[key] = 0
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    try:
        fn()
    finally:
        monkeypatch.undo()
    return counts


def _count_ops(monkeypatch, fn, *args):
    return _count_calls(monkeypatch, lambda: fn(*args))["ops"]


def test_op_counts_of_a_beam_expansion_and_an_xe_step(monkeypatch):
    # Per-op Python overhead, not arithmetic, sets the speed of decoding at
    # these sizes, so the node count of a pass is pinned exactly.
    cfg = ModelConfig(vocab_size=200, mesh_enabled=True)  # the caption-eval model
    params = init_params(cfg, 0)
    grid = np.random.default_rng(0).standard_normal((16, cfg.feature_dim)).astype(np.float32)
    with T.no_grad():
        enc = encode(grid, params, cfg)
    made = []
    # the cross-attention memory: (k, v) for 2 decoder x 2 encoder layers
    assert _count_ops(monkeypatch, lambda: made.append(FastDecoder(params, cfg, enc))) == 8
    fast = made[0]
    assert _count_ops(monkeypatch, fast.expand, [[BOS_ID]], None) == 60
    # a later pass also gathers each layer's cached rows
    assert _count_ops(monkeypatch, fast.expand, [[BOS_ID, 5], [BOS_ID, 6]], [0, 0]) == 62

    samples, vocab, tiny = tiny_setup()
    state = tr.TrainState.create(tiny, seed=1)
    batch = [(s.features.grid, tr.sequence_ids(s.references[0], vocab, tiny.max_length))
             for s in samples[:3]]
    rng_online, rng_target = KeyedRng(1, ROLE_ONLINE), KeyedRng(1, ROLE_TARGET)
    rng_online.begin_step(1)
    rng_target.begin_step(1)
    assert _count_ops(monkeypatch, tr.xe_step, state, batch, 1e-3, rng_online, rng_target) == 96


# The desk counts below are structural: init is keyed by seed and parameter
# name, so only a code change moves them, and one that does so on purpose
# updates them here and says so.


def _desk_vocab_and_config():
    vocab = build_vocab(caption_corpus(), 200)
    return vocab, ModelConfig(vocab_size=len(vocab.tokens))


def test_desk_xe_step_makes_its_pinned_counts(monkeypatch):
    # xe-desk's traced counts per step (bench/run.py --trace 1)
    vocab, cfg = _desk_vocab_and_config()
    samples = generate_synthetic_dataset(seed=1, num_images=16)
    state = tr.TrainState.create(cfg, seed=1, lambda_kd=0.1)
    batch = [(s.features.grid, tr.sequence_ids(s.references[0], vocab, cfg.max_length))
             for s in samples]
    rngs = KeyedRng(1, ROLE_ONLINE), KeyedRng(1, ROLE_TARGET)

    def step():
        for r in rngs:
            r.begin_step(1)
        tr.xe_step(state, batch, 1e-3, *rngs)

    sites = [(R, "generator"), (tr, "encode"), (tr, "decode_logits")]
    assert _count_calls(monkeypatch, step, sites) == {
        "ops": 176, "generator": 2, "encode": 2, "decode_logits": 2}


def test_fresh_desk_beam_makes_its_pinned_counts(monkeypatch):
    # one beam-5 caption, as caption-eval makes it: encode, the cross-attention
    # memory and every expand call of the search
    _, cfg = _desk_vocab_and_config()
    fresh = init_params(cfg, 1)
    grid = np.random.default_rng(0).standard_normal((9, cfg.feature_dim))
    beam = _count_calls(monkeypatch, lambda: caption_image(fresh, cfg, grid, 5),
                        [(FastDecoder, "expand")])
    assert beam == {"ops": 955, "expand": 23}  # a fresh model decodes to max_length


def test_op_count_of_an_scst_step(monkeypatch):
    # beams of both models, rewards, Hungarian pairing and one re-scoring
    # pass with backward: the per-call trims of the SCST loop add no nodes
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=1)
    train = samples[:4]
    df = DocumentFrequency([s.references for s in train])
    emb = BagEmbedder.from_corpus([tokenize(r, vocab).ids for s in train for r in s.references],
                                  len(vocab.tokens))
    scst = tr.ScstConfig(strategy="hungarian_all", beam_size=3, learning_rate=1e-4, lambda_kd=0.1)
    batch = [(s.features.grid, s.references) for s in train[:2]]
    assert _count_ops(monkeypatch, tr.scst_step, state, batch, scst, df, vocab, emb) == 2091
