"""Release gates: one test per promise the package ships with.

Every check here exercises a whole behaviour end to end at the tolerance the
promise states, so `pytest tests/test_acceptance.py -v` reads as a pass/fail
line per gate.  The slow directional gates (the desk training run, the
multi-seed validation study, reward fine-tuning) share one module-scoped
training fixture; the whole file stays within a few minutes on a laptop core.

Oracles and reference implementations are imported from the sibling test
modules rather than re-derived, so each gate compares the library against
code written independently of it.
"""

import inspect
import json
import time

import numpy as np
import pytest

import meancap.assignment as A
import meancap.metrics as M
import meancap.model as mdl
import meancap.tensor as T
import meancap.training as tr
from meancap.checkpoint import load_checkpoint
from meancap.data import caption_corpus, generate_synthetic_dataset, split_dataset
from meancap.decoding import beam_search, caption_image
from meancap.tokenizer import BOS_ID, build_vocab, detokenize_ids

from gradcheck import check_gradients, sum_all

from test_assignment import brute_force, row_total
from test_decoding import enumerate_all, greedy, table_model
from test_metrics import oracle_bleu, oracle_cider, oracle_rouge, random_corpus
from test_model import pin_gates_to_last_layer
from test_tensor import FixedRng, constant, leaf
from test_training import plain_xe_loop, snapshot, tiny_setup, unrolled_ema


# ---------------------------------------------------------------------------
# 1. every differentiable operation passes finite-difference checks
# ---------------------------------------------------------------------------


def _w(rng, shape):
    """Fixed random projection to a scalar, so every output entry matters."""
    return constant(rng.standard_normal(shape))


def _case_add(rng):
    m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    b = leaf(rng, n) if rng.random() < 0.5 else leaf(rng, m, n)
    a, w = leaf(rng, m, n), _w(rng, (m, n))
    return lambda: sum_all(T.mul(T.add(a, b), w)), [a, b]


def _case_mul(rng):
    m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    b = leaf(rng, n) if rng.random() < 0.5 else leaf(rng, m, n)
    a, w = leaf(rng, m, n), _w(rng, (m, n))
    return lambda: sum_all(T.mul(T.mul(a, b), w)), [a, b]


def _case_scale(rng):
    a = leaf(rng, 3, 4)
    c = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
    w = _w(rng, (3, 4))
    return lambda: sum_all(T.mul(T.scale(a, c), w)), [a]


def _case_linear(rng):
    m, k, n = (int(rng.integers(2, 5)) for _ in range(3))
    x, w, b = leaf(rng, 2, m, k), leaf(rng, k, n), leaf(rng, n)
    proj = _w(rng, (2, m, n))
    return lambda: sum_all(T.mul(T.linear(x, w, b), proj)), [x, w, b]


def _case_concat(rng):
    d = int(rng.integers(2, 5))
    a, b = leaf(rng, 2, d), leaf(rng, 3, d)
    w = _w(rng, (5, d))
    return lambda: sum_all(T.mul(T.concat([a, b], axis=0), w)), [a, b]


def _case_attention(rng):
    heads, width = int(rng.integers(1, 3)), int(rng.integers(2, 4))
    d, tq = heads * width, int(rng.integers(2, 4))
    tk = tq + int(rng.integers(1, 3))  # earlier keys, as a decoder's cached rows
    q, k, v = leaf(rng, 2, tq, d), leaf(rng, 2, tk, d), leaf(rng, 2, tk, d)
    # causal over the new rows: row i sees the earlier keys and new keys up to itself
    mask = np.where(np.arange(tk) <= np.arange(tq)[:, None] + tk - tq, 0.0, mdl.NEG_INF)
    w = _w(rng, (2, tq, d))
    return lambda: sum_all(T.mul(T.attention(q, k, v, heads, mask), w)), [q, k, v]


def _case_embedding(rng):
    v, d, t = int(rng.integers(4, 8)), int(rng.integers(2, 5)), 6
    table = leaf(rng, v, d)
    ids = rng.integers(0, v, t)  # repeats exercise gradient accumulation
    w = _w(rng, (t, d))
    return lambda: sum_all(T.mul(T.embedding(table, ids), w)), [table]


def _case_relu(rng):
    # keep inputs away from the kink so central differences stay valid
    data = rng.uniform(0.2, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    a, w = T.parameter(data), _w(rng, (3, 4))
    return lambda: sum_all(T.mul(T.relu(a), w)), [a]


def _case_sigmoid(rng):
    a, w = leaf(rng, 3, 4), _w(rng, (3, 4))
    return lambda: sum_all(T.mul(T.sigmoid(a), w)), [a]


def _case_layer_norm(rng):
    t, d = int(rng.integers(2, 5)), int(rng.integers(3, 6))
    x, gain, bias = leaf(rng, t, d), leaf(rng, d), leaf(rng, d)
    w = _w(rng, (t, d))
    return lambda: sum_all(T.mul(T.layer_norm(x, gain, bias), w)), [x, gain, bias]


def _case_dropout(rng):
    t, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    x, w = leaf(rng, t, d), _w(rng, (t, d))
    fixed = FixedRng(rng.random((t, d)))  # mask replays across rebuilds
    return lambda: sum_all(T.mul(T.dropout(x, 0.35, fixed), w)), [x]


def _targets(rng, t, n):
    ids = rng.integers(0, n, t)
    mask = rng.integers(0, 2, t)
    mask[int(rng.integers(t))] = 1  # at least one valid row
    return ids, mask


def _case_sequence_log_prob(rng):
    t, n = int(rng.integers(2, 6)), int(rng.integers(3, 8))
    logits = leaf(rng, t, n)
    ids, mask = _targets(rng, t, n)
    return lambda: T.sequence_log_prob(logits, ids, mask), [logits]


def _case_masked_mse(rng):
    t, n = int(rng.integers(2, 6)), int(rng.integers(3, 6))
    target = constant(rng.standard_normal((t, n)))  # detached side
    online = leaf(rng, t, n)
    _, mask = _targets(rng, t, n)
    return lambda: T.masked_mse(target, online, mask), [online]


_GRAD_CASES = [
    ("add", _case_add), ("mul", _case_mul), ("scale", _case_scale),
    ("linear", _case_linear), ("concat", _case_concat),
    ("attention", _case_attention),
    ("embedding", _case_embedding), ("relu", _case_relu),
    ("sigmoid", _case_sigmoid), ("layer_norm", _case_layer_norm), ("dropout", _case_dropout),
    ("sequence_log_prob", _case_sequence_log_prob), ("masked_mse", _case_masked_mse),
]

# public functions of meancap.tensor that are not graph operations
_NOT_OPS = {"parameter", "backward"}


def test_01_gradient_checks_cover_every_operation():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_")} - _NOT_OPS
    assert sorted(name for name, _ in _GRAD_CASES) == sorted(ops)
    started = time.monotonic()
    worst = 0.0
    for op_index, (name, build) in enumerate(_GRAD_CASES):
        for instance in range(10):
            rng = np.random.default_rng([17, op_index, instance])
            make_loss, leaves = build(rng)
            err = check_gradients(make_loss, leaves, h=1e-5, tol=1e-4)
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"PASS 1: {len(_GRAD_CASES)} ops x 10 instances, worst relative "
          f"error {worst:.2e} (< 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. iterated weight averaging matches its closed form
# ---------------------------------------------------------------------------


def test_02_weight_average_matches_closed_form():
    worst = 0.0
    for lam in (0.0, 0.5, 0.999, 1.0):
        for steps in (1, 5, 50):
            rng = np.random.default_rng([23, steps, int(lam * 1000)])
            theta0 = rng.standard_normal((3, 4))
            target = {"w": T.parameter(theta0.copy())}
            online = {"w": T.parameter(theta0.copy())}
            history = []
            for _ in range(steps):
                online["w"].data = rng.standard_normal((3, 4))
                history.append(online["w"].data.copy())
                tr.ema_update(target, online, lam)
            want = unrolled_ema(theta0, history, lam)
            worst = max(worst, float(np.max(np.abs(target["w"].data - want))))
            assert np.max(np.abs(target["w"].data - want)) < 1e-12
            if lam == 1.0:  # never moves, bit for bit
                assert target["w"].data.tobytes() == theta0.tobytes()
            if lam == 0.0:  # tracks the online weights exactly
                assert target["w"].data.tobytes() == history[-1].tobytes()
    print(f"PASS 2: closed form holds for T in (1,5,50) x momentum in "
          f"(0,0.5,0.999,1), worst abs error {worst:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 3. no gradient ever reaches the averaged model
# ---------------------------------------------------------------------------


def test_03_target_model_receives_no_gradient_in_either_stage():
    samples, vocab, cfg = tiny_setup(num_images=6)
    state = tr.TrainState.create(cfg, seed=5, lambda_kd=0.5)

    from meancap.rng import KeyedRng, ROLE_ONLINE, ROLE_TARGET
    rng_o, rng_t = KeyedRng(5, ROLE_ONLINE), KeyedRng(5, ROLE_TARGET)
    rng_o.begin_step(1), rng_t.begin_step(1)
    batch = [(s.features.grid, tr.sequence_ids(s.references[0], vocab, cfg.max_length))
             for s in samples[:3]]
    tr.xe_step(state, batch, 1e-4, rng_o, rng_t)
    assert all(p.grad is None for p in state.target.values())
    assert any(p.grad is not None for p in state.online.values())

    scst = tr.ScstConfig(strategy="all", beam_size=3, learning_rate=1e-5, lambda_kd=0.5)
    tr.prepare_for_scst(state, scst)
    df = M.DocumentFrequency([s.references for s in samples])
    emb = A.BagEmbedder(len(vocab.tokens), np.ones(len(vocab.tokens)))
    tr.scst_step(state, [(samples[0].features.grid, samples[0].references)],
                 scst, df, vocab, emb)
    assert all(p.grad is None for p in state.target.values())
    assert any(p.grad is not None for p in state.online.values())
    print("PASS 3: target gradients stay None through an XE step and a "
          "self-critical step with distillation active in both")


# ---------------------------------------------------------------------------
# 4. beam search against exhaustive enumeration
# ---------------------------------------------------------------------------


def test_04_beam_search_reproduces_exhaustive_enumeration():
    rng = np.random.default_rng(29)
    models = 0
    for _ in range(20):
        vocab = int(rng.integers(4, 7))
        expand = table_model(rng, vocab, 4)
        leaves = enumerate_all(expand, 4)
        beam = beam_search(expand, k=len(leaves), max_length=4)
        assert len(beam) == len(leaves)
        for hyp, (ids, score) in zip(beam, leaves):
            assert hyp.ids == ids
            assert hyp.logprob == pytest.approx(score, abs=1e-12)
        one = beam_search(expand, k=1, max_length=4)[0]
        g = greedy(expand, max_length=4)
        assert one.ids == g.ids  # token for token
        assert one.logprob == pytest.approx(g.logprob, abs=1e-12)
        models += 1
    print(f"PASS 4: full-width beam equals exhaustive enumeration and k=1 "
          f"equals greedy on {models} random table models")


# ---------------------------------------------------------------------------
# 5. metric scores against independent oracles
# ---------------------------------------------------------------------------


def test_05_metrics_match_independent_oracles():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        cands, refs = random_corpus(rng)
        for n in range(1, 5):
            err = abs(M.bleu(cands, refs, n) - oracle_bleu(cands, refs, n))
            worst = max(worst, err)
            assert err < 1e-9
        err = abs(M.rouge_l(cands, refs) - oracle_rouge(cands, refs))
        worst = max(worst, err)
        assert err < 1e-9
        got = M.cider_d(cands, refs, M.DocumentFrequency(refs))
        err = abs(got - oracle_cider(cands, refs)[0])
        worst = max(worst, err)
        assert err < 1e-9

    # trivial corpora pin the endpoints exactly
    same = ["a red ball on the mat", "two dogs ran fast"]
    assert M.bleu(same, [[s] for s in same], 4) == 1.0
    assert M.rouge_l(same, [[s] for s in same]) == 1.0
    disjoint_refs = [["blue cube spins"], ["green star sits"]]
    assert M.bleu(same, disjoint_refs, 4) == 0.0
    assert M.rouge_l(same, disjoint_refs) == 0.0
    assert M.cider_d(same, disjoint_refs, M.DocumentFrequency(disjoint_refs)) == 0.0
    print(f"PASS 5: BLEU-1..4 / ROUGE-L / CIDEr-D match oracles on 20 random "
          f"corpora, worst abs error {worst:.2e} (< 1e-9); endpoints exact")


# ---------------------------------------------------------------------------
# 6. assignment solver against brute force
# ---------------------------------------------------------------------------


def test_06_assignment_matches_brute_force():
    rng = np.random.default_rng(37)
    matrices = 0
    for n in range(2, 8):
        for trial in range(9):
            if trial % 2 == 0:
                cost = rng.integers(0, 12, size=(n, n)).astype(np.float64)
            else:
                cost = rng.standard_normal((n, n))
            perm = A.hungarian(cost)
            _, best_total = brute_force(cost)
            assert row_total(cost, perm) == best_total  # exactly
            # adding a constant to one row never changes the winner
            shifted = cost.copy()
            shifted[int(rng.integers(n))] += 7.0
            assert A.hungarian(shifted).tolist() == perm.tolist()
            matrices += 1
    assert matrices >= 50
    print(f"PASS 6: optimal totals equal brute force exactly on {matrices} "
          f"matrices up to 7x7, and survive row-constant shifts")


# ---------------------------------------------------------------------------
# 7. equal rewards leave the policy untouched
# ---------------------------------------------------------------------------


def test_07_equal_rewards_produce_exactly_zero_update():
    assert [float(x) for x in tr.advantage([1.0, 0.0])] == [0.5, -0.5]
    assert [float(x) for x in tr.advantage([0.3, 0.3, 0.3])] == [0.0, 0.0, 0.0]

    # references share no tokens with anything the model can emit, so every
    # hypothesis earns exactly zero and the baseline absorbs all of it
    samples, vocab, cfg = tiny_setup()
    state = tr.TrainState.create(cfg, seed=7)  # fresh optimizer moments
    alien_refs = ["zzz qqq xxx", "qqq zzz"]
    df = M.DocumentFrequency([alien_refs])
    before = snapshot(state.online)
    scst = tr.ScstConfig(strategy="best", beam_size=3, learning_rate=1e-3, lambda_kd=0.0)
    emb = A.BagEmbedder(len(vocab.tokens), np.ones(len(vocab.tokens)))
    report = tr.scst_step(state, [(samples[0].features.grid, alien_refs)], scst, df, vocab, emb)
    assert report["reward_mean"] == 0.0 and report["baseline"] == 0.0
    assert snapshot(state.online) == before  # bit for bit
    assert state.step == 1 and state.adam_t == 1  # the step still counts
    print("PASS 7: centered coefficients exact and an all-equal-reward step "
          "leaves every online weight bit-identical")


# ---------------------------------------------------------------------------
# 8. inert distillation collapses to single-model training
# ---------------------------------------------------------------------------


def test_08_inert_distillation_collapses_to_single_model_training():
    samples, vocab, cfg = tiny_setup(num_images=8)
    seed, steps, bs, warmup = 11, 5, 3, 50
    state = tr.TrainState.create(cfg, seed, lambda_kd=0.0, momentum=1.0)
    tr.train_xe(state, samples, [], vocab,
                tr.LoopConfig(steps=steps, batch_size=bs, warmup=warmup))
    ref_params, ref_losses = plain_xe_loop(samples, vocab, cfg, seed, steps, bs, warmup)
    assert snapshot(state.online) == snapshot(ref_params)  # bit for bit
    print(f"PASS 8: {steps} twin-model steps with distillation weight 0 and "
          f"averaging disabled match an independent single-model loop bitwise")


# ---------------------------------------------------------------------------
# 9. the default desk configuration trains
# ---------------------------------------------------------------------------


def test_09_desk_run_halves_xe_loss_inside_budget(tmp_path):
    samples = generate_synthetic_dataset(seed=1, num_images=250)
    train, val, _ = split_dataset(samples, seed=1)
    assert len(train) == 200
    vocab = build_vocab(caption_corpus(), 200)
    cfg = mdl.ModelConfig(vocab_size=len(vocab.tokens))  # all defaults
    state = tr.TrainState.create(cfg, seed=1)
    log = tmp_path / "xe.jsonl"
    started = time.monotonic()
    tr.train_xe(state, train, val, vocab,
                tr.LoopConfig(steps=2000, batch_size=16, warmup=1000,
                              log_path=str(log)))
    elapsed = time.monotonic() - started
    with open(log) as fh:
        losses = [json.loads(line)["xe_loss"] for line in fh]
    first, last = losses[0], float(np.mean(losses[-10:]))
    assert last <= 0.5 * first, f"loss only went {first:.3f} -> {last:.3f}"
    assert elapsed < 600.0
    print(f"PASS 9: 2000 steps on 200 images in {elapsed:.0f}s, XE loss "
          f"{first:.3f} -> {last:.3f} ({100 * (1 - last / first):.0f}% drop)")


# ---------------------------------------------------------------------------
# 10/11. directional gates share one multi-seed training study
# ---------------------------------------------------------------------------

_BENCH_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def bench():
    """Five short XE runs on a shared desk-scale dataset.

    The averaging horizon is matched to the run length (momentum 0.99 over
    800 steps) the same way the default 0.999 suits runs in the tens of
    thousands of steps.
    """
    samples = generate_synthetic_dataset(seed=1, num_images=250)
    train, val, _ = split_dataset(samples, seed=1, val_fraction=0.2)
    vocab = build_vocab(caption_corpus(), 200)
    cfg = mdl.ModelConfig(vocab_size=len(vocab.tokens), model_dim=32,
                          feedforward_dim=128, num_heads=4,
                          num_encoder_layers=1, num_decoder_layers=1,
                          num_memory_slots=4, dropout_rate=0.2)
    runs = {}
    for seed in _BENCH_SEEDS:
        state = tr.TrainState.create(cfg, seed=seed, momentum=0.99)
        out = tr.train_xe(state, train, val, vocab,
                          tr.LoopConfig(steps=800, batch_size=8, warmup=200, val_every=800,
                                        val_beam=5))
        runs[seed] = {"state": state, "final_val": out["final_val"]}
    return {"train": train, "val": val, "vocab": vocab, "cfg": cfg, "runs": runs}


def test_10_averaged_weights_win_on_validation_across_seeds(bench):
    online = [bench["runs"][s]["final_val"]["online"] for s in _BENCH_SEEDS]
    target = [bench["runs"][s]["final_val"]["target"] for s in _BENCH_SEEDS]
    mean_online, mean_target = float(np.mean(online)), float(np.mean(target))
    assert mean_target >= mean_online, (
        f"averaged weights lost: target {mean_target:.4f} vs online "
        f"{mean_online:.4f} (per seed: {list(zip(online, target))})")
    print(f"PASS 10: over {len(_BENCH_SEEDS)} seeds, validation CIDEr-D mean "
          f"{mean_target:.4f} (averaged) vs {mean_online:.4f} (online); "
          f"per-seed online {[round(x, 3) for x in online]}, "
          f"target {[round(x, 3) for x in target]}")


def _mean_beam_reward(params, cfg, samples, vocab, df, k=5):
    per_image = []
    for s in samples:
        beam = caption_image(params, cfg, s.features.grid, k)
        texts = [detokenize_ids(h.ids, vocab) for h in beam]
        vectors = M.reference_vectors(s.references, df)
        per_image.append(float(np.mean([M.reward(t, vectors, df) for t in texts])))
    return float(np.mean(per_image))


def _clone_state(state, vocab):
    clone, _ = tr.state_from_checkpoint(tr.state_to_checkpoint(state, vocab, "xe"))
    return clone


def test_11_reward_finetuning_beats_xe_on_heldout_beams(bench):
    train, val, vocab, cfg = (bench[k] for k in ("train", "val", "vocab", "cfg"))
    df = M.DocumentFrequency([s.references for s in train])
    base = bench["runs"][_BENCH_SEEDS[0]]["state"]
    xe_reward = _mean_beam_reward(base.online, cfg, val, vocab, df)
    results = {}
    for strategy in ("best", "all"):
        state = _clone_state(base, vocab)
        scst = tr.ScstConfig(strategy=strategy, beam_size=5,
                             learning_rate=5e-5, lambda_kd=0.1)
        tr.prepare_for_scst(state, scst)
        tr.train_scst(state, train, val, vocab, scst,
                      tr.LoopConfig(steps=state.step + 500, batch_size=4))
        results[strategy] = _mean_beam_reward(state.online, cfg, val, vocab, df)
        assert results[strategy] > xe_reward, (
            f"'{strategy}' pairing: held-out beam reward {results[strategy]:.4f} "
            f"did not beat the XE model's {xe_reward:.4f}")
    print(f"PASS 11: 500 reward steps lift held-out mean beam CIDEr-D from "
          f"{xe_reward:.4f} to {results['best']:.4f} (best) and "
          f"{results['all']:.4f} (all)")


# ---------------------------------------------------------------------------
# 12. gates pinned to the last layer reproduce the plain decoder
# ---------------------------------------------------------------------------


def test_12_gates_pinned_to_last_layer_match_plain_decoder():
    rng = np.random.default_rng(41)
    base = dict(vocab_size=23, feature_dim=8, num_encoder_layers=3,
                num_decoder_layers=2, model_dim=16, feedforward_dim=32,
                num_heads=2, num_memory_slots=3, dropout_rate=0.0,
                max_length=12)
    plain_cfg = mdl.ModelConfig(**base, mesh_enabled=False)
    mesh_cfg = mdl.ModelConfig(**base, mesh_enabled=True)
    # float32 at the training precision; float64, where the pinned gates are
    # exact to about 1e-13, at a tolerance with a wide margin
    atol = {np.float32: 1e-6, np.float64: 1e-10}
    worst = dict.fromkeys(atol, 0.0)
    for seed in (10, 11, 12):
        models = {dtype: (mdl.init_params(plain_cfg, seed, dtype),
                          pin_gates_to_last_layer(mdl.init_params(mesh_cfg, seed, dtype), mesh_cfg))
                  for dtype in atol}
        for _ in range(3):
            grid = rng.standard_normal((6, 8)).astype(np.float32)
            ids = [BOS_ID] + [int(x) for x in rng.integers(3, 23, rng.integers(1, 7))]
            for dtype, (plain, mesh) in models.items():
                g = grid.astype(dtype)
                want = mdl.decode_logits(ids, mdl.encode(g, plain, plain_cfg),
                                         plain, plain_cfg).data
                got = mdl.decode_logits(ids, mdl.encode(g, mesh, mesh_cfg),
                                        mesh, mesh_cfg).data
                assert got.dtype == dtype
                worst[dtype] = max(worst[dtype], float(np.max(np.abs(got - want))))
                np.testing.assert_allclose(got, want, atol=atol[dtype])
    print(f"PASS 12: sigmoid gates pinned through their parameters reproduce the "
          f"single-layer decoder, worst abs logit gap {worst[np.float32]:.2e} (< 1e-6) "
          f"in float32 and {worst[np.float64]:.2e} (< 1e-10) in float64")


# ---------------------------------------------------------------------------
# 13. determinism and resume, both stages
# ---------------------------------------------------------------------------


def test_13_fixed_seed_runs_are_bit_identical_and_resumable(tmp_path):
    samples, vocab, cfg = tiny_setup(seed=7, num_images=8)
    train, val = samples[:6], samples[6:]

    def xe_loop(d, steps):
        d.mkdir(exist_ok=True)
        return tr.LoopConfig(steps=steps, batch_size=3, warmup=50, val_every=4,
                             val_beam=3, log_path=str(d / "log.jsonl"),
                             ckpt_dir=str(d))

    def artifacts(d):
        return ((d / "last.ckpt").read_bytes(), (d / "best.ckpt").read_bytes(),
                (d / "log.jsonl").read_text())

    # two fresh runs from the same seed agree on every byte they write
    a, b = tmp_path / "xe_a", tmp_path / "xe_b"
    state_a = tr.TrainState.create(cfg, seed=7)
    tr.train_xe(state_a, train, val, vocab, xe_loop(a, 8))
    tr.train_xe(tr.TrainState.create(cfg, seed=7), train, val, vocab, xe_loop(b, 8))
    assert artifacts(a) == artifacts(b)

    # stopping at step 4 and resuming lands on the identical artifacts
    c = tmp_path / "xe_resumed"
    tr.train_xe(tr.TrainState.create(cfg, seed=7), train, val, vocab, xe_loop(c, 4))
    ckpt = load_checkpoint(c / "last.ckpt")
    state, vocab_back = tr.state_from_checkpoint(ckpt)
    tr.train_xe(state, train, val, vocab_back, xe_loop(c, 8))
    assert artifacts(c) == artifacts(a)

    # the reward stage resumes the same way, optimizer moments included
    scst = tr.ScstConfig(strategy="best", beam_size=3, learning_rate=1e-4)

    def warm_state():
        st, _ = tr.state_from_checkpoint(load_checkpoint(a / "last.ckpt"))
        tr.prepare_for_scst(st, scst)
        return st

    def scst_loop(d, steps):
        d.mkdir(exist_ok=True)
        return tr.LoopConfig(steps=steps, batch_size=2, val_every=0,
                             log_path=str(d / "log.jsonl"), ckpt_dir=str(d))

    s1, s2 = tmp_path / "scst_a", tmp_path / "scst_resumed"
    tr.train_scst(warm_state(), train, val, vocab, scst, scst_loop(s1, 11))
    tr.train_scst(warm_state(), train, val, vocab, scst, scst_loop(s2, 9))
    ckpt = load_checkpoint(s2 / "last.ckpt")
    assert ckpt.stage == "scst"
    state, _ = tr.state_from_checkpoint(ckpt)
    tr.train_scst(state, train, val, vocab, scst, scst_loop(s2, 11))
    assert (s1 / "last.ckpt").read_bytes() == (s2 / "last.ckpt").read_bytes()
    assert (s1 / "log.jsonl").read_text() == (s2 / "log.jsonl").read_text()

    assert state_a.step == 8
    print("PASS 13: repeated runs write byte-identical checkpoints and logs, "
          "and stop/resume reproduces them bit for bit in both stages")
