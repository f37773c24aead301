"""Architecture contracts: shapes, equivariance, causality, mesh, batching."""

import numpy as np
import pytest

from meancap import model as mdl
from meancap import tensor as T
from meancap.tokenizer import BOS_ID


def tiny_config(**kw):
    base = dict(vocab_size=11, feature_dim=6, num_encoder_layers=2, num_decoder_layers=2,
                model_dim=16, feedforward_dim=32, num_heads=4, num_memory_slots=3,
                dropout_rate=0.0, max_length=10)
    base.update(kw)
    return mdl.ModelConfig(**base)


def decode_step(prefix_ids, encoder_layers, params, config):
    """Oracle: next-token logits, one (1, N) row, for a BOS-led prefix; evaluation mode."""
    if len(prefix_ids) >= config.max_length:
        raise ValueError(f"prefix length {len(prefix_ids)} must stay under max_length {config.max_length}")
    logits = mdl.decode_logits(prefix_ids, encoder_layers, params, config)
    return T.embedding(logits, [logits.shape[0] - 1])


def make(config, seed=0):
    return mdl.init_params(config, seed, dtype=np.float64)


def rand_grid(rng, config, g=5):
    return rng.standard_normal((g, config.feature_dim))


def pin_gates_to_last_layer(params, config):
    """Set mesh parameters so the gated decoder computes the plain one.

    Every gate reads a zero weight and a bias of -30, or +30 for the last
    encoder layer, so the sigmoids sit at 0 and 1 to within 1e-13; scaling
    the shared cross-attention output projection by the number of encoder
    layers undoes the mean over layers.  Returns ``params``, changed in place.
    """
    num_enc = config.num_encoder_layers
    for j in range(config.num_decoder_layers):
        for l in range(num_enc):
            params[f"dec{j}.mesh{l}.gate.weight"].data[:] = 0.0
            params[f"dec{j}.mesh{l}.gate.bias"].data[:] = 30.0 if l == num_enc - 1 else -30.0
        for part in ("weight", "bias"):
            wo = params[f"dec{j}.cross.wo.{part}"]
            wo.data = wo.data * num_enc
    return params


# --- parameter contracts ----------------------------------------------------


def test_param_names_pure_function_of_config():
    cfg = tiny_config()
    a, b = make(cfg, seed=1), make(cfg, seed=2)
    assert list(a) == list(b)
    for name in a:
        assert a[name].shape == b[name].shape


def test_same_seed_same_bits():
    cfg = tiny_config()
    a, b = make(cfg, seed=3), make(cfg, seed=3)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)


def test_shared_names_identical_across_mesh_configs():
    plain = make(tiny_config(), seed=5)
    mesh = make(tiny_config(mesh_enabled=True), seed=5)
    assert set(plain) < set(mesh)
    extra = set(mesh) - set(plain)
    assert extra and all(".mesh" in n and ".gate" in n for n in extra)
    for name in plain:
        np.testing.assert_array_equal(plain[name].data, mesh[name].data)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(model_dim=15)
    with pytest.raises(ValueError):
        tiny_config(num_memory_slots=-1)
    with pytest.raises(ValueError):
        tiny_config(vocab_size=2)
    for name in ("feature_dim", "num_decoder_layers", "feedforward_dim"):
        with pytest.raises(ValueError, match=name):
            tiny_config(**{name: 0})


# --- encoder ----------------------------------------------------------------


def numpy_reference_encoder(grid, params, cfg):
    """Independent slot-free encoder: plain multi-head attention, post-norm."""
    def p(name):
        return params[name].data

    def lin(x, prefix):
        return x @ p(prefix + ".weight") + p(prefix + ".bias")

    def norm(x, prefix):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        return (xc * inv) * p(prefix + ".gain") + p(prefix + ".bias")

    h = 4
    x = lin(grid, "encoder.input")
    outs = []
    for i in range(cfg.num_encoder_layers):
        g, d = x.shape
        hd = d // h
        q = lin(x, f"enc{i}.attn.wq").reshape(g, h, hd).transpose(1, 0, 2)
        k = lin(x, f"enc{i}.attn.wk").reshape(g, h, hd).transpose(1, 0, 2)
        v = lin(x, f"enc{i}.attn.wv").reshape(g, h, hd).transpose(1, 0, 2)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(hd))
        m = scores.max(axis=-1, keepdims=True)
        e = np.exp(scores - m)
        attn = e / e.sum(axis=-1, keepdims=True)
        joined = (attn @ v).transpose(1, 0, 2).reshape(g, d)
        x = norm(x + lin(joined, f"enc{i}.attn.wo"), f"enc{i}.norm1")
        ff = np.maximum(lin(x, f"enc{i}.ff.w1"), 0.0) @ p(f"enc{i}.ff.w2.weight") + p(f"enc{i}.ff.w2.bias")
        x = norm(x + ff, f"enc{i}.norm2")
        outs.append(x)
    return outs


def test_zero_slots_bit_equal_to_reference_path():
    rng = np.random.default_rng(31)
    cfg = tiny_config(num_memory_slots=0)
    params = make(cfg, seed=9)
    grid = rand_grid(rng, cfg)
    got = mdl.encode(grid, params, cfg)
    want = numpy_reference_encoder(grid, params, cfg)
    assert len(got) == cfg.num_encoder_layers
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.data, b)


def test_encoder_output_shapes():
    rng = np.random.default_rng(32)
    for slots in (0, 3):
        cfg = tiny_config(num_memory_slots=slots)
        outs = mdl.encode(rand_grid(rng, cfg, g=7), make(cfg), cfg)
        assert len(outs) == cfg.num_encoder_layers
        assert all(o.shape == (7, cfg.model_dim) for o in outs)


def test_permuting_grid_cells_permutes_outputs():
    rng = np.random.default_rng(33)
    cfg = tiny_config()
    params = make(cfg, seed=2)
    grid = rand_grid(rng, cfg, g=6)
    perm = rng.permutation(6)
    base = mdl.encode(grid, params, cfg)
    shuffled = mdl.encode(grid[perm], params, cfg)
    for a, b in zip(base, shuffled):
        np.testing.assert_allclose(b.data, a.data[perm], rtol=1e-12, atol=1e-12)


def test_feature_dim_mismatch_rejected():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        mdl.encode(np.zeros((4, cfg.feature_dim + 1)), make(cfg), cfg)


# --- decoder ----------------------------------------------------------------


def enc_and_ids(rng, cfg, params, t=6):
    enc = mdl.encode(rand_grid(rng, cfg), params, cfg)
    ids = [BOS_ID] + rng.integers(3, cfg.vocab_size, size=t - 1).tolist()
    return enc, ids


def test_causality_is_bitwise():
    rng = np.random.default_rng(34)
    cfg = tiny_config()
    params = make(cfg, seed=4)
    enc, ids = enc_and_ids(rng, cfg, params, t=7)
    base = mdl.decode_logits(ids, enc, params, cfg).data
    for j in range(1, 7):
        mutated = list(ids)
        mutated[j] = 3 if mutated[j] != 3 else 4
        out = mdl.decode_logits(mutated, enc, params, cfg).data
        np.testing.assert_array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def test_teacher_forced_matches_sequential_steps():
    rng = np.random.default_rng(35)
    for mesh in (False, True):
        cfg = tiny_config(mesh_enabled=mesh)
        params = make(cfg, seed=6)
        enc, ids = enc_and_ids(rng, cfg, params, t=6)
        full = mdl.decode_logits(ids, enc, params, cfg).data
        for t in range(1, 6):
            step = decode_step(ids[:t], enc, params, cfg).data[0]
            np.testing.assert_allclose(step, full[t - 1], atol=1e-6)


def test_decoder_rejects_bad_prefixes():
    rng = np.random.default_rng(36)
    cfg = tiny_config()
    params = make(cfg)
    enc = mdl.encode(rand_grid(rng, cfg), params, cfg)
    with pytest.raises(ValueError):
        mdl.decode_logits([5, 6], enc, params, cfg)  # no BOS
    with pytest.raises(ValueError):
        mdl.decode_logits([BOS_ID] + [3] * cfg.max_length, enc, params, cfg)
    with pytest.raises(ValueError):
        decode_step([BOS_ID] + [3] * (cfg.max_length - 1), enc, params, cfg)


def test_eval_mode_is_deterministic():
    rng = np.random.default_rng(37)
    cfg = tiny_config()
    params = make(cfg, seed=8)
    enc, ids = enc_and_ids(rng, cfg, params)
    a = mdl.decode_logits(ids, enc, params, cfg).data
    b = mdl.decode_logits(ids, enc, params, cfg).data
    np.testing.assert_array_equal(a, b)


def test_mesh_pinned_to_last_layer_matches_plain():
    rng = np.random.default_rng(38)
    plain_cfg = tiny_config()
    mesh_cfg = tiny_config(mesh_enabled=True)
    plain = make(plain_cfg, seed=10)
    mesh = make(mesh_cfg, seed=10)
    grid = rand_grid(rng, plain_cfg)
    ids = [BOS_ID, 4, 7, 5]
    want = mdl.decode_logits(ids, mdl.encode(grid, plain, plain_cfg), plain, plain_cfg).data
    pin_gates_to_last_layer(mesh, mesh_cfg)
    got = mdl.decode_logits(ids, mdl.encode(grid, mesh, mesh_cfg), mesh, mesh_cfg).data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_mesh_gates_actually_mix_layers():
    rng = np.random.default_rng(39)
    cfg = tiny_config(mesh_enabled=True)
    params = make(cfg, seed=11)
    enc, ids = enc_and_ids(rng, cfg, params)
    gated = mdl.decode_logits(ids, enc, params, cfg).data
    pinned_params = pin_gates_to_last_layer(mdl.copy_params(params), cfg)
    pinned = mdl.decode_logits(ids, enc, pinned_params, cfg).data
    assert not np.allclose(gated, pinned, atol=1e-8)


def test_batch_rows_equal_each_sample_alone():
    """encode on (B, G, F) and decode_logits on right-padded (B, T) ids give,
    row for row, what each grid and sequence gives alone."""
    rng = np.random.default_rng(40)
    seqs = [[BOS_ID, 5, 6, 2], [BOS_ID, 7], [BOS_ID, 4, 4, 9, 3, 8]]
    padded = np.zeros((3, 6), dtype=np.int64)  # right padding with id 0
    for row, ids in zip(padded, seqs):
        row[:len(ids)] = ids
    for mesh in (False, True):
        cfg = tiny_config(mesh_enabled=mesh)
        grids = [rand_grid(rng, cfg) for _ in range(3)]
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
            params = mdl.init_params(cfg, 12, dtype=dtype)
            batch_enc = mdl.encode(np.stack(grids), params, cfg)
            batch_logits = mdl.decode_logits(padded, batch_enc, params, cfg).data
            assert batch_logits.shape == (3, 6, cfg.vocab_size)
            for i, (grid, ids) in enumerate(zip(grids, seqs)):
                enc = mdl.encode(grid, params, cfg)
                for layer, batch_layer in zip(enc, batch_enc):
                    np.testing.assert_allclose(batch_layer.data[i], layer.data, rtol=0, atol=tol)
                alone = mdl.decode_logits(ids, enc, params, cfg).data
                np.testing.assert_allclose(batch_logits[i, :len(ids)], alone, rtol=0, atol=tol)


def test_dropout_draws_affect_training_mode_only():
    from meancap.rng import KeyedRng, ROLE_ONLINE

    rng = np.random.default_rng(41)
    cfg = tiny_config(dropout_rate=0.2)
    params = make(cfg, seed=13)
    enc, ids = enc_and_ids(rng, cfg, params)
    kr = KeyedRng(seed=1, role=ROLE_ONLINE)
    kr.begin_step(1)
    dropped = mdl.decode_logits(ids, enc, params, cfg, rng=kr).data
    clean = mdl.decode_logits(ids, enc, params, cfg).data
    assert not np.allclose(dropped, clean, atol=1e-8)
    kr.begin_step(1)
    again = mdl.decode_logits(ids, enc, params, cfg, rng=kr).data
    np.testing.assert_array_equal(dropped, again)


def test_gradients_flow_to_all_touched_parameters():
    rng = np.random.default_rng(42)
    cfg = tiny_config(num_memory_slots=2)
    params = make(cfg, seed=14)
    enc, ids = enc_and_ids(rng, cfg, params, t=5)
    logits = mdl.decode_logits(ids, enc, params, cfg)
    loss = T.sequence_log_prob(logits, ids[1:] + [2], np.full(5, -1.0 / 5))  # XE's weights
    T.backward(loss)
    missing = [n for n, p in params.items() if p.grad is None]
    assert missing == []
