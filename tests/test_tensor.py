"""Autodiff engine: finite-difference checks and structural contracts."""

import functools
import gc
import math
import weakref

import numpy as np
import pytest

from meancap import tensor as T
from meancap.model import NEG_INF
from meancap.training import _xe_weights
from gradcheck import check_gradients, sum_all


class FixedRng:
    """Replays one uniform draw, so a rebuilt forward pass is deterministic."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def keep(self, shape, rate):
        assert tuple(shape) == self.values.shape
        return self.values >= rate


def leaf(rng, *shape):
    return T.parameter(rng.standard_normal(shape))


def constant(data, dtype=np.float64):
    """A leaf no gradient flows to."""
    return T.Tensor(np.asarray(data, dtype=dtype))


def test_add_sub_mul_gradients():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 3, 4)
        check_gradients(lambda: sum_all(T.mul(T.add(a, b), T.add(a, T.scale(b, -1.0)))), [a, b])


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = leaf(rng, 4, 3)
        b = leaf(rng, 1, 3)
        check_gradients(lambda: sum_all(T.mul(T.add(a, b), b)), [a, b])


def test_scale_of_a_sum_gradients():
    rng = np.random.default_rng(13)
    for _ in range(10):
        parts = [leaf(rng, 2, 3) for _ in range(4)]
        check_gradients(lambda: sum_all(T.scale(functools.reduce(T.add, parts), -0.7)), parts)


def test_linear_2d_gradients():
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = leaf(rng, 3, 5)
        w = leaf(rng, 5, 2)
        b = leaf(rng, 2)
        check_gradients(lambda: sum_all(T.linear(x, w, b)), [x, w, b])


def test_linear_batched_gradients():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = leaf(rng, 2, 3, 4)
        w = leaf(rng, 4, 3)
        b = leaf(rng, 3)
        proj = constant(rng.standard_normal((2, 3, 3)))
        check_gradients(lambda: sum_all(T.mul(T.linear(x, w, b), proj)), [x, w, b])


def test_linear_shape_errors_report_both_shapes():
    x = constant(np.zeros((3, 4)))
    w = constant(np.zeros((5, 2)))
    with pytest.raises(ValueError) as exc:
        T.linear(x, w, constant(np.zeros(2)))
    assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)


def test_linear_is_bitwise_x_at_w_plus_b():
    rng = np.random.default_rng(23)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, 5, 8)).astype(dtype)
        w = rng.standard_normal((8, 6)).astype(dtype)
        b = rng.standard_normal(6).astype(dtype)
        got = T.linear(constant(x, dtype), T.parameter(w), T.parameter(b)).data
        assert got.dtype == dtype and got.tobytes() == (x @ w + b).tobytes()


def _attention_oracle(q, k, v, num_heads, mask):
    """Per-head loop in plain numpy, one sequence at a time."""
    *lead, tq, d = q.shape
    e = d // num_heads
    out = np.zeros(q.shape)
    for idx in np.ndindex(*lead):
        for h in range(num_heads):
            cols = slice(h * e, (h + 1) * e)
            scores = q[idx][:, cols] @ k[idx][:, cols].T / np.sqrt(e) + mask
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            out[idx][:, cols] = weights @ v[idx][:, cols]
    return out


def _offset_causal_mask(tq, tk):
    """New row i sees the tk - tq earlier keys and the new keys up to itself."""
    return np.where(np.arange(tk) <= np.arange(tq)[:, None] + tk - tq, 0.0, NEG_INF)


def test_attention_matches_per_head_loop():
    rng = np.random.default_rng(24)
    for heads, tq, tk in ((1, 3, 3), (2, 2, 5), (4, 4, 6)):
        q, k, v = (rng.standard_normal((2, t, 8)) for t in (tq, tk, tk))
        mask = _offset_causal_mask(tq, tk)
        got = T.attention(constant(q), constant(k), constant(v), heads, mask).data
        np.testing.assert_allclose(got, _attention_oracle(q, k, v, heads, mask), rtol=0, atol=1e-12)
        unmasked = T.attention(constant(q), constant(k), constant(v), heads).data
        np.testing.assert_allclose(unmasked, _attention_oracle(q, k, v, heads, 0.0), rtol=0, atol=1e-12)


def test_concat_slice_gradients():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a = leaf(rng, 2, 3)
        b = leaf(rng, 4, 3)
        w = constant(rng.standard_normal((3, 3)))

        def loss():
            cat = T.concat([a, b], axis=0)
            return sum_all(T.mul(T.embedding(cat, [1, 2, 5]), w))

        check_gradients(loss, [a, b])


def test_embedding_gradients_with_repeated_ids():
    rng = np.random.default_rng(17)
    for _ in range(10):
        table = leaf(rng, 6, 4)
        ids = rng.integers(0, 6, size=7)
        weights = constant(rng.standard_normal((7, 4)))
        check_gradients(lambda: sum_all(T.mul(T.embedding(table, ids), weights)), [table])


def test_embedding_rejects_out_of_range():
    table = constant(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        T.embedding(table, [0, 4])


def test_relu_sigmoid_gradients():
    rng = np.random.default_rng(18)
    for _ in range(10):
        data = rng.standard_normal((3, 4))
        data[np.abs(data) < 0.1] = 0.5  # keep finite differences off the kink
        a = T.parameter(data)
        check_gradients(lambda: sum_all(T.relu(a)), [a])
        b = leaf(rng, 3, 4)
        check_gradients(lambda: sum_all(T.sigmoid(b)), [b])


def test_softmax_rows_are_a_simplex():
    # with one head and identity values, attention returns its softmax weights
    rng = np.random.default_rng(19)
    for _ in range(20):
        q = rng.standard_normal((5, 9)) * rng.uniform(0.1, 30.0)
        k = rng.standard_normal((9, 9))
        p = T.attention(constant(q), constant(k), constant(np.eye(9)), 1).data
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_gradients():
    # the gradient through attention's softmax alone: identity values
    rng = np.random.default_rng(20)
    for _ in range(10):
        q = leaf(rng, 3, 5)
        k = leaf(rng, 5, 5)
        w = constant(rng.standard_normal((3, 5)))
        eye = constant(np.eye(5))
        check_gradients(lambda: sum_all(T.mul(T.attention(q, k, eye, 1), w)), [q, k])


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((4, 7)) * 12.0
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    softmax = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(T._row_log_softmax(logits), np.log(softmax), atol=1e-12)


def test_layer_norm_gradients():
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = leaf(rng, 4, 6)
        gain = T.parameter(rng.uniform(0.5, 1.5, size=6))
        bias = T.parameter(rng.standard_normal(6) * 0.1)
        w = constant(rng.standard_normal((4, 6)))
        check_gradients(lambda: sum_all(T.mul(T.layer_norm(x, gain, bias), w)), [x, gain, bias])


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(23)
    x = constant(rng.standard_normal((8, 16)) * 5.0 + 3.0)
    ones = constant(np.ones(16))
    zeros = constant(np.zeros(16))
    y = T.layer_norm(x, ones, zeros).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)


def cross_entropy_oracle(logits, target_ids, mask):
    """The retired ``cross_entropy`` op: the mean of -log softmax(logits)[target]
    over each (B, T) sequence's masked steps, then over sequences.  XE now
    sums ``sequence_log_prob`` under ``training._xe_weights``, which must
    give this op's gradient bit for bit."""
    ids = np.asarray(target_ids, dtype=np.int64)
    m = np.asarray(mask, dtype=logits.dtype)
    valid = m.sum(axis=-1)
    logp = T._row_log_softmax(logits.data)
    picked = np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0]
    out = np.asarray(((-picked * m).sum(axis=-1) / valid).mean())

    def bw(g, vl):
        p = np.exp(logp)
        flat = p.reshape(-1, p.shape[-1])
        flat[np.arange(flat.shape[0]), ids.ravel()] -= 1.0
        vl.accumulate_grad(p * (m / valid[..., None] / valid.size)[..., None] * g)

    return T._result(out, (logits,), bw)


def xe_loss(logits, target_ids, mask):
    return T.sequence_log_prob(logits, target_ids, _xe_weights(np.asarray(mask), logits.dtype))


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = constant(np.zeros((2, 5, 4)))
    loss = xe_loss(logits, [[0, 1, 2, 3, 0], [3, 2, 1, 0, 0]], [[1, 1, 1, 1, 1], [1, 1, 0, 0, 0]])
    np.testing.assert_allclose(loss.data, np.log(4.0), atol=1e-12)


def test_cross_entropy_gradients():
    rng = np.random.default_rng(24)
    for _ in range(10):
        logits = leaf(rng, 2, 6, 5)
        ids = rng.integers(0, 5, size=(2, 6))
        mask = (rng.random((2, 6)) < 0.7).astype(np.float64)
        mask[:, 0] = 1.0
        check_gradients(lambda: xe_loss(logits, ids, mask), [logits])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_xe_weights_give_the_retired_cross_entropy_gradient_bit_for_bit(dtype):
    rng = np.random.default_rng(31)
    for _ in range(50):
        b, t, n = (int(x) for x in rng.integers(1, 9, size=3))
        data = (rng.standard_normal((b, t, n)) * 4.0).astype(dtype)
        ids = rng.integers(0, n, size=(b, t))
        mask = (rng.random((b, t)) < 0.6).astype(np.float64)
        mask[np.arange(b), rng.integers(0, t, size=b)] = 1.0
        grads, values = [], []
        for loss_fn in (xe_loss, cross_entropy_oracle):
            logits = T.parameter(data.copy())
            loss = loss_fn(logits, ids, mask)
            T.backward(loss)
            grads.append(logits.grad)
            values.append(float(loss.data))
        assert grads[0].dtype == dtype and grads[0].tobytes() == grads[1].tobytes()
        np.testing.assert_allclose(values[0], values[1], rtol=1e-6, atol=0.0)


def test_cross_entropy_rejects_bad_targets():
    logits = constant(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="out of range"):
        T.sequence_log_prob(logits, [0, 1, 4], np.ones(3))
    with pytest.raises(ValueError, match="target shape"):
        T.sequence_log_prob(logits, [0, 1], np.ones(3))
    with pytest.raises(ValueError, match="weights shape"):
        T.sequence_log_prob(logits, [0, 1, 2], np.ones(2))
    with pytest.raises(ValueError, match="at least one target step"):
        _xe_weights(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), np.float64)


def test_masked_rows_cannot_move_the_loss_bits():
    rng = np.random.default_rng(25)
    logits = rng.standard_normal((1, 6, 5))
    ids = rng.integers(0, 5, size=(1, 6))
    mask = np.array([[1, 1, 0, 1, 0, 0]], dtype=np.float64)
    base = xe_loss(constant(logits.copy()), ids, mask).data.copy()
    for _ in range(20):
        perturbed = logits.copy()
        perturbed[mask == 0] = rng.standard_normal((3, 5)) * 100.0
        again = xe_loss(constant(perturbed), ids, mask).data
        assert again == base  # bitwise: masked rows contribute exact zero


def test_dropout_attention_and_masked_mse_reject_bad_inputs():
    x = constant(np.ones((2, 4)))
    for rate in (-0.1, 1.0):  # rate 1 would scale by 1 / 0
        with pytest.raises(ValueError, match="dropout rate"):
            T.dropout(x, rate, FixedRng(np.ones((2, 4))))
    q = constant(np.ones((3, 4)))
    for k, v, heads in ((np.ones((5, 3)), np.ones((5, 3)), 2),   # widths differ
                        (np.ones((5, 4)), np.ones((6, 4)), 2),   # k and v rows differ
                        (np.ones((5, 4)), np.ones((5, 4)), 3)):  # 4 columns over 3 heads
        with pytest.raises(ValueError, match="attention needs"):
            T.attention(q, constant(k), constant(v), heads)
    a = constant(np.ones((2, 3, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        T.masked_mse(a, constant(np.ones((2, 3, 5))), np.ones((2, 3)))
    with pytest.raises(ValueError, match="mask shape"):
        T.masked_mse(a, a, np.ones((2, 4)))
    with pytest.raises(ValueError, match="at least one valid timestep"):
        T.masked_mse(a, a, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_masked_mse_masked_rows_bit_invariant():
    rng = np.random.default_rng(26)
    target = rng.standard_normal((5, 4))
    online = rng.standard_normal((5, 4))
    mask = np.array([1, 0, 1, 0, 1], dtype=np.float64)
    base = T.masked_mse(constant(target.copy()), constant(online.copy()), mask).data.copy()
    for _ in range(20):
        t2, o2 = target.copy(), online.copy()
        t2[mask == 0] = rng.standard_normal((2, 4)) * 50.0
        o2[mask == 0] = rng.standard_normal((2, 4)) * 50.0
        again = T.masked_mse(constant(t2), constant(o2), mask).data
        assert again == base


def test_masked_mse_gradients_and_value():
    rng = np.random.default_rng(27)
    for _ in range(10):
        target = constant(rng.standard_normal((4, 3)))
        online = leaf(rng, 4, 3)
        mask = np.array([1, 1, 0, 1], dtype=np.float64)
        loss = T.masked_mse(target, online, mask)
        expect = ((target.data - online.data)[mask == 1] ** 2).mean()
        np.testing.assert_allclose(loss.data, expect, atol=1e-12)
        check_gradients(lambda: T.masked_mse(target, online, mask), [online])


def test_masked_mse_detaches_target_side():
    rng = np.random.default_rng(28)
    target = T.parameter(rng.standard_normal((3, 2)))
    online = T.parameter(rng.standard_normal((3, 2)))
    loss = T.masked_mse(target, online, np.ones(3))
    T.backward(loss)
    assert target.grad is None
    assert online.grad is not None and np.any(online.grad != 0)


def test_sequence_log_prob_gradients_and_value():
    rng = np.random.default_rng(29)
    for _ in range(10):
        logits = leaf(rng, 5, 6)
        ids = rng.integers(0, 6, size=5)
        mask = np.array([1, 1, 1, 0, 0], dtype=np.float64)
        lp = T.sequence_log_prob(logits, ids, mask)
        rows = logits.data - np.log(np.exp(logits.data).sum(axis=-1, keepdims=True))
        expect = sum(rows[t, ids[t]] for t in range(3))
        np.testing.assert_allclose(lp.data, expect, atol=1e-12)
        check_gradients(lambda: T.sequence_log_prob(logits, ids, mask), [logits])


def test_dropout_eval_is_identity_and_train_grad_matches():
    rng = np.random.default_rng(30)
    x = T.parameter(rng.standard_normal((4, 5)))
    assert T.dropout(x, 0.5, None) is x
    fixed = FixedRng(rng.random((4, 5)))
    check_gradients(lambda: sum_all(T.dropout(x, 0.4, fixed)), [x])
    kept = T.dropout(x, 0.4, fixed).data
    mask = fixed.values >= 0.4
    np.testing.assert_allclose(kept[mask], x.data[mask] / 0.6, atol=1e-12)
    assert np.all(kept[~mask] == 0.0)


def test_sum_of_parameters_gives_unit_gradients():
    rng = np.random.default_rng(31)
    params = [T.parameter(rng.standard_normal((3, 3))) for _ in range(3)]
    loss = sum_all(functools.reduce(T.add, params))
    T.backward(loss)
    for p in params:
        np.testing.assert_array_equal(p.grad, np.ones((3, 3)))


def test_sum_all_helper_passes_its_gradient_check():
    """Every other gradient check reduces to ``sum_all``, so it is checked on its own."""
    for instance in range(10):
        rng = np.random.default_rng([17, instance])
        a = leaf(rng, *rng.integers(1, 5, size=int(rng.integers(1, 4))))
        check_gradients(lambda: sum_all(a), [a])


def test_backward_twice_raises():
    for recorded in (True, False):
        a = T.parameter(np.ones(3))
        if recorded:
            loss = sum_all(a)
        else:
            with T.no_grad():
                loss = sum_all(a)  # a loss that needs no gradient: backward just returns
        T.backward(loss)
        assert (a.grad is not None) == recorded
        with pytest.raises(RuntimeError):
            T.backward(loss)


def test_backward_requires_scalar():
    a = T.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        T.backward(T.relu(a))


def _graph_with_saved_arrays(rng):
    """A loss over attention, layer norm, dropout and a shared node, plus
    weak references to every array those ops' vertices saved for backward,
    among them the shared node's value, which attention reads."""
    x, w = leaf(rng, 2, 3, 8), leaf(rng, 8, 8)
    h = T.layer_norm(T.linear(x, w, constant(np.zeros(8))), constant(np.ones(8)),
                     constant(np.zeros(8)))
    att = T.attention(h, h, h, 2, _offset_causal_mask(3, 3))
    out = T.dropout(T.relu(att), 0.3, FixedRng(rng.random((2, 3, 8))))
    saved = [weakref.ref(c.cell_contents) for node in (h, att, out)
             for c in node._vertex._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    saved.append(weakref.ref(h.data))
    return (x, w), h, sum_all(T.mul(out, out)), saved


def test_backward_frees_every_array_the_graph_saved_without_a_collection():
    leaves, h, loss, saved = _graph_with_saved_arrays(np.random.default_rng(40))
    assert len(saved) >= 8 and all(ref() is not None for ref in saved)
    del h
    gc.disable()  # reference counting alone must free them
    try:
        T.backward(loss)
        assert [ref() is None for ref in saved] == [True] * len(saved)
    finally:
        gc.enable()
    assert all(p.grad is not None for p in leaves)


def test_backward_drops_interior_gradients_and_keeps_leaf_gradients():
    leaves, h, loss, _ = _graph_with_saved_arrays(np.random.default_rng(41))
    T.backward(loss)
    for vertex in (h._vertex, loss._vertex):
        assert vertex.grad is None and vertex.parents == () and vertex._backward is None
    assert h.data.shape == (2, 3, 8)  # values stay readable
    assert h.grad is None and loss.grad is None
    for p in leaves:
        assert p.grad.shape == p.data.shape and np.any(p.grad != 0)


def _chain_reference(x, w1, b1, u, rate, gain, bias, w2, b2):
    """relu(layer_norm(x + dropout(x @ w1 + b1))) @ w2 + b2, summed, in plain
    numpy, each interior first gradient copied as ``g + 0.0``: (loss,
    dx, dw1, db1, dgain, dbias, dw2, db2)."""
    d = x.shape[-1]
    scale = (u >= rate).astype(x.dtype) / (1.0 - rate)
    s = x + (x @ w1 + b1) * scale
    xc = s - np.add.reduce(s, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + 1e-5)
    xhat = xc * inv
    r = np.maximum(xhat * gain + bias, 0.0)
    y = r @ w2 + b2
    gy = np.broadcast_to(np.ones_like(y.sum()), y.shape).copy() + 0.0
    gr = gy @ w2.T + 0.0
    gn = gr * (r > 0) + 0.0
    gx = gn * gain
    gs = (gx - np.add.reduce(gx, axis=-1, keepdims=True) / d
          - xhat * np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d) * inv + 0.0
    gh = (gs + 0.0) * scale + 0.0
    return (y.sum(), gs + 0.0 + gh @ w1.T, x.reshape(-1, d).T @ gh.reshape(-1, d) + 0.0,
            gh.sum(axis=0).sum(axis=0) + 0.0, (gn * xhat).reshape(-1, d).sum(axis=0) + 0.0,
            gn.reshape(-1, d).sum(axis=0) + 0.0, r.reshape(-1, d).T @ gy.reshape(-1, 5) + 0.0,
            gy.sum(axis=0).sum(axis=0) + 0.0)


def test_values_no_backward_reads_die_with_their_handles():
    rng = np.random.default_rng(43)
    arrays = [rng.standard_normal(s).astype(np.float32)
              for s in ((2, 3, 8), (8, 8), (8,), (8,), (8,), (8, 5), (5,))]
    arrays[3] += 1.0  # gain
    u = rng.random((2, 3, 8))
    x, w1, b1, gain, bias, w2, b2 = (T.parameter(a) for a in arrays)
    gc.disable()  # reference counting alone must free them
    try:
        h = T.linear(x, w1, b1)
        dropped = T.dropout(h, 0.3, FixedRng(u))
        residual = T.add(x, dropped)
        normed = T.layer_norm(residual, gain, bias)
        y = T.linear(T.relu(normed), w2, b2)
        loss = sum_all(y)
        unread = [weakref.ref(t.data) for t in (h, dropped, residual, normed, y)]
        del h, dropped, residual, normed, y
        assert [ref() is None for ref in unread] == [True] * len(unread)
        T.backward(loss)
    finally:
        gc.enable()
    want = _chain_reference(*arrays[:3], u, 0.3, *arrays[3:])
    assert _same_bits(loss.data, want[0])
    for p, w in zip((x, w1, b1, gain, bias, w2, b2), want[1:]):
        assert _same_bits(p.grad, w)


def test_second_backward_through_a_consumed_shared_node_raises():
    a = T.parameter(np.full((2, 2), 3.0))
    shared = sum_all(T.mul(a, a))
    first, second = T.scale(shared, 1.0), T.scale(shared, 2.0)
    T.backward(first)
    before = a.grad.copy()
    with pytest.raises(RuntimeError, match="rerun the forward pass"):
        T.backward(second)
    np.testing.assert_array_equal(a.grad, before)  # nothing half-propagated
    with pytest.raises(RuntimeError):
        T.backward(shared)  # a consumed interior node is no new root either


def _dropout_reference(x, u, rate, g):
    """Dropout as it was written with a saved float mask: (out, dx)."""
    mask = (u >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, g * mask


def _attention_reference(q, k, v, num_heads, mask, g):
    """Attention as it was written with scores and att saved as the copy
    layouts: (out, dq, dk, dv)."""
    d = q.shape[-1]
    c = 1.0 / math.sqrt(d // num_heads)

    def split(a):
        return a.reshape(*a.shape[:-1], num_heads, d // num_heads).swapaxes(-3, -2)

    def join(a):
        return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], d)

    qh, kt, vh = split(q), split(k).swapaxes(-1, -2), split(v)
    scores = (qh @ kt) * c
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    att = p @ vh
    ga = T._copied(att, split(g))
    dv = join(T._unbroadcast(p.swapaxes(-1, -2) @ ga, vh.shape))
    gp = T._copied(p, T._unbroadcast(ga @ vh.swapaxes(-1, -2), p.shape))
    gs = T._copied(scores, p * (gp - np.add.reduce(gp * p, axis=-1, keepdims=True)) * c)
    dk = join(T._unbroadcast(qh.swapaxes(-1, -2) @ gs, kt.shape).swapaxes(-1, -2))
    dq = join(T._unbroadcast(gs @ kt.swapaxes(-1, -2), qh.shape))
    return join(att), dq, dk, dv


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_and_attention_keep_the_bits_of_their_saved_array_forms(dtype):
    rng = np.random.default_rng(42)
    x = rng.standard_normal((3, 4, 8)).astype(dtype)
    u, g = rng.random((3, 4, 8)), rng.standard_normal((3, 4, 8)).astype(dtype)
    xp = T.parameter(x)
    out = T.dropout(xp, 0.3, FixedRng(u))
    T.backward(sum_all(T.mul(out, constant(g, dtype))))
    want_out, want_dx = _dropout_reference(x, u, 0.3, g)
    # a leaf's first gradient is copied as ``g + 0.0``, which turns -0.0 into +0.0
    assert _same_bits(out.data, want_out) and _same_bits(xp.grad, want_dx + 0.0)

    for q_shape, kv_shape, mask, only_v in [
        ((2, 5, 8), (2, 5, 8), _offset_causal_mask(5, 5).astype(dtype), False),  # self-attention
        ((2, 3, 8), (2, 6, 8), _offset_causal_mask(3, 6).astype(dtype), False),  # cached rows
        ((2, 5, 8), (9, 8), None, False),  # one memory for every row
        ((5, 8), (2, 9, 8), np.zeros((2, 1, 1, 9), dtype), False),  # broadcast padding mask
        ((2, 5, 8), (2, 5, 8), _offset_causal_mask(5, 5).astype(dtype), True),  # only v learns
    ]:
        q, k, v = (rng.standard_normal(s).astype(dtype) for s in (q_shape, kv_shape, kv_shape))
        qp, kp = (constant(a, dtype) if only_v else T.parameter(a) for a in (q, k))
        vp = T.parameter(v)
        out = T.attention(qp, kp, vp, 2, mask)
        g = rng.standard_normal(out.shape).astype(dtype)
        T.backward(sum_all(T.mul(out, constant(g, dtype))))
        want = _attention_reference(q, k, v, 2, mask, g)
        assert _same_bits(out.data, want[0])
        assert _same_bits(vp.grad, want[3] + 0.0)
        if only_v:
            assert qp.grad is None and kp.grad is None
        else:
            assert _same_bits(qp.grad, want[1] + 0.0) and _same_bits(kp.grad, want[2] + 0.0)


def test_no_grad_suppresses_graph():
    a = T.parameter(np.ones((2, 2)))
    with T.no_grad():
        out = sum_all(T.mul(a, a))
    assert not out.requires_grad
    assert out._vertex is None
    assert T.mul(a, a).requires_grad  # recording resumes on exit


def test_shared_node_gradient_accumulates_once_per_path():
    # f(x) = sum(x*x + x*x) reuses the same product node twice
    a = T.parameter(np.full((2, 2), 3.0))
    sq = T.mul(a, a)
    loss = sum_all(T.add(sq, sq))
    T.backward(loss)
    np.testing.assert_allclose(a.grad, np.full((2, 2), 12.0), atol=1e-12)


def test_deep_chain_does_not_overflow():
    x = T.parameter(np.array([1.0]))
    cur = x
    for _ in range(5000):
        cur = T.scale(cur, 1.0)
    T.backward(sum_all(cur))
    np.testing.assert_allclose(x.grad, [1.0])


def _zeros_plus(like, g):
    """A first gradient as zeros laid out like ``like`` with ``g`` added in."""
    out = np.zeros_like(like)
    out += g
    return out


@pytest.mark.parametrize("like, g", [
    (np.ones(4, np.float32), np.array([-0.0, 0.0, -1.5, 2.0], np.float32)),
    (np.ones(3), np.array([np.nan, -np.nan, np.inf])),
    (np.ones((2, 3), np.float32), np.array([-0.0, 1.0, -2.5], np.float32)),  # broadcast rows
    (np.ones((3, 2), np.float32), np.array([1e-40, 1 / 3, -0.0, 3e38, -1e-46, 0.1]).reshape(3, 2)),
    (np.ones((2, 3), np.float32).T, np.arange(6.0).reshape(3, 2) / 7),  # a transposed layout
])
def test_first_gradient_copy_keeps_the_bits_of_zeros_plus_g(like, g):
    got, want = T._copied(like, g), _zeros_plus(like, g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[np.broadcast_to(g == 0, got.shape)]).any()  # -0.0 becomes +0.0
