"""Reverse-mode automatic differentiation on numpy arrays.

Small by design: it provides exactly the differentiable operations the
captioning model and its losses need, nothing more.  Operations build an
acyclic graph and ``backward`` walks it once in reverse topological order.
Works in float64 (test and oracle builds) or float32 (training).

A recorded op result has two parts: its value, the ``Tensor`` returned to
the caller, and its vertex, which links to its inputs' vertices and holds
the backward closure.  A closure keeps only the arrays its backward reads,
so a value no backward reads is freed as soon as the caller drops it.
Leaves (parameters and constants) are their own vertex and keep ``grad``.
"""

import math

import numpy as np

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph construction.

    Inside the context every operation returns a constant tensor, which is
    what evaluation-mode forward passes use to avoid autodiff overhead.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A value in the autodiff graph.

    ``data`` is an ndarray.  A recorded op result links into the graph
    through its ``_vertex``; a leaf is its own vertex, with no parents and no
    closure, and its ``grad`` (same shape as ``data``) is allocated lazily on
    first accumulation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_vertex", "_backward_ran")
    parents, _backward = (), None  # as a vertex, a leaf ends the walk

    def __init__(self, data, requires_grad=False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._vertex = None
        self._backward_ran = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = _copied(self.data, g)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None


class _Vertex:
    """A recorded op result's place in the graph: its parents' vertices, the
    closure that passes its gradient on, that gradient, and the value's shape
    and dtype, but not the value."""

    __slots__ = ("grad", "parents", "_backward", "_backward_ran", "shape", "dtype")

    def __init__(self, data, parents, backward):
        self.grad = None
        self.parents = parents
        self._backward = backward
        self._backward_ran = False
        self.shape, self.dtype = data.shape, data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:  # ``_copied``'s bits: every interior value is C-contiguous
            self.grad = np.add(g, 0.0, out=np.empty(self.shape, self.dtype))
        else:
            self.grad += g


def parameter(data) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(np.asarray(data), requires_grad=True)


def _copied(like: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` added into zeros laid out like ``like``, in one pass (``g + 0.0``), as a
    node's first gradient is; fused ops copy where their op chains did, bit for bit."""
    return np.add(g, 0.0, out=np.empty_like(like))


def _result(data, inputs, backward):
    """Wrap an op result, recording its vertex only when a gradient can flow.

    The vertex's parents are the inputs' vertices, None for an input no
    gradient flows to; backward calls ``backward(g, *parents)``.
    """
    if not (_grad_enabled and any(t.requires_grad for t in inputs)):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._vertex = _Vertex(data, tuple((t._vertex or t) if t.requires_grad else None
                                      for t in inputs), backward)
    return out


def _topological(root) -> list:
    """Every vertex under the vertex ``root``, each after its inputs.

    An iterative post-order walk: recursion would overflow on long chains.
    """
    nodes, seen = [], {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        node, it = stack[-1]
        for parent in it:
            if parent is not None and id(parent) not in seen:
                if parent._backward_ran:
                    raise RuntimeError("backward already consumed part of this graph; "
                                       "rerun the forward pass first")
                seen.add(id(parent))
                stack.append((parent, iter(parent.parents)))
                break
        else:
            stack.pop()
            nodes.append(node)
    return nodes


def backward(loss: Tensor) -> None:
    """Populate gradients of every parameter the loss depends on.

    Visits each vertex exactly once in reverse topological order and
    consumes the graph as it goes: once a vertex has passed its gradient on,
    its gradient, closure and parent links are dropped, so every array its
    closure saved is freed before backward returns.  Values no closure saved
    were freed already, when the forward pass dropped them.  Leaves keep
    their ``grad``.  Running backward again over a consumed vertex is an
    error; rebuild the graph (a fresh forward pass) instead.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._vertex or loss
    if root._backward_ran:
        raise RuntimeError("backward already ran on this graph root; rerun the forward pass first")
    root._backward_ran = True
    if not loss.requires_grad:
        return
    root.grad = np.ones_like(loss.data)
    nodes = _topological(root)
    while nodes:
        node = nodes.pop()  # the list must not keep a consumed vertex alive
        if node._backward is not None:
            node._backward(node.grad, *node.parents)
            node.grad, node._backward, node.parents = None, None, ()
            node._backward_ran = True


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g, va, vb):
        if va is not None:
            va.accumulate_grad(_unbroadcast(g, va.shape))
        if vb is not None:
            vb.accumulate_grad(_unbroadcast(g, vb.shape))

    return _result(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def bw(g, va, vb):
        if va is not None:
            va.accumulate_grad(_unbroadcast(g * bd, va.shape))
        if vb is not None:
            vb.accumulate_grad(_unbroadcast(g * ad, vb.shape))

    return _result(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def bw(g, va):  # a recorded one-input op always has its input's vertex
        va.accumulate_grad(g * c)

    return _result(out, (a,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis; leading axes ride along.

    numpy runs ``x @ w`` and the input gradient as stacked products, one 2D
    product per leading index; only the weight gradient folds the leading
    axes into a single 2D product.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ValueError(f"linear needs (..., d) x (d, n) + (n,), "
                         f"got {xd.shape} x {wd.shape} + {b.data.shape}")
    out = xd @ wd + b.data

    def bw(g, vx, vw, vb):
        if vb is not None:
            vb.accumulate_grad(_unbroadcast(g, vb.shape))
        if vx is not None:
            vx.accumulate_grad(g @ wd.T)
        if vw is not None:
            vw.accumulate_grad(xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _result(out, (x, w, b), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g, *vertices):
        offset = 0
        for v, size in zip(vertices, sizes):
            if v is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + size)
                v.accumulate_grad(g[tuple(idx)])
            offset += size

    return _result(out, tuple(tensors), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"embedding id out of range [0, {n}): {ids}")
    out = table.data[ids]

    def bw(g, vt):
        acc = np.zeros(vt.shape, vt.dtype)
        np.add.at(acc, ids, g)
        vt.accumulate_grad(acc)

    return _result(out, (table,), bw)


# ---------------------------------------------------------------------------
# nonlinearities and normalisation
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    """Backward keeps the output, which the next ``linear`` keeps anyway, not
    the input: ``out > 0`` exactly where ``a > 0``."""
    out = np.maximum(a.data, 0.0)

    def bw(g, va):
        va.accumulate_grad(g * (out > 0))

    return _result(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g, va):
        va.accumulate_grad(g * out * (1.0 - out))

    return _result(out, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine.

    Means are sums divided by the width: the same bits as ndarray.mean,
    without its per-call Python overhead.
    """
    d, gd = x.data.shape[-1], gain.data
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gd + bias.data

    def bw(g, vx, vgain, vbias):
        if vgain is not None:
            vgain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if vbias is not None:
            vbias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if vx is not None:
            gx = g * gd
            term = (gx - np.add.reduce(gx, axis=-1, keepdims=True) / d
                    - xhat * np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d)
            vx.accumulate_grad(term * inv)

    return _result(out, (x, gain, bias), bw)


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout; identity without an ``rng`` (evaluating) or at rate zero.

    The mask comes from the caller's keyed stream so that the draw sequence
    is a pure function of (seed, role, step) and the order of draws.
    """
    if rng is None or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.keep(x.data.shape, rate)  # saved as booleans, a quarter of a float32 mask
    out = x.data * (keep.astype(x.data.dtype) / (1.0 - rate))

    def bw(g, vx):
        vx.accumulate_grad(g * (keep.astype(vx.dtype) / (1.0 - rate)))

    return _result(out, (x,), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, mask=None) -> Tensor:
    """Multi-head scaled dot-product attention as one node: rows (..., tq, d)
    of ``q`` attend to rows (..., tk, d) of ``k`` and ``v``, each head on its
    own d / num_heads columns.  ``mask`` is an additive array broadcast
    against the (..., heads, tq, tk) scores.  Forward and backward run the
    numpy operations of the heads split, scores, mask, softmax, weighted sum
    and heads join chain in its order and layouts, so results match it bit
    for bit.
    """
    d = q.data.shape[-1]
    if k.data.shape[-1] != d or v.data.shape != k.data.shape or d % num_heads:
        raise ValueError(f"attention needs (..., tq, d) and two (..., tk, d) inputs with d divisible "
                         f"by {num_heads} heads, got {q.data.shape}, {k.data.shape}, {v.data.shape}")
    c = 1.0 / math.sqrt(d // num_heads)

    def split(a):  # (..., t, d) -> (..., heads, t, d / heads), a view
        return a.reshape(*a.shape[:-1], num_heads, d // num_heads).swapaxes(-3, -2)

    def join(a):  # (..., heads, t, d / heads) -> (..., t, d)
        return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], d)

    qh, kt, vh = split(q.data), split(k.data).swapaxes(-1, -2), split(v.data)
    scores = (qh @ kt) * c
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    att = p @ vh
    att_shape, att_dtype = att.shape, att.dtype  # backward keeps p, not scores or att

    def bw(g, vq, vk, vv):
        ga = np.add(split(g), 0.0, out=np.empty(att_shape, att_dtype))
        if vv is not None:
            vv.accumulate_grad(join(_unbroadcast(p.swapaxes(-1, -2) @ ga, vh.shape)))
        if vq is None and vk is None:
            return
        gp = _copied(p, _unbroadcast(ga @ vh.swapaxes(-1, -2), p.shape))
        gs = _copied(p, p * (gp - np.add.reduce(gp * p, axis=-1, keepdims=True)) * c)
        if vk is not None:
            gk = _unbroadcast(qh.swapaxes(-1, -2) @ gs, kt.shape)
            vk.accumulate_grad(join(gk.swapaxes(-1, -2)))
        if vq is not None:
            vq.accumulate_grad(join(_unbroadcast(gs @ kt.swapaxes(-1, -2), qh.shape)))

    return _result(join(att), (q, k, v), bw)


# ---------------------------------------------------------------------------
# reductions and fused losses
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def bw(g, va):
        va.accumulate_grad(np.broadcast_to(g, va.shape).copy())

    return _result(out, (a,), bw)


def _row_log_softmax(data: np.ndarray):
    """Log-softmax over the last axis of a plain array, no graph; beam
    search scores its expansions with it too."""
    m = np.maximum.reduce(data, axis=-1, keepdims=True)
    shifted = data - m
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted - lse


def sequence_log_prob(logits: Tensor, target_ids, weights) -> Tensor:
    """Sum over all rows of weight times log softmax(logits)[target]; logits
    (..., T, N), targets and weights (..., T).  Both training losses are
    this sum under their own weights (``training.xe_step`` and
    ``training.scst_step``).  A row of weight 0 contributes exactly nothing,
    to the value and to every gradient: its terms are multiplied by 0.0
    before any sum.
    """
    ids = np.asarray(target_ids, dtype=np.int64)
    rows, n = logits.data.shape[:-1], logits.data.shape[-1]
    if ids.shape != rows:
        raise ValueError(f"target shape {ids.shape} does not match logits rows {rows}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"target id out of range [0, {n}): max was {ids.max()}")
    w = np.asarray(weights, dtype=logits.data.dtype)
    if w.shape != rows:
        raise ValueError(f"weights shape {w.shape} does not match logits rows {rows}")
    logp = _row_log_softmax(logits.data)
    out = np.asarray((np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0] * w).sum())

    def bw(g, vl):
        p = np.exp(logp)  # softmax minus one-hot: d(-log softmax[target]) / d logits
        flat = p.reshape(-1, n)
        flat[np.arange(flat.shape[0]), ids.ravel()] -= 1.0
        vl.accumulate_grad(-p * w[..., None] * g)

    return _result(out, (logits,), bw)


def masked_mse(target: Tensor, online: Tensor, mask) -> Tensor:
    """Mean squared difference over each sequence's valid entries (valid
    timesteps times row width), then over sequences; inputs (..., T, N),
    mask (..., T).  The target side is detached inside the op (the
    stop-gradient contract): no gradient ever flows to ``target``.
    """
    if target.data.shape != online.data.shape:
        raise ValueError(f"masked_mse shape mismatch: {target.data.shape} vs {online.data.shape}")
    m = np.asarray(mask, dtype=online.data.dtype)
    if m.shape != online.data.shape[:-1]:
        raise ValueError(f"mask shape {m.shape} does not match rows {online.data.shape[:-1]}")
    valid = m.sum(axis=-1)
    if np.any(valid == 0):
        raise ValueError("masked_mse needs at least one valid timestep in every sequence")
    count = valid * online.data.shape[-1]
    diff = (target.data - online.data) * m[..., None]
    out = np.asarray(((diff * diff).sum(axis=(-2, -1)) / count).mean())

    def bw(g, vo):
        scale = (-2.0 / (count * count.size))[..., None, None]
        vo.accumulate_grad(scale * diff * g)

    return _result(out, (online,), bw)
