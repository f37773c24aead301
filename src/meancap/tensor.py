"""Reverse-mode automatic differentiation on numpy arrays.

Small by design: it provides exactly the differentiable operations the
captioning model and its losses need, nothing more.  A Tensor wraps an
ndarray plus an optional gradient and a backward closure; operations build
an acyclic graph and ``backward`` walks it once in reverse topological
order.  Works in float64 (test and oracle builds) or float32 (training).
"""

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


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A value node in the autodiff graph.

    ``data`` is an ndarray, ``grad`` has the same shape and is allocated
    lazily on first accumulation.  Node identity (``id(self)``) orders the
    backward walk; two tensors never alias graph state.
    """

    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad", "_backward_ran")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.requires_grad = requires_grad
        self._backward_ran = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def tensor(data, dtype=np.float64) -> Tensor:
    """Constant leaf tensor."""
    return Tensor(np.asarray(data, dtype=dtype))


def parameter(data, dtype=None) -> Tensor:
    """Trainable leaf tensor."""
    arr = np.asarray(data, dtype=dtype) if dtype is not None else np.asarray(data)
    return Tensor(arr, requires_grad=True)


def _result(data, parents, backward):
    """Wrap an op result, recording the graph only when it can matter."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, parents=parents, backward=backward, requires_grad=True)
    return Tensor(data)


class Graph:
    """Topologically ordered node registry rooted at a loss tensor.

    ``nodes`` lists every gradient-relevant node with each node's inputs
    appearing before the node itself; acyclic by construction since tensors
    only ever reference previously built parents.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.nodes = []
        seen = set()
        # Iterative post-order DFS; recursion would overflow on long chains.
        stack = [(root, iter(root.parents))]
        seen.add(id(root))
        while stack:
            node, it = stack[-1]
            advanced = False
            for parent in it:
                if id(parent) not in seen and parent.requires_grad:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent.parents)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                self.nodes.append(node)


def backward(loss: Tensor) -> None:
    """Populate gradients of every parameter the loss depends on.

    Visits each graph node exactly once in reverse topological order.
    Running backward twice on the same root is an error; rebuild the graph
    (a fresh forward pass) instead.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward_ran:
        raise RuntimeError("backward already ran on this graph root; rerun the forward pass first")
    loss._backward_ran = True
    if not loss.requires_grad:
        return
    graph = Graph(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._backward is not None:
            node._backward(node.grad)


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

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _result(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return _result(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _result(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _result(out, (a,), bw)


def add_n(tensors) -> Tensor:
    """Elementwise sum of same-shape tensors (batch loss aggregation)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("add_n needs at least one tensor")
    first = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != first:
            raise ValueError(f"add_n shape mismatch: {first} vs {t.data.shape}")
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out += t.data

    def bw(g):
        for t in tensors:
            if t.requires_grad:
                t.accumulate_grad(g)

    return _result(out, tuple(tensors), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    A batch of rows times one weight matrix, (B, T, d) x (d, n), runs as a
    single 2D product, and so does its weight gradient.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul needs >=2D operands, got {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul inner extents differ: {ad.shape} x {bd.shape}")
    out = ad @ bd  # numpy rejects leading axes that do not broadcast

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
        if b.requires_grad:
            if bd.ndim == 2:
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
            b.accumulate_grad(gb)

    return _result(out, (a, b), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + size)
                t.accumulate_grad(g[tuple(idx)])
            offset += size

    return _result(out, tuple(tensors), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old))

    return _result(out, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = a.data.transpose(axes)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.transpose(inverse))

    return _result(out, (a,), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along axis 0."""
    out = a.data[start:stop]

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[start:stop] = g
            a.accumulate_grad(full)

    return _result(out, (a,), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"embedding id out of range [0, {n}): {ids}")
    out = table.data[ids]

    def bw(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, ids, g)
            table.accumulate_grad(acc)

    return _result(out, (table,), bw)


# ---------------------------------------------------------------------------
# nonlinearities and normalisation
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0))

    return _result(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * out * (1.0 - out))

    return _result(out, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Probability simplex along ``axis``, stabilised by max subtraction."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            a.accumulate_grad(out * (g - dot))

    return _result(out, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bw(g):
        if a.requires_grad:
            p = np.exp(out)
            a.accumulate_grad(g - p * g.sum(axis=axis, keepdims=True))

    return _result(out, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine.

    Means are sums divided by the width: the same bits as ndarray.mean,
    without its per-call Python overhead.
    """
    d = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            term = gx - gx.sum(axis=-1, keepdims=True) / d - xhat * (gx * xhat).sum(axis=-1, keepdims=True) / d
            x.accumulate_grad(term * inv)

    return _result(out, (x, gain, bias), bw)


def dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout; identity when evaluating or rate is zero.

    The mask comes from the caller's keyed stream so that the draw sequence
    is a pure function of (seed, role, step, call index).
    """
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.uniform(x.data.shape) >= rate).astype(x.data.dtype)
    mask = keep / (1.0 - rate)
    out = x.data * mask

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return _result(out, (x,), bw)


# ---------------------------------------------------------------------------
# reductions and fused losses
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())

    return _result(out, (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = np.asarray(a.data.mean())

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g / n, a.data.shape).copy())

    return _result(out, (a,), bw)


def _prepare_targets(logits: Tensor, target_ids, mask):
    """Validate (..., T) targets and mask against (..., T, N) logits; also
    return each row's log-softmax and the entries picked by the targets."""
    ids = np.asarray(target_ids, dtype=np.int64)
    rows, n = logits.data.shape[:-1], logits.data.shape[-1]
    if ids.shape != rows:
        raise ValueError(f"target shape {ids.shape} does not match logits rows {rows}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"target id out of range [0, {n}): max was {ids.max()}")
    m = np.asarray(mask, dtype=logits.data.dtype)
    if m.shape != rows:
        raise ValueError(f"mask shape {m.shape} does not match logits rows {rows}")
    logp = _row_log_softmax(logits.data)
    picked = np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0]
    return ids, m, logp, picked


def _row_log_softmax(data: np.ndarray):
    m = data.max(axis=-1, keepdims=True)
    shifted = data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def _softmax_minus_onehot(logp: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """d(-log softmax[target]) / d logits, row by row."""
    p = np.exp(logp)
    flat = p.reshape(-1, p.shape[-1])
    flat[np.arange(flat.shape[0]), ids.ravel()] -= 1.0
    return p


def _valid_steps(m: np.ndarray, op: str) -> np.ndarray:
    valid = m.sum(axis=-1)
    if np.any(valid == 0):
        raise ValueError(f"{op} needs at least one valid timestep in every sequence")
    return valid


def cross_entropy(logits: Tensor, target_ids, mask) -> Tensor:
    """Mean of -log softmax(logits)[target] over each sequence's valid
    timesteps, then over sequences; logits (..., T, N), targets and mask
    (..., T).  Rows with mask 0 contribute exactly nothing, to the value and
    to every gradient: their per-row terms are multiplied by 0.0 before any sum.
    """
    ids, m, logp, picked = _prepare_targets(logits, target_ids, mask)
    valid = _valid_steps(m, "cross_entropy")
    out = np.asarray(((-picked * m).sum(axis=-1) / valid).mean())

    def bw(g):
        if logits.requires_grad:
            weight = m / valid[..., None] / valid.size
            logits.accumulate_grad(_softmax_minus_onehot(logp, ids) * weight[..., None] * g)

    return _result(out, (logits,), bw)


def sequence_log_prob(logits: Tensor, target_ids, mask) -> Tensor:
    """Sum over all rows of mask weight times log softmax(logits)[target];
    logits (..., T, N), targets and weights (..., T)."""
    ids, m, logp, picked = _prepare_targets(logits, target_ids, mask)
    out = np.asarray((picked * m).sum())

    def bw(g):
        if logits.requires_grad:
            logits.accumulate_grad(-_softmax_minus_onehot(logp, ids) * m[..., None] * g)

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
    count = _valid_steps(m, "masked_mse") * online.data.shape[-1]
    diff = (target.data - online.data) * m[..., None]
    out = np.asarray(((diff * diff).sum(axis=(-2, -1)) / count).mean())

    def bw(g):
        if online.requires_grad:
            scale = (-2.0 / (count * count.size))[..., None, None]
            online.accumulate_grad(scale * diff * g)

    return _result(out, (online,), bw)
