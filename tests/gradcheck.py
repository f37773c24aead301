"""Central-difference gradient checking for the autodiff engine, and the
scalar loss the checks reduce an op's output to."""

import numpy as np

from meancap import tensor as T


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(make_loss, leaves, h: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare backward() gradients against central differences.

    ``make_loss`` rebuilds the forward pass from the current leaf data (a
    fresh graph each call), ``leaves`` are the float64 parameter tensors to
    check.  Returns the worst relative error seen; asserts it under ``tol``.
    """
    for leaf in leaves:
        leaf.zero_grad()
    loss = make_loss()
    T.backward(loss)
    worst = 0.0
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(make_loss().data)
            flat[i] = orig - h
            down = float(make_loss().data)
            flat[i] = orig
            nflat[i] = (up - down) / (2.0 * h)
        err = relative_error(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} on leaf shape {leaf.data.shape}"
    return worst


def sum_all(a: T.Tensor) -> T.Tensor:
    """The sum of every entry of ``a``, as a recorded op: gradient checks
    reduce an output to this scalar; no library code needs it."""
    out = np.asarray(a.data.sum())

    def bw(g, va):
        va.accumulate_grad(np.broadcast_to(g, va.shape).copy())

    return T._result(out, (a,), bw)
