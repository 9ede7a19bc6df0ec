"""Shared test oracles: finite differences and reference implementations."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from ktabsa import routing
from ktabsa import tensor as T


def numeric_grad(fn, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x (64-bit only)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def check_op_grads(build, arrays, step: float = 1e-3, tol: float = 1e-3):
    """FD-check every input of an op.

    ``build`` maps a list of float64 Tensors to a scalar Tensor; ``arrays``
    are the input values. Asserts analytic vs central-difference agreement.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with T.use_dtype(np.float64):
        tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
        tape = T.Tape()
        with T.record(tape):
            loss = build(tensors)
        tape.backward(loss)
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]

        for idx in range(len(tensors)):
            def scalar_at(x, idx=idx):
                saved = tensors[idx].data
                tensors[idx].data = np.ascontiguousarray(x)
                try:
                    return build(tensors).item()
                finally:
                    tensors[idx].data = saved

            num = numeric_grad(scalar_at, arrays[idx], step=step)
            err = rel_err(analytic[idx], num)
            assert err < tol, (
                f"input {idx}: analytic vs numeric gradient differ "
                f"(max rel err {err:.3e})")


def conv1d_naive(x: np.ndarray, kernel: np.ndarray,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """Triple-loop same-padding 1-d convolution reference."""
    n, d_in = x.shape
    w, _, d_out = kernel.shape
    pad = w // 2
    out = np.zeros((n, d_out), dtype=x.dtype)
    for t in range(n):
        for o in range(w):
            src = t + o - pad
            if 0 <= src < n:
                for c in range(d_out):
                    out[t, c] += float(x[src] @ kernel[o, :, c])
    if bias is not None:
        out += bias
    return out


@contextlib.contextmanager
def corrupt_squash_backward(k: float):
    """Mutation testing of the gradient checks: within the block the routing
    layer's squash keeps its forward value but scales its backward by ``k``.

    The corrupted op is built from public ops only:
    ``k * y + constant((1 - k) * y)`` with ``y = squash(x)``, so the value is
    ``y`` while gradients flow only through the ``k * y`` term.
    """
    def squash(x, axis=-1, eps=1e-9):
        y = T.squash(x, axis=axis, eps=eps)
        return T.add(T.scale(y, k), T.constant(y.data * (1.0 - k)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "squash", squash)
        yield


def squash_ref(s: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    r = np.linalg.norm(s, axis=-1, keepdims=True)
    return (r * r) / (1 + r * r) * s / (r + eps)
