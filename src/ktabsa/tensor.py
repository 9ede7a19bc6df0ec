"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: tensors wrap contiguous float arrays,
operations compute eagerly with numpy, and the active :class:`Tape` records
one backward rule per operation. ``Tape.backward`` replays the record in
reverse, accumulating dLoss/dTensor into every tensor that asked for
gradients. Float32 is the working precision; gradient-check tooling switches
to float64 via :func:`use_dtype`, where central finite differences are
trustworthy.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid structural knob: kernel width, dimension, iteration count."""


_default_dtype = np.dtype(np.float32)


def default_dtype() -> np.dtype:
    return _default_dtype


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily change the dtype newly created tensors default to."""
    global _default_dtype
    prev = _default_dtype
    _default_dtype = np.dtype(dtype)
    try:
        yield
    finally:
        _default_dtype = prev


class Tensor:
    """Dense n-dimensional float array with an optional gradient buffer.

    Floating numpy inputs keep their precision (so a float64 model stays
    float64 through every op); python scalars and lists take the module
    default dtype.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None, dtype=None):
        if dtype is None:
            held = getattr(data, "dtype", None)
            dtype = held if held in (np.float32, np.float64) else _default_dtype
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def _add_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class Tape:
    """Ordered record of operations; construction order is topological."""

    def __init__(self) -> None:
        self.nodes: list[tuple[Tensor, Callable]] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate dLoss/dT into ``t.grad`` for every recorded tensor.

        Each call propagates a fresh unit seed, so calling twice doubles the
        gradients of the leaves (accumulation semantics).
        """
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        flow: dict[int, list] = {}

        def push(t: Tensor, g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            slot = flow.get(id(t))
            if slot is None:
                flow[id(t)] = [t, np.array(g, dtype=t.data.dtype, copy=True)]
            else:
                slot[1] += g

        push(loss, np.ones_like(loss.data))
        for out, fn in reversed(self.nodes):
            slot = flow.pop(id(out), None)
            if slot is None:
                continue
            out._add_grad(slot[1])
            fn(slot[1], push)
        for t, g in flow.values():
            t._add_grad(g)


_active: Tape | None = None


def active_tape() -> Tape | None:
    return _active


@contextlib.contextmanager
def record(tape: Tape | None = None):
    """Make ``tape`` (a fresh one by default) the active recording target."""
    global _active
    prev = _active
    _active = tape if tape is not None else Tape()
    try:
        yield _active
    finally:
        _active = prev


def _emit(out: Tensor, fn: Callable) -> Tensor:
    if _active is not None and out.requires_grad:
        _active.nodes.append((out, fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data,
                 requires_grad=a.requires_grad or b.requires_grad)

    def fn(g, push):
        push(a, _unbroadcast(g, a.shape))
        push(b, _unbroadcast(g, b.shape))

    return _emit(out, fn)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    out = Tensor(a.data * k, requires_grad=a.requires_grad)

    def fn(g, push):
        push(a, g * k)

    return _emit(out, fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape), requires_grad=a.requires_grad)

    def fn(g, push):
        push(a, g.reshape(a.shape))

    return _emit(out, fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    if len(parts) == 1:
        return parts[0]
    nd = parts[0].ndim
    ax = axis % nd
    for p in parts[1:]:
        if p.ndim != nd or any(p.shape[i] != parts[0].shape[i]
                               for i in range(nd) if i != ax):
            raise ShapeError(
                f"concat shapes disagree off axis {axis}: "
                f"{[tuple(p.shape) for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=ax),
                 requires_grad=any(p.requires_grad for p in parts))
    sizes = [p.shape[ax] for p in parts]

    def fn(g, push):
        offset = 0
        for p, s in zip(parts, sizes):
            sl = [slice(None)] * nd
            sl[ax] = slice(offset, offset + s)
            push(p, g[tuple(sl)])
            offset += s

    return _emit(out, fn)


# ---------------------------------------------------------------------------
# linear algebra


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x^T g with every leading axis folded into the rows: the gradient of a
    2-d weight applied to [..., di] inputs, as one matmul."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for a [..., n, k] and b either a [k, m] weight shared by every
    leading index or a [..., k, m] batch with the same leading axes."""
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or (b.ndim > 2 and a.shape[:-2] != b.shape[:-2])):
        raise ShapeError(f"matmul shapes {tuple(a.shape)} and {tuple(b.shape)} "
                         "do not chain")
    out = Tensor(a.data @ b.data,
                 requires_grad=a.requires_grad or b.requires_grad)

    def fn(g, push):
        push(a, g @ b.data.swapaxes(-1, -2))
        if b.ndim == 2:
            push(b, _weight_grad(a.data, g))
        else:
            push(b, a.data.swapaxes(-1, -2) @ g)

    return _emit(out, fn)


def fully_connected(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of row vectors: x[..., di] @ w[di, do] + b[do]."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"fully_connected shapes {tuple(x.shape)} and "
                         f"{tuple(w.shape)} do not chain")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias shape {tuple(b.shape)} does not match output "
                         f"width {w.shape[1]}")
    out = Tensor(x.data @ w.data + b.data,
                 requires_grad=x.requires_grad or w.requires_grad
                 or b.requires_grad)

    def fn(g, push):
        push(x, g @ w.data.T)
        push(w, _weight_grad(x.data, g))
        push(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _emit(out, fn)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Same-length 1-d convolution over token sequences.

    ``x`` is [n, d_in] or a group [G, n, d_in], ``kernel`` is
    [width, d_in, d_out] with odd width. Each sequence is zero-padded
    symmetrically on its own, so the output is [..., n, d_out] and nothing
    leaks between the sequences of a group.
    """
    if x.ndim not in (2, 3) or kernel.ndim != 3:
        raise ShapeError(f"conv1d expects [..., n, d_in] and [w, d_in, d_out], "
                         f"got {tuple(x.shape)} and {tuple(kernel.shape)}")
    w, d_in, d_out = kernel.shape
    if w % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {w}")
    if x.shape[-1] != d_in:
        raise ShapeError(f"conv1d input width {x.shape[-1]} != kernel d_in "
                         f"{d_in}")
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(f"conv1d bias shape {tuple(bias.shape)} != ({d_out},)")
    *lead, n, _ = x.shape
    pad = w // 2
    xp = np.zeros((*lead, n + w - 1, d_in), dtype=x.dtype)
    xp[..., pad:pad + n, :] = x.data
    acc = np.zeros((*lead, n, d_out), dtype=x.dtype)
    for o in range(w):
        acc += xp[..., o:o + n, :] @ kernel.data[o]
    if bias is not None:
        acc += bias.data
    rg = x.requires_grad or kernel.requires_grad or (
        bias is not None and bias.requires_grad)
    out = Tensor(acc, requires_grad=rg)

    def fn(g, push):
        dk = np.empty_like(kernel.data)
        dxp = np.zeros_like(xp)
        for o in range(w):
            dk[o] = _weight_grad(xp[..., o:o + n, :], g)
            dxp[..., o:o + n, :] += g @ kernel.data[o].T
        push(kernel, dk)
        push(x, dxp[..., pad:pad + n, :])
        if bias is not None:
            push(bias, g.reshape(-1, d_out).sum(axis=0))

    return _emit(out, fn)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` for 1-d ids [n] or a group of ids [G, n]."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ShapeError(f"embedding ids must be [n] or [G, n], got shape "
                         f"{ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    out = Tensor(table.data[ids], requires_grad=table.requires_grad)

    def fn(g, push):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        push(table, buf)

    return _emit(out, fn)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, g * (x.data > 0))

    return _emit(out, fn)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    y = y.astype(d.dtype)
    out = Tensor(y, requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, g * y * (1.0 - y))

    return _emit(out, fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    d = x.data
    mx = d.max(axis=axis, keepdims=True)
    e = np.exp(d - mx)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad)

    def fn(g, push):
        dot = (g * y).sum(axis=axis, keepdims=True)
        push(x, y * (g - dot))

    return _emit(out, fn)


def dropout_keep(shape: tuple[int, ...], p: float, rng: np.random.Generator,
                 dtype=None) -> np.ndarray:
    """Inverted-scaling Bernoulli keep multipliers: 0 with probability
    ``p``, 1/(1-p) otherwise."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    dtype = _default_dtype if dtype is None else dtype
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def dropout(x: Tensor, keep: np.ndarray) -> Tensor:
    """Multiply by keep multipliers drawn with :func:`dropout_keep`."""
    out = Tensor(x.data * keep, requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, g * keep)

    return _emit(out, fn)


# ---------------------------------------------------------------------------
# losses


def cross_entropy_rows(logits: Tensor, targets, weights) -> Tensor:
    """Weighted sum of per-row cross-entropies: sum_i w_i * CE(logits[i], t_i).

    ``logits`` is [..., k]; ``targets`` and ``weights`` have its leading
    shape. Rows with weight exactly 0 contribute exactly 0, so unlabeled
    positions cannot leak into the loss no matter what their target says.
    """
    if logits.ndim < 2:
        raise ShapeError(f"cross_entropy_rows expects [..., n, k] logits, got "
                         f"shape {tuple(logits.shape)}")
    *lead, k = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=logits.dtype)
    if targets.shape != tuple(lead) or weights.shape != tuple(lead):
        raise ShapeError(f"targets/weights must both have shape {tuple(lead)}")
    targets = targets.reshape(-1)
    weights = weights.reshape(-1)
    n = targets.size
    if n and (targets.min() < 0 or targets.max() >= k):
        bad = int(np.argmax((targets < 0) | (targets >= k)))
        raise IndexError(f"target {targets[bad]} at row {bad} out of "
                         f"range [0, {k})")
    d = logits.data.reshape(n, k)
    mx = d.max(axis=1, keepdims=True)
    lse = mx + np.log(np.exp(d - mx).sum(axis=1, keepdims=True))
    per_row = lse[:, 0] - d[np.arange(n), targets]
    out = Tensor((weights * per_row).sum(), requires_grad=logits.requires_grad)

    def fn(g, push):
        p = np.exp(d - lse)
        p[np.arange(n), targets] -= 1.0
        push(logits, (g.reshape(()) * weights[:, None] * p).reshape(
            logits.shape))

    return _emit(out, fn)


# ---------------------------------------------------------------------------
# optimization


def adam_step(param: Tensor, m: np.ndarray, v: np.ndarray, t: int, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, in place; no-op when grad is unset."""
    g = param.grad
    if g is None:
        return
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(param.data.dtype)


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_grads(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``."""
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
