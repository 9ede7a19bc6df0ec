"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: tensors wrap contiguous float arrays,
operations compute eagerly with numpy, and the active :class:`Tape` records
one backward rule per operation. ``Tape.backward`` replays the record in
reverse, accumulating dLoss/dTensor into every leaf tensor that asked for
gradients, and consumes it: a node's saved arrays go as soon as its backward
has run. Float32 is the working precision; gradient-check tooling switches
to float64 via :func:`use_dtype`, where central finite differences are
trustworthy.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid structural knob: kernel width, dimension, iteration count."""


class DivergenceError(ArithmeticError):
    """A loss, gradient norm or prediction became non-finite."""


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
                 name: str | None = None):
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

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


class Parameter(Tensor):
    """A trainable tensor whose ``data`` may be a view of a block (see
    :class:`Stack`): a new value is written into it, and rebinding raises."""

    __slots__ = ()

    def __setattr__(self, attr: str, value) -> None:
        if attr == "data" and value is not getattr(self, "data", value):
            raise AttributeError(f"parameter {self.name}: write into its "
                                 f"data (p.data[...] = x), do not rebind it")
        super().__setattr__(attr, value)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Ordered record of operations; construction order is topological."""

    def __init__(self) -> None:
        self.nodes: list[tuple[Tensor, Callable]] = []
        self.consumed = False

    def __len__(self) -> int:
        return len(self.nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate dLoss/dT into ``t.grad`` for every leaf (no recorded
        node's output); an intermediate's ``.grad`` stays None.

        The backward consumes the tape: each node, with its closure and the
        arrays it saved, goes as soon as its backward has run, so a second
        call raises. Gradients add into an existing ``.grad`` in place, so
        a batch backpropagated piece by piece, a tape per piece, keeps one
        gradient buffer per leaf; each piece still copies its first push.
        """
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        if self.consumed:
            raise ValueError("backward of a consumed tape")
        self.consumed = True
        flow: dict[int, list] = {}

        def push(t: Tensor, g: np.ndarray, at=...) -> None:  # g: dLoss/dt[at]
            if not t.requires_grad:
                return
            if id(t) in flow:
                flow[id(t)][1][at] += g
            elif at is ...:
                flow[id(t)] = [t, np.array(g, dtype=t.data.dtype, copy=True)]
            else:
                flow[id(t)] = [t, np.zeros(t.data.shape, t.data.dtype)]
                flow[id(t)][1][at] = g

        push(loss, np.ones_like(loss.data))
        while self.nodes:   # rebinding frees the node popped before
            out, fn = self.nodes.pop()
            slot = flow.pop(id(out), None)
            if slot is not None:
                fn(slot[1], push)
        for t, g in flow.values():     # g is push's own buffer: hand it over
            if t.grad is None:
                t.grad = g
            else:
                t.grad += g


_active: Tape | None = None


def active_tape() -> Tape | None:
    return _active


@contextlib.contextmanager
def record(tape: Tape):
    """Make ``tape`` the active recording target."""
    global _active
    prev = _active
    _active = tape
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


def select(a: Tensor, i) -> Tensor:
    """``a[i]`` for an index that picks no element twice: an int or slice
    of the leading axis (a view of ``a``'s data) or a permutation."""
    out = Tensor(a.data[i], requires_grad=a.requires_grad)

    def fn(g, push):
        push(a, g, i)

    return _emit(out, fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join ``parts`` along ``axis``; a lone part is returned as is."""
    if not parts:
        raise ShapeError("concat of zero tensors")
    if len(parts) == 1:
        return parts[0]
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:      # numpy's AxisError is a ValueError too
        raise ShapeError(f"concat shapes disagree off axis {axis}: "
                         f"{[tuple(p.shape) for p in parts]}") from None
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parts))
    bounds = np.cumsum([p.shape[axis] for p in parts[:-1]])

    def fn(g, push):
        for p, gp in zip(parts, np.split(g, bounds, axis=axis)):
            push(p, gp)

    return _emit(out, fn)


# ---------------------------------------------------------------------------
# grouped ops


class Stack(NamedTuple):
    """k parameters as the operand of a grouped op, with their data as one
    array [k, rows, m]: parameter i, flattened to [r_i, m], in the first
    r_i rows of entry i, zeros below. A family of parameters lives as views
    of such a block (:meth:`layers.Params.block`), so no op stacks them."""

    params: list[Tensor]
    data: np.ndarray

    def rows(self, index: list[int]) -> "Stack":
        """Entries ``index``: a view if they are consecutive, else a copy."""
        return Stack([self.params[i] for i in index],
                     self.data[_as_slice(index)])


def _as_slice(index: list[int]) -> slice | list[int]:
    """Consecutive indices as a slice, so that indexing makes a view."""
    i, k = index[0], len(index)
    return slice(i, i + k) if index == list(range(i, i + k)) else index


def _push_rows(push, params: Sequence[Tensor], grads: np.ndarray) -> None:
    """Push each parameter its rows of the stacked gradient [k, rows, m]."""
    for p, gp in zip(params, grads):
        push(p, gp[:p.data.size // gp.shape[-1]].reshape(p.data.shape))


class Segments:
    """B items laid end to end on a token axis: item b holds rows
    ``offsets[b]:offsets[b + 1]`` of the N."""

    def __init__(self, lengths: Sequence[int]):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths)))
        self._windows: dict[int, np.ndarray] = {}

    def windows(self, w: int) -> np.ndarray:
        """Each token's rows of its width-w window centred on it, [N, w]:
        N, a zero row past the tokens, where it leaves the token's item."""
        if w not in self._windows:
            n, end = self.offsets[-1], self.offsets[1:].repeat(self.lengths)
            start = end - self.lengths.repeat(self.lengths)
            src = np.arange(n)[:, None] + np.arange(w) - w // 2
            self._windows[w] = np.where((src >= start[:, None])
                                        & (src < end[:, None]), src, n)
        return self._windows[w]

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Each item's sum of the rows of a [..., N, m] (axis -2)."""
        return np.add.reduceat(a, self.offsets[:-1], axis=-2)

    def expand(self, a: np.ndarray) -> np.ndarray:
        """Row b of a [..., B, m] repeated at each of item b's tokens."""
        return a.repeat(self.lengths, axis=-2)


def grouped_conv1d(x: Tensor, kernels: Stack, biases: Stack,
                   segments: Segments) -> Tensor:
    """k "same" convolutions of every item of ``segments`` as one op,
    [k, N, d_out].

    ``x`` is [N, d_in] or [1, N, d_in], read by every group, or [k, N,
    d_in], whose row i group i reads; kernel i is [w, d_in, d_out] (one odd w for all) with
    bias i [d_out], stacked [k, w * d_in, d_out] and [k, 1, d_out]. Each
    token's window (im2col) gathers its rows through
    :meth:`Segments.windows`, so no window crosses into another item, and
    meets the stacked kernels in one matmul per group over all N tokens;
    the backward gathers them again rather than keep them.
    """
    stack = kernels.data
    k, (w, d_in, d_out) = len(stack), kernels.params[0].data.shape
    *lead, n, _ = x.data.shape
    index = segments.windows(w)

    def padded(a: np.ndarray) -> np.ndarray:    # a zero row past the tokens
        out = np.zeros((*a.shape[:-2], a.shape[-2] + 1, a.shape[-1]), a.dtype)
        out[..., :-1, :] = a
        return out

    out = Tensor(padded(x.data).take(index, axis=-2).reshape(
        *lead, n, w * d_in) @ stack + biases.data, requires_grad=any(
        [t.requires_grad for t in (x, *kernels.params, *biases.params)]))

    def fn(g, push):
        # an offset at a time, holding no [k, N, w * d] copy; token s sits
        # at offset o of the window that it reads at offset w - 1 - o
        xp, gp = padded(x.data), padded(g)
        grads, dx = np.empty_like(stack), np.zeros((k, n, d_in), g.dtype)
        for o in range(w):
            rows = slice(o * d_in, (o + 1) * d_in)
            grads[:, rows] = xp.take(index[:, o], axis=-2).swapaxes(-1, -2) @ g
            dx += (gp.take(index[:, w - 1 - o], axis=1)
                   @ stack[:, rows].swapaxes(-1, -2))
        _push_rows(push, kernels.params, grads)
        _push_rows(push, biases.params, g.sum(axis=1, keepdims=True))
        push(x, _unbroadcast(dx, x.data.shape))

    return _emit(out, fn)


def grouped_affine(inputs: Sequence[Sequence[tuple[Tensor, object]]],
                   weights: Stack, biases: Stack | None = None) -> Tensor:
    """k affine maps as one op, [k, ..., m].

    Group i concatenates ``x.data[j]`` of its (x, j) pairs ``inputs[i]``,
    broadcast to the leading shape of the first, along the last axis (j
    indexes x's data without picking an element twice: an int of its
    leading axis, maybe followed by more in a tuple, or () for all of it)
    and maps the result by weight i [d_i, m] plus bias i [m], stacked [k,
    width, m] and [k, 1, m]. Narrower groups' inputs end in zeros, met by
    the zero rows of their weights, so the k maps run as one batched matmul
    over the rows of every leading axis. When each group reads the same
    part ``rest`` of one full-width row of the same x, the input is
    ``x.data[rows, *rest]``: a view for consecutive rows. When each reads
    all of the same ``x.data[j]``, one broadcast matmul maps it k times.
    The backward pushes each input's gradient into its part ``j`` only.
    """
    k, width, m = weights.data.shape
    x0, j0 = inputs[0][0]
    lead = x0.data[j0].shape[:-1]
    rest = j0[1:] if type(j0) is tuple else ()  # a row of x0 each, at rest?
    rows = [j[0] if rest else j for group in inputs for x, j in group
            if x is x0 and (type(j) is int if not rest else type(j) is tuple
                            and type(j[0]) is int and j[1:] == rest)]
    shared = None   # (index of x0.data, its groups): the input, uncopied
    if ((len(rows) == k == sum(map(len, inputs))
         or inputs == [[(x0, j0)]] * k)         # or all of x0.data[j0] each?
            and x0.data.shape[-1] == width
            and all([p.data.shape[0] == width for p in weights.params])):
        shared = ((_as_slice(rows), *rest), k) if rows else (j0, 1)

    def gather() -> np.ndarray:     # the backward rebuilds it too
        if shared is not None:
            return x0.data[shared[0]].reshape(shared[1], -1, width)
        xs = np.zeros((k, *lead, width), dtype=weights.data.dtype)
        for i in range(k):
            col = 0
            for x, j in inputs[i]:
                part = x.data[j]
                xs[i, ..., col:col + part.shape[-1]] = part
                col += part.shape[-1]
            if col != weights.params[i].data.shape[0]:
                raise ShapeError(f"group {i}: {col} input columns for "
                                 f"weight {weights.params[i].data.shape}")
        return xs.reshape(k, -1, width)

    stack = weights.data
    out = gather() @ stack
    if biases is not None:
        out += biases.data
    out = Tensor(out.reshape(k, *lead, m), requires_grad=any(
        [t.requires_grad for t in (*weights.params,
                                   *(biases.params if biases else ()))]
        + [x.requires_grad for group in inputs for x, _ in group]))

    def fn(g, push):
        g = g.reshape(k, -1, m)
        _push_rows(push, weights.params, gather().swapaxes(-1, -2) @ g)
        if biases is not None:
            _push_rows(push, biases.params, g.sum(axis=1, keepdims=True))
        dx = (g @ stack.swapaxes(-1, -2)).reshape(k, *lead, width)
        for i in range(k):
            col = 0
            for x, j in inputs[i]:
                size = x.data.shape[-1]
                if x.requires_grad:
                    push(x, _unbroadcast(dx[i, ..., col:col + size],
                                         x.data[j].shape), j)
                col += size

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


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """max(x, 0). ``inplace`` writes it over x's data: for a fresh
    pre-activation that no other op reads, so a layer keeps one array."""
    y = np.maximum(x.data, 0, out=x.data if inplace else None)
    out = Tensor(y, requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, g * (y > 0))

    return _emit(out, fn)


def sigmoid(x: Tensor, inplace: bool = False) -> Tensor:
    """1 / (1 + exp(-x)); ``inplace`` as for :func:`relu`."""
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.divide(np.where(d >= 0, 1.0, e), 1.0 + e, out=d if inplace else None)
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


def segment_softmax(x: Tensor, segments: Segments) -> Tensor:
    """Softmax of x [..., N, m] over each item's tokens (axis -2)."""
    d = x.data
    e = np.exp(d - segments.expand(np.maximum.reduceat(
        d, segments.offsets[:-1], axis=-2)))
    y = e / segments.expand(segments.sum(e))
    out = Tensor(y, requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, y * (g - segments.expand(segments.sum(g * y))))

    return _emit(out, fn)


def segment_pool(a: Tensor, h: Tensor, segments: Segments) -> Tensor:
    """Each item's rows of h [..., N, d] summed, weighted by a [..., N, 1]."""
    out = Tensor(segments.sum(a.data * h.data),
                 requires_grad=a.requires_grad or h.requires_grad)

    def fn(g, push):
        g = segments.expand(g)
        push(a, (g * h.data).sum(axis=-1, keepdims=True))
        push(h, g * a.data)

    return _emit(out, fn)


def segment_expand(x: Tensor, segments: Segments) -> Tensor:
    """Row b of x [..., B, m] at each of item b's tokens, [..., N, m]: a
    row gather whose backward sums each item's rows."""
    out = Tensor(segments.expand(x.data), requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, segments.sum(g))

    return _emit(out, fn)


def dropout_keep(shape: tuple[int, ...], p: float,
                 rng: np.random.Generator) -> np.ndarray:
    """A Bernoulli keep mask of booleans: False with probability ``p``."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    return rng.random(shape) >= p


def dropout(x: Tensor, keep: np.ndarray, p: float) -> Tensor:
    """Inverted dropout: x times the multipliers 1/(1-p) where the mask
    ``keep`` (from :func:`dropout_keep`) is True and 0 elsewhere, built
    again in the backward rather than saved."""
    out = Tensor(x.data * (keep.astype(x.data.dtype) / (1.0 - p)),
                 requires_grad=x.requires_grad)

    def fn(g, push):
        push(x, g * (keep.astype(x.data.dtype) / (1.0 - p)))

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

