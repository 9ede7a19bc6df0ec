"""Shared encoder, task-specific stacks, attention pooling, token decoders.

Every layer maps a group of equal-length sentences, [G, n, d], at once.
:class:`TaskStack` and :class:`TokenDecoder` carry their tasks as a leading
axis, [k, G, n, d], through grouped ops that read the tasks' parameters
as one block (:meth:`Params.block`), so names and checkpoints stay per
task. Each layer's ``__call__`` runs it as a unit, which is what a caller
timing the layers wraps (see :mod:`ktabsa.model`).
"""

from __future__ import annotations

import numpy as np

from .tensor import (ConfigError, Parameter, Stack, Tensor, concat, conv1d,
                     default_dtype, fully_connected, grouped_affine,
                     grouped_conv1d, matmul, relu, reshape, sigmoid, softmax)

NONLINEARITIES = {"relu": relu, "sigmoid": sigmoid}


class Params:
    """The ordered registry of a model's trainable tensors, and the rng that
    initialises them. Every parameter is registered where it is created, so
    creation order is the one parameter order: the order Adam steps,
    gradcheck reports and a checkpoint stores. Every parameter is an entry
    of a block, alone or with the family a grouped op reads as one."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.tensors: dict[str, Parameter] = {}
        self.blocks: list[Stack] = []

    def block(self, k: int, rows: int, m: int) -> Stack:
        """A zero block [k, rows, m] for :meth:`add` to fill with a family
        of k parameters of last axis m."""
        self.blocks.append(Stack([None] * k,
                                 np.zeros((k, rows, m), default_dtype())))
        return self.blocks[-1]

    def add(self, name: str, data: np.ndarray, block: Stack | None = None,
            row: int = 0) -> Parameter:
        """Register ``data`` as parameter ``name``: a view of the first rows
        of entry ``row`` of ``block``, or of a block of its own."""
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name}")
        rows, m = data.size // data.shape[-1], data.shape[-1]
        block = block or self.block(1, rows, m)
        view = block.data[row, :rows].reshape(data.shape)
        view[...] = data
        block.params[row] = self.tensors[name] = Parameter(view, True, name)
        return self.tensors[name]

    def glorot(self, name: str, shape: tuple[int, ...],
               block: Stack | None = None, row: int = 0) -> Parameter:
        """Glorot-uniform weights; a [..., d_in, d_out] kernel's leading
        axes (a convolution's width) multiply both fans."""
        field = int(np.prod(shape[:-2]))
        s = float(np.sqrt(6.0 / (field * (shape[-2] + shape[-1]))))
        return self.add(name, self.rng.uniform(-s, s, size=shape)
                        .astype(default_dtype()), block, row)

    def zeros(self, name: str, n: int, block: Stack | None = None,
              row: int = 0) -> Parameter:
        return self.add(name, np.zeros(n, dtype=default_dtype()), block, row)


class Affine:
    """Fully-connected layer: weight ``{name}.w``, bias ``{name}.b``, or
    entry i of the blocks of ``into`` (weights, biases, i)."""

    def __init__(self, params: Params, d_in: int, d_out: int, name: str,
                 into: tuple[Stack, Stack, int] | None = None):
        w, b, i = into or (None, None, 0)
        self.w = params.glorot(f"{name}.w", (d_in, d_out), w, i)
        self.b = params.zeros(f"{name}.b", d_out, b, i)

    def __call__(self, x: Tensor) -> Tensor:
        return fully_connected(x, self.w, self.b)


def layer_blocks(params: Params, rows: list[int], m: int
                 ) -> tuple[Stack, Stack]:
    """The weight and bias blocks of layers i whose weight is ``rows[i]``
    rows of m, flattened."""
    return (params.block(len(rows), max(rows, default=0), m),
            params.block(len(rows), 1, m))


class ConvLayer:
    """Kernel ``{name}.kernel`` and bias ``{name}.bias``, or entry i of the
    blocks of ``into`` (kernels, biases, i)."""

    def __init__(self, params: Params, width: int, d_in: int, d_out: int,
                 name: str, into: tuple[Stack, Stack, int] | None = None):
        w, b, i = into or (None, None, 0)
        self.kernel = params.glorot(f"{name}.kernel", (width, d_in, d_out),
                                    w, i)
        self.bias = params.zeros(f"{name}.bias", d_out, b, i)


class SharedEncoder:
    """Multi-width convolution bank over the embedded sentence.

    Each kernel width contributes an equal slice of the output, so d_enc must
    divide evenly among the widths; the slices are concatenated and passed
    through the nonlinearity. Same padding keeps the sequence length, which
    also covers the single-token edge case.
    """

    def __init__(self, params: Params, d_in: int, d_enc: int,
                 widths: tuple[int, ...], nonlinearity: str):
        if d_enc % len(widths) != 0:
            raise ConfigError(f"encoder width {d_enc} not divisible by the "
                              f"{len(widths)} kernel widths")
        self.nonlin = NONLINEARITIES[nonlinearity]
        slice_out = d_enc // len(widths)
        self.banks = [ConvLayer(params, w, d_in, slice_out, f"enc.w{w}")
                      for w in widths]

    def __call__(self, x: Tensor) -> Tensor:
        return self.nonlin(concat([conv1d(x, bank.kernel, bank.bias)
                                   for bank in self.banks], axis=-1))


class TaskStack:
    """Task-specific convolution stacks, one grouped convolution per layer
    over the tasks, whose kernels and biases are a block each; parameters
    are never shared across tasks."""

    def __init__(self, params: Params, d_in: int, d_out: int, depth: int,
                 nonlinearity: str, tasks: tuple[str, ...]):
        if depth < 1:
            raise ConfigError(f"task stack depth must be >= 1, got {depth}")
        self.nonlin = NONLINEARITIES[nonlinearity]
        self.row = {task: i for i, task in enumerate(tasks)}
        self.blocks = [layer_blocks(params, [3 * (d_out if k else d_in)]
                                    * len(tasks), d_out)
                       for k in range(depth)]
        self.layers = {task: [ConvLayer(params, 3, d_out if k else d_in,
                                        d_out, f"task.{task}.{k}",
                                        (*self.blocks[k], i))
                              for k in range(depth)]
                       for i, task in enumerate(tasks)}

    def __call__(self, x: Tensor, tasks: tuple[str, ...]) -> Tensor:
        """Hidden states [len(tasks), G, n, d_out] of ``tasks``, in that
        order, over the shared encoding x [G, n, d_in]."""
        rows = [self.row[task] for task in tasks]
        for kernels, biases in self.blocks:
            x = self.nonlin(grouped_conv1d(x, kernels.rows(rows),
                                           biases.rows(rows)))
        return x


class AttentionHead:
    """Single-query self-attention pooling plus a document classifier."""

    def __init__(self, params: Params, d: int, classes: int, name: str):
        self.w = params.glorot(f"{name}.attn.w", (d, 1))
        self.classifier = Affine(params, d, classes, f"{name}.cls")

    def __call__(self, h: Tensor, classify: bool = True
                 ) -> tuple[Tensor, Tensor | None, Tensor | None]:
        """Return (weights [G, n], pooled doc vectors [G, d], logits [G, C])
        for hidden states h [G, n, d]; without ``classify``, only the
        weights, and None for the others."""
        g, n, d = h.shape
        scores = reshape(matmul(h, self.w), (g, n))
        a = softmax(scores, axis=-1)
        if not classify:
            return a, None, None
        doc = reshape(matmul(reshape(a, (g, 1, n)), h), (g, d))
        logits = self.classifier(doc)
        return a, doc, logits


class TokenDecoder:
    """Per-token affine + softmax over each task's tag inventory."""

    def __init__(self, params: Params, d: int, classes: int,
                 tasks: tuple[str, ...]):
        self.w, self.b = layer_blocks(params, [d] * len(tasks), classes)
        self.maps = {task: Affine(params, d, classes, f"dec.{task}",
                                  (self.w, self.b, i))
                     for i, task in enumerate(tasks)}

    def __call__(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Logits and distributions [k, G, n, C] of h [k, G, n, d], row i
        the i-th task's."""
        logits = grouped_affine([[(h, i)] for i in range(len(self.maps))],
                                self.w, self.b)
        return logits, softmax(logits, axis=-1)
