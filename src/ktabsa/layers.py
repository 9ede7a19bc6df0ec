"""Shared encoder, task-specific stacks, attention pooling, token decoders.

Every layer maps a chunk of items of any lengths at once, laid end to end
on one token axis, [N, d], that a :class:`tensor.Segments` describes, so
that no convolution window or attention pool mixes items. The task layers
carry their tasks as a leading axis, [k, N, d], through grouped ops that
read the tasks' parameters as one block (:meth:`Params.block`), so names
and checkpoints stay per task; the encoder runs each of its banks as a
one-entry grouped convolution, and its [1, N, d_enc] output is the one
group that every task stack reads. Each layer's ``__call__`` runs it as a
unit, which is what a caller timing the layers wraps (see
:mod:`ktabsa.model`).
"""

from __future__ import annotations

import numpy as np

from .tensor import (Parameter, Segments, Stack, Tensor, concat,
                     default_dtype, grouped_affine, grouped_conv1d, relu,
                     segment_pool, segment_softmax, sigmoid, softmax)

NONLINEARITIES = {"relu": relu, "sigmoid": sigmoid}
CONV = ("kernel", "bias")       # the part names of a convolution layer


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

    def family(self, k: int, rows: int, m: int) -> tuple[Stack, Stack]:
        """The weight block [k, rows, m] and bias block [k, 1, m] of k
        layers whose weights flatten to at most ``rows`` rows of m."""
        return self.block(k, rows, m), self.block(k, 1, m)

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

    def layer(self, name: str, shape: tuple[int, ...],
              family: tuple[Stack, Stack] | None = None, i: int = 0,
              parts: tuple[str, str] = ("w", "b")) -> tuple[Stack, Stack]:
        """Register a Glorot weight ``{name}.{parts[0]}`` of ``shape`` and a
        zero bias ``{name}.{parts[1]}`` as entry i of ``family`` (from
        :meth:`family`), or of a one-entry family of their own; return the
        family."""
        family = family or self.family(1, int(np.prod(shape[:-1])), shape[-1])
        self.glorot(f"{name}.{parts[0]}", shape, family[0], i)
        self.zeros(f"{name}.{parts[1]}", shape[-1], family[1], i)
        return family


class SharedEncoder:
    """Multi-width convolution bank over the embedded sentence.

    Each kernel width contributes an equal slice of the output (d_enc
    divides evenly among the widths, as :meth:`ModelConfig.validate`
    checks); the slices are concatenated and passed through the
    nonlinearity. Same padding keeps each item's length, which also covers
    the single-token edge case.
    """

    def __init__(self, params: Params, d_in: int, d_enc: int,
                 widths: tuple[int, ...], nonlinearity: str):
        self.nonlin = NONLINEARITIES[nonlinearity]
        self.banks = [params.layer(f"enc.w{w}",
                                   (w, d_in, d_enc // len(widths)), parts=CONV)
                      for w in widths]

    def __call__(self, x: Tensor, segments: Segments) -> Tensor:
        """The encoding [1, N, d_enc] of the items ``segments`` lays out in
        x [N, d_in]: one group, which every task stack reads."""
        return self.nonlin(concat([grouped_conv1d(x, *bank, segments)
                                   for bank in self.banks], axis=-1),
                           inplace=True)


class TaskStack:
    """Task-specific convolution stacks, one grouped convolution per layer
    over the tasks, whose kernels and biases are a block each; parameters
    are never shared across tasks."""

    def __init__(self, params: Params, d_in: int, d_out: int, depth: int,
                 nonlinearity: str, tasks: tuple[str, ...]):
        self.nonlin = NONLINEARITIES[nonlinearity]
        self.row = {task: i for i, task in enumerate(tasks)}
        self.blocks = [params.family(len(tasks), 3 * (d_out if k else d_in),
                                     d_out) for k in range(depth)]
        for i, task in enumerate(tasks):
            for k, family in enumerate(self.blocks):
                params.layer(f"task.{task}.{k}", (3, d_out if k else d_in,
                                                  d_out), family, i, CONV)

    def __call__(self, x: Tensor, tasks: tuple[str, ...],
                 segments: Segments) -> Tensor:
        """Hidden states [len(tasks), N, d_out] of ``tasks``, in that
        order, over the shared encoding x [1, N, d_in] of ``segments``."""
        rows = [self.row[task] for task in tasks]
        for kernels, biases in self.blocks:
            x = self.nonlin(grouped_conv1d(x, kernels.rows(rows),
                                           biases.rows(rows), segments),
                            inplace=True)
        return x


class AttentionHead:
    """Single-query self-attention pooling plus a document classifier per
    task: weights ``doc.{task}.attn.w`` [d, 1], entries of one block, and
    ``doc.{task}.cls.{w,b}``, a family each, since the tasks' class counts
    differ."""

    def __init__(self, params: Params, d: int, classes: dict[str, int]):
        self.row = {task: i for i, task in enumerate(classes)}
        self.w = params.block(len(classes), d, 1)
        self.classifiers = {}
        for i, (task, c) in enumerate(classes.items()):
            params.glorot(f"doc.{task}.attn.w", (d, 1), self.w, i)
            self.classifiers[task] = params.layer(f"doc.{task}.cls", (d, c))

    def __call__(self, h: Tensor, tasks: tuple[str, ...],
                 segments: Segments, classify: tuple[str, ...]
                 ) -> tuple[Tensor, dict[str, Tensor]]:
        """Attention weights [k, N, 1] over each item's tokens of h [k, N,
        d], the hidden states of ``tasks`` in that order, and the logits
        [1, B, C] of each task of ``classify``."""
        a = segment_softmax(grouped_affine(
            [[(h, i)] for i in range(h.shape[0])],
            self.w.rows([self.row[t] for t in tasks])), segments)
        pooled = segment_pool(a, h, segments) if classify else None
        return a, {task: grouped_affine([[(pooled, tasks.index(task))]],
                                        *self.classifiers[task])
                   for task in classify}


class TokenDecoder:
    """Per-token affine + softmax over each task's tag inventory."""

    def __init__(self, params: Params, d: int, classes: int,
                 tasks: tuple[str, ...]):
        self.w, self.b = params.family(len(tasks), d, classes)
        for i, task in enumerate(tasks):
            params.layer(f"dec.{task}", (d, classes), (self.w, self.b), i)

    def __call__(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Logits and distributions [k, N, C] of h [k, N, d], row i the
        i-th task's."""
        logits = grouped_affine([[(h, i)] for i in range(h.shape[0])],
                                self.w, self.b)
        return logits, softmax(logits, axis=-1)
