"""Shared encoder, task-specific stacks, attention pooling, token decoders.

Every layer maps a group of equal-length sentences, [G, n, d], at once.
:class:`TaskStack` and :class:`TokenDecoder` carry their tasks as a leading
axis, [k, G, n, d], through grouped ops that stack the per-task parameters
inside the op, so names and checkpoints stay per task. Each layer's
``__call__`` runs it as a unit, which is what a caller timing the layers
wraps (see :mod:`ktabsa.model`).
"""

from __future__ import annotations

import numpy as np

from .tensor import (ConfigError, Tensor, concat, conv1d, default_dtype,
                     fully_connected, grouped_affine, grouped_conv1d, matmul,
                     relu, reshape, sigmoid, softmax)

NONLINEARITIES = {"relu": relu, "sigmoid": sigmoid}


class Params:
    """The ordered registry of a model's trainable tensors, and the rng that
    initialises them. Every parameter is registered where it is created, so
    creation order is the one parameter order: the order Adam steps,
    gradcheck reports and a checkpoint stores."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.tensors: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name}")
        self.tensors[name] = Tensor(data, requires_grad=True, name=name)
        return self.tensors[name]

    def glorot(self, name: str, shape: tuple[int, ...]) -> Tensor:
        """Glorot-uniform weights; a [..., d_in, d_out] kernel's leading
        axes (a convolution's width) multiply both fans."""
        field = int(np.prod(shape[:-2]))
        s = float(np.sqrt(6.0 / (field * (shape[-2] + shape[-1]))))
        return self.add(name, self.rng.uniform(-s, s, size=shape)
                        .astype(default_dtype()))

    def zeros(self, name: str, n: int) -> Tensor:
        return self.add(name, np.zeros(n, dtype=default_dtype()))


class Affine:
    """Fully-connected layer: weight ``{name}.w``, bias ``{name}.b``."""

    def __init__(self, params: Params, d_in: int, d_out: int, name: str):
        self.w = params.glorot(f"{name}.w", (d_in, d_out))
        self.b = params.zeros(f"{name}.b", d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return fully_connected(x, self.w, self.b)


class ConvLayer:
    def __init__(self, params: Params, width: int, d_in: int, d_out: int,
                 name: str):
        self.kernel = params.glorot(f"{name}.kernel", (width, d_in, d_out))
        self.bias = params.zeros(f"{name}.bias", d_out)


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
    over the tasks; parameters are never shared across tasks."""

    def __init__(self, params: Params, d_in: int, d_out: int, depth: int,
                 nonlinearity: str, tasks: tuple[str, ...]):
        if depth < 1:
            raise ConfigError(f"task stack depth must be >= 1, got {depth}")
        self.nonlin = NONLINEARITIES[nonlinearity]
        self.layers = {task: [ConvLayer(params, 3, d_in if k == 0 else d_out,
                                        d_out, f"task.{task}.{k}")
                              for k in range(depth)] for task in tasks}

    def __call__(self, x: Tensor, tasks: tuple[str, ...]) -> Tensor:
        """Hidden states [len(tasks), G, n, d_out] of ``tasks``, in that
        order, over the shared encoding x [G, n, d_in]."""
        for layers in zip(*(self.layers[task] for task in tasks)):
            x = self.nonlin(grouped_conv1d(x, [c.kernel for c in layers],
                                           [c.bias for c in layers]))
        return x


class AttentionHead:
    """Single-query self-attention pooling plus a document classifier."""

    def __init__(self, params: Params, d: int, classes: int, name: str):
        self.w = params.glorot(f"{name}.attn.w", (d, 1))
        self.classifier = Affine(params, d, classes, f"{name}.cls")

    def __call__(self, h: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Return (weights [G, n], pooled doc vectors [G, d], logits [G, C])
        for hidden states h [G, n, d]."""
        g, n, d = h.shape
        scores = reshape(matmul(h, self.w), (g, n))
        a = softmax(scores, axis=-1)
        doc = reshape(matmul(reshape(a, (g, 1, n)), h), (g, d))
        logits = self.classifier(doc)
        return a, doc, logits


class TokenDecoder:
    """Per-token affine + softmax over each task's tag inventory."""

    def __init__(self, params: Params, d: int, classes: int,
                 tasks: tuple[str, ...]):
        self.maps = {task: Affine(params, d, classes, f"dec.{task}")
                     for task in tasks}

    def __call__(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Logits and distributions [k, G, n, C] of h [k, G, n, d], row i
        the i-th task's."""
        maps = list(self.maps.values())
        logits = grouped_affine([[(h, i)] for i in range(len(maps))],
                                [m.w for m in maps], [m.b for m in maps])
        return logits, softmax(logits, axis=-1)
