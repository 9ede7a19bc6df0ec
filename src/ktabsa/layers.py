"""Shared encoder, task-specific stacks, attention pooling, token decoders.

Every layer maps a group of equal-length sentences, [G, n, d], at once; the
encoder, task stacks and decoders also take a single [n, d] sentence.
"""

from __future__ import annotations

import numpy as np

from .tensor import (ConfigError, Tensor, concat, conv1d, default_dtype,
                     fully_connected, matmul, relu, reshape, sigmoid,
                     softmax)

NONLINEARITIES = {"relu": relu, "sigmoid": sigmoid}


def glorot(rng: np.random.Generator, shape: tuple[int, ...],
           fan_in: int, fan_out: int) -> np.ndarray:
    s = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-s, s, size=shape).astype(default_dtype())


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=default_dtype())


class Affine:
    """Fully-connected layer parameters with registry-friendly names."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 name: str):
        self.w = Tensor(glorot(rng, (d_in, d_out), d_in, d_out),
                        requires_grad=True, name=f"{name}.w")
        self.b = Tensor(_zeros(d_out), requires_grad=True, name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return fully_connected(x, self.w, self.b)

    def named(self):
        yield self.w.name, self.w
        yield self.b.name, self.b


class ConvLayer:
    def __init__(self, rng: np.random.Generator, width: int, d_in: int,
                 d_out: int, name: str):
        self.kernel = Tensor(
            glorot(rng, (width, d_in, d_out), width * d_in, width * d_out),
            requires_grad=True, name=f"{name}.kernel")
        self.bias = Tensor(_zeros(d_out), requires_grad=True,
                           name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return conv1d(x, self.kernel, self.bias)

    def named(self):
        yield self.kernel.name, self.kernel
        yield self.bias.name, self.bias


class SharedEncoder:
    """Multi-width convolution bank over the embedded sentence.

    Each kernel width contributes an equal slice of the output, so d_enc must
    divide evenly among the widths; the slices are concatenated and passed
    through the nonlinearity. Same padding keeps the sequence length, which
    also covers the single-token edge case.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, d_enc: int,
                 widths: tuple[int, ...], nonlinearity: str, name: str = "enc"):
        if d_enc % len(widths) != 0:
            raise ConfigError(f"encoder width {d_enc} not divisible by the "
                              f"{len(widths)} kernel widths")
        self.nonlin = NONLINEARITIES[nonlinearity]
        slice_out = d_enc // len(widths)
        self.banks = [ConvLayer(rng, w, d_in, slice_out, f"{name}.w{w}")
                      for w in widths]

    def __call__(self, x: Tensor) -> Tensor:
        parts = [bank(x) for bank in self.banks]
        h = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        return self.nonlin(h)

    def named(self):
        for bank in self.banks:
            yield from bank.named()


class TaskStack:
    """Task-specific convolution stack; parameters are never shared across
    tasks."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 depth: int, nonlinearity: str, name: str):
        if depth < 1:
            raise ConfigError(f"task stack depth must be >= 1, got {depth}")
        self.nonlin = NONLINEARITIES[nonlinearity]
        self.layers = []
        for k in range(depth):
            self.layers.append(ConvLayer(rng, 3, d_in if k == 0 else d_out,
                                         d_out, f"{name}.{k}"))

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = self.nonlin(layer(x))
        return x

    def named(self):
        for layer in self.layers:
            yield from layer.named()


class AttentionHead:
    """Single-query self-attention pooling plus a document classifier."""

    def __init__(self, rng: np.random.Generator, d: int, classes: int,
                 name: str):
        self.w = Tensor(glorot(rng, (d, 1), d, 1), requires_grad=True,
                        name=f"{name}.attn.w")
        self.classifier = Affine(rng, d, classes, f"{name}.cls")

    def __call__(self, h: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Return (weights [G, n], pooled doc vectors [G, d], logits [G, C])
        for hidden states h [G, n, d]."""
        g, n, d = h.shape
        scores = reshape(matmul(h, self.w), (g, n))
        a = softmax(scores, axis=-1)
        doc = reshape(matmul(reshape(a, (g, 1, n)), h), (g, d))
        logits = self.classifier(doc)
        return a, doc, logits

    def named(self):
        yield self.w.name, self.w
        yield from self.classifier.named()


class TokenDecoder:
    """Per-token affine + softmax over the task's tag inventory."""

    def __init__(self, rng: np.random.Generator, d: int, classes: int,
                 name: str):
        self.map = Affine(rng, d, classes, name)

    def __call__(self, h: Tensor) -> tuple[Tensor, Tensor]:
        logits = self.map(h)
        return logits, softmax(logits, axis=-1)

    def named(self):
        yield from self.map.named()
