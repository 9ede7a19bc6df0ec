"""Dynamic-length agreement routing between task-specific token layers.

A routing step moves knowledge from every source token i to every target
token j of the same sentence. Each pair's vote is
``u_hat[i, j] = (h_i [+ PE(i)] [+ PE(j)]) W``: a weight matrix shared across
the whole sentence, made position-aware by adding sinusoidal encodings of i
and j. Because W is linear, the vote factors into a source part and a target
part, ``u_hat[i, j] = r[i] + q[j]`` with ``r = (h [+ PE]) W`` and
``q = PE W`` (or 0), and the loop only ever holds r and q. The iterative loop
then:

    1. adds the dependency adjacency prior to the routing logits b,
    2. normalizes b over targets j into coupling coefficients c (softmax),
    3. aggregates votes per target, s[j] = sum_i c[i,j] * u_hat[i,j],
       computed as s = c^T r + colsum(c) * q,
    4. bounds each aggregate with squash, v[j],
    5. sharpens b by the vote/output agreement u_hat[i,j] . v[j],
       computed as r v^T + 1 (q * v summed over the vote width)^T.

So a routing step needs O(n^2 + n*d) memory, never the O(n^2*d) vote tensor.
The number of targets equals the sentence length, so the output is a
dynamic-length set of vectors rather than a fixed capsule bank. The loop is
fully unrolled; gradients flow through every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (ConfigError, Tensor, add, constant, coupled_sum,
                     default_dtype, masked_softmax, matmul, pairwise_dot,
                     softmax, squash)

PE_MODES = ("add-both", "add-source", "off")


def positional_encoding(n: int, d_model: int) -> np.ndarray:
    """Sinusoidal position table: sin at even columns, cos at odd columns,
    wavelength 10000^(2p/d_model) for column pair p."""
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs an even dimension, "
                          f"got {d_model}")
    if n < 1:
        raise ConfigError(f"positional encoding needs n >= 1, got {n}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    p = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * p / d_model)
    table = np.empty((n, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


class PositionalEncoding:
    """Caches the encoding table as a constant tensor up to ``max_len``."""

    def __init__(self, d_model: int, max_len: int):
        self.d_model = d_model
        self.max_len = max_len
        self.table = constant(
            positional_encoding(max_len, d_model).astype(default_dtype()))

    def prefix(self, n: int) -> Tensor:
        if n > self.max_len:
            raise ConfigError(f"sentence length {n} exceeds positional "
                              f"encoding capacity {self.max_len}")
        return constant(self.table.data[:n])


@dataclass
class TransferDirection:
    """One ordered source->target task pair with its projection weight."""

    source: str
    target: str
    weight: Tensor

    @property
    def name(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass
class RoutingState:
    """Snapshot of one routing iteration (plain arrays, detached)."""

    iteration: int
    b: np.ndarray
    c: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass
class RoutingTrace:
    direction: str
    tokens: tuple[str, ...] | None
    adjacency: np.ndarray
    states: list[RoutingState] = field(default_factory=list)


def predict_vectors(h_source: Tensor, direction: TransferDirection,
                    pe: PositionalEncoding, pe_mode: str = "add-both"
                    ) -> tuple[Tensor, Tensor | None]:
    """Factored vote vectors: u_hat[i, j] = r[i] + q[j].

    ``r = (h [+ PE]) @ W`` is the source part and ``q = PE @ W`` the target
    part, both [n, d_route]; ``q`` is None unless ``pe_mode`` is "add-both".
    The projection W is shared across positions; position awareness comes
    from the additive encodings selected by ``pe_mode``.
    """
    if pe_mode not in PE_MODES:
        raise ConfigError(f"unknown pe_mode {pe_mode!r}; expected one of "
                          f"{PE_MODES}")
    n, d = h_source.shape
    if d != pe.d_model:
        raise ConfigError(f"hidden width {d} does not match positional "
                          f"encoding dimension {pe.d_model}")
    pe_n = pe.prefix(n)  # also enforces the capacity limit
    src = h_source if pe_mode == "off" else add(h_source, pe_n)
    r = matmul(src, direction.weight)
    q = matmul(pe_n, direction.weight) if pe_mode == "add-both" else None
    return r, q


def route(r: Tensor, q: Tensor | None, adjacency: np.ndarray,
          iterations: int, mask: np.ndarray | None = None,
          keep_trace: bool = False) -> tuple[Tensor, list[RoutingState]]:
    """Run the agreement loop and return the final target vectors.

    The votes are ``u_hat[i, j] = r[i] + q[j]`` for source i and target j,
    with ``r`` [n, d_route] and ``q`` [n, d_route] or None (zero), as
    returned by :func:`predict_vectors`. ``adjacency`` is the binary n-by-n
    dependency prior, re-added to the logits at every iteration. ``mask``
    flags real tokens; padded positions are dropped from the softmax (as
    targets) and from the vote aggregation (as sources). Gradients flow
    through the unrolled loop.
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, "
                          f"got {iterations}")
    if r.ndim != 2:
        raise ConfigError(f"source votes r must be [n, d], got "
                          f"{tuple(r.shape)}")
    if q is not None and q.shape != r.shape:
        raise ConfigError(f"target votes q must match r {tuple(r.shape)}, "
                          f"got {tuple(q.shape)}")
    n = r.shape[0]
    if adjacency.shape != (n, n):
        raise ConfigError(f"adjacency shape {adjacency.shape} does not match "
                          f"sentence length {n}")
    dtype = r.data.dtype
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, bool)
    masked = not mask.all()
    target_mask = mask[None, :]                     # masks softmax columns
    source_keep = constant(mask.astype(dtype)[:, None])
    prior = constant(adjacency.astype(dtype))

    b = constant(np.zeros((n, n), dtype=dtype))
    trace: list[RoutingState] = []
    v = None
    for it in range(1, iterations + 1):
        b = add(b, prior)
        if masked:
            c = masked_softmax(b, target_mask, axis=1)
            c_src = c * source_keep
        else:
            c = c_src = softmax(b, axis=1)
        s = coupled_sum(c_src, r, q)
        v = squash(s, axis=1)
        b = add(b, pairwise_dot(r, v, q))
        if keep_trace:
            trace.append(RoutingState(it, b.data.copy(), c.data.copy(),
                                      s.data.copy(), v.data.copy()))
    return v, trace


def agreement_trace(trace: RoutingTrace) -> list[dict]:
    """Plot-ready coupling matrices, one record per iteration.

    Rows are annotated as source tokens, columns as target tokens.
    """
    if not trace.states:
        raise ValueError("empty routing trace")
    tokens = list(trace.tokens) if trace.tokens is not None else None
    return [{
        "direction": trace.direction,
        "iteration": st.iteration,
        "c": [[float(x) for x in row] for row in st.c],
        "tokens": tokens,
        "rows": "source",
        "cols": "target",
    } for st in trace.states]
