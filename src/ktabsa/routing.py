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

The model routes a group of G equal-length sentences at once: r, b, c, s and
v carry a leading group axis ([G, n, d_route], [G, n, n]), while q depends
only on the position and is shared by the group. Equal lengths mean there is
no padding and nothing to mask. So a routing step needs O(G*(n^2 + n*d))
memory, never the O(n^2*d) vote tensor. The number of targets equals the
sentence length, so the output is a dynamic-length set of vectors rather
than a fixed capsule bank. The loop is fully unrolled; gradients flow
through every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (ConfigError, Tensor, add, constant, coupled_sum,
                     default_dtype, matmul, pairwise_dot, softmax, squash)

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
    """Encoding tables as constant tensors, computed on first use for each
    sentence length and cached. There is no length cap: each row depends
    only on its position, so the table of n rows is the first n rows of
    any longer table."""

    def __init__(self, d_model: int):
        self.d_model = d_model
        self.dtype = default_dtype()    # the model's, fixed at construction
        self._tables: dict[int, Tensor] = {}

    def prefix(self, n: int) -> Tensor:
        """The [n, d_model] encodings of positions 0..n-1."""
        table = self._tables.get(n)
        if table is None:
            table = constant(
                positional_encoding(n, self.d_model).astype(self.dtype))
            self._tables[n] = table
        return table


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
    """Factored vote vectors: u_hat[g, i, j] = r[g, i] + q[j].

    ``h_source`` is [G, n, d] (or a single [n, d] sentence). ``r = (h [+ PE])
    @ W`` is the source part, shaped like h with width d_route, and
    ``q = PE @ W`` the target part, [n, d_route], shared by the group; ``q``
    is None unless ``pe_mode`` is "add-both". The projection W is shared
    across positions; position awareness comes from the additive encodings
    selected by ``pe_mode``.
    """
    if pe_mode not in PE_MODES:
        raise ConfigError(f"unknown pe_mode {pe_mode!r}; expected one of "
                          f"{PE_MODES}")
    n, d = h_source.shape[-2:]
    if d != pe.d_model:
        raise ConfigError(f"hidden width {d} does not match positional "
                          f"encoding dimension {pe.d_model}")
    pe_n = pe.prefix(n)
    src = h_source if pe_mode == "off" else add(h_source, pe_n)
    r = matmul(src, direction.weight)
    q = matmul(pe_n, direction.weight) if pe_mode == "add-both" else None
    return r, q


def route(r: Tensor, q: Tensor | None, adjacency: np.ndarray,
          iterations: int, keep_trace: bool = False
          ) -> tuple[Tensor, list[RoutingState]]:
    """Run the agreement loop and return the final target vectors.

    The votes are ``u_hat[g, i, j] = r[g, i] + q[j]`` for source i and
    target j of sentence g, with ``r`` [G, n, d_route] and ``q``
    [n, d_route] or None (zero), as returned by :func:`predict_vectors`.
    ``adjacency`` is the [G, n, n] binary dependency prior, re-added to the
    logits at every iteration. A single sentence may drop the group axis
    from r and adjacency. Gradients flow through the unrolled loop.
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, "
                          f"got {iterations}")
    if r.ndim not in (2, 3):
        raise ConfigError(f"source votes r must be [G, n, d] or [n, d], got "
                          f"{tuple(r.shape)}")
    n, d = r.shape[-2:]
    if q is not None and q.shape != (n, d):
        raise ConfigError(f"target votes q must match r's ({n}, {d}), "
                          f"got {tuple(q.shape)}")
    if adjacency.shape != r.shape[:-1] + (n,):
        raise ConfigError(f"adjacency shape {adjacency.shape} does not match "
                          f"votes {tuple(r.shape)}")
    dtype = r.data.dtype
    prior = constant(adjacency.astype(dtype))

    b = constant(np.zeros(adjacency.shape, dtype=dtype))
    trace: list[RoutingState] = []
    v = None
    for it in range(1, iterations + 1):
        b = add(b, prior)
        c = softmax(b, axis=-1)
        s = coupled_sum(c, r, q)
        v = squash(s, axis=-1)
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
