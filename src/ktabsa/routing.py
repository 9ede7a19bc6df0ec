"""Dynamic-length agreement routing between task-specific token layers.

A routing step moves knowledge from every source token i to every target
token j of the same sentence. Each pair's vote is
``u_hat[i, j] = (h_i + PE(i) + PE(j)) W``: a weight matrix shared across
the whole sentence, made position-aware by adding sinusoidal encodings of i
and j. Because W is linear, the vote factors into a source part and a target
part, ``u_hat[i, j] = r[i] + q[j]`` with ``r = (h + PE) W`` and
``q = PE W``, and the loop only ever holds r and q. The iterative loop
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
no padding and nothing to mask. The number of targets equals the sentence
length, so the output is a dynamic-length set of vectors rather than a
fixed capsule bank.

:func:`route` runs the whole loop as one tape node: the forward is plain
numpy, and a hand-written backward replays the unrolled iterations in
reverse. The node saves each iteration's couplings c_t [G, n, n] and its
s_t, |s_t| and v_t ([G, n, d_route]), so a routing call holds
O(T*G*n^2 + G*n*d) memory for T iterations, never the O(n^2*d) vote tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (ConfigError, Tensor, _emit, _unbroadcast, add,
                     constant, default_dtype, matmul)

SQUASH_EPS = 1e-9   # guards squash's division at the zero vector


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
                    pe: PositionalEncoding) -> tuple[Tensor, Tensor]:
    """Factored vote vectors: u_hat[g, i, j] = r[g, i] + q[j].

    ``h_source`` is [G, n, d] (or a single [n, d] sentence). ``r = (h + PE)
    @ W`` is the source part, shaped like h with width d_route, and
    ``q = PE @ W`` the target part, [n, d_route], shared by the group. The
    projection W is shared across positions; position awareness comes from
    the additive encodings of source and target.
    """
    n, d = h_source.shape[-2:]
    if d != pe.d_model:
        raise ConfigError(f"hidden width {d} does not match positional "
                          f"encoding dimension {pe.d_model}")
    pe_n = pe.prefix(n)
    return (matmul(add(h_source, pe_n), direction.weight),
            matmul(pe_n, direction.weight))


def squash(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norm-bounding nonlinearity over the last axis: keeps each row's
    direction and maps its norm |s| to |s|^2 / (1 + |s|^2); the zero row
    maps to itself. Returns the squashed rows and the norms [..., 1]."""
    norm = np.sqrt((s * s).sum(axis=-1, keepdims=True))
    return s * _squash_factor(norm), norm


def _squash_factor(norm: np.ndarray) -> np.ndarray:
    nn = norm * norm
    return nn / ((1.0 + nn) * (norm + SQUASH_EPS))


def squash_grad(g: np.ndarray, s: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """dLoss/ds of ``v = squash(s)`` from ``g`` = dLoss/dv and the norms
    :func:`squash` returned. A zero row has gradient 0: the radial term is
    divided by the norm only where the norm is positive."""
    den = (1.0 + norm * norm) * (norm + SQUASH_EPS)
    dden = 2.0 * norm * (norm + SQUASH_EPS) + (1.0 + norm * norm)
    fp = (2.0 * norm * den - (norm * norm) * dden) / (den * den)
    coef = np.divide(fp, norm, out=np.zeros_like(norm), where=norm > 0)
    gdots = (g * s).sum(axis=-1, keepdims=True)
    return g * _squash_factor(norm) + s * (gdots * coef)


def _accumulate(acc: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    if acc is None:
        return g
    acc += g
    return acc


def route(r: Tensor, q: Tensor, adjacency: np.ndarray,
          iterations: int, keep_trace: bool = False
          ) -> tuple[Tensor, list[RoutingState]]:
    """Run the agreement loop and return the final target vectors.

    The votes are ``u_hat[g, i, j] = r[g, i] + q[j]`` for source i and
    target j of sentence g, with ``r`` [G, n, d_route] and ``q``
    [n, d_route], as returned by :func:`predict_vectors`.
    ``adjacency`` is the [G, n, n] binary dependency prior, re-added to the
    logits at every iteration; it is used without a copy when it already
    has r's dtype. A single sentence may drop the group axis from r and
    adjacency. The loop is one tape node whose backward runs through every
    unrolled iteration. The last iteration's agreement update feeds only
    the trace, so it runs only when ``keep_trace`` is set.
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, "
                          f"got {iterations}")
    if r.ndim not in (2, 3):
        raise ConfigError(f"source votes r must be [G, n, d] or [n, d], got "
                          f"{tuple(r.shape)}")
    n, d = r.shape[-2:]
    if q.shape != (n, d):
        raise ConfigError(f"target votes q must match r's ({n}, {d}), "
                          f"got {tuple(q.shape)}")
    if adjacency.shape != r.shape[:-1] + (n,):
        raise ConfigError(f"adjacency shape {adjacency.shape} does not match "
                          f"votes {tuple(r.shape)}")
    rd, qd = r.data, q.data
    prior = np.asarray(adjacency, dtype=rd.dtype)
    b = np.zeros(prior.shape, dtype=rd.dtype)
    saved: list[tuple[np.ndarray, ...]] = []
    trace: list[RoutingState] = []
    for it in range(1, iterations + 1):
        b += prior
        c = b - b.max(axis=-1, keepdims=True)      # softmax over targets
        np.exp(c, out=c)
        c /= c.sum(axis=-1, keepdims=True)
        s = c.swapaxes(-1, -2) @ rd                # aggregate
        s += c.sum(axis=-2)[..., None] * qd
        v, norm = squash(s)
        saved.append((c, s, norm, v))
        if it < iterations or keep_trace:          # agreement
            a = rd @ v.swapaxes(-1, -2)
            a += (qd * v).sum(axis=-1)[..., None, :]
            b += a
        if keep_trace:
            trace.append(RoutingState(it, b.copy(), c.copy(), s.copy(),
                                      v.copy()))
    out = Tensor(v, requires_grad=r.requires_grad or q.requires_grad)

    def fn(g, push):
        dr = dq = gb = None     # gb: dLoss/db after the current iteration
        gv = g
        for t in range(iterations - 1, -1, -1):
            c, s, norm, v = saved[t]
            if gb is not None:  # agreement b += r v^T + 1 (q . v)^T
                colsum = gb.sum(axis=-2)[..., None]
                gv = gb.swapaxes(-1, -2) @ rd
                gv += colsum * qd
                dq = _accumulate(dq, _unbroadcast(colsum * v, qd.shape))
                dr = _accumulate(dr, gb @ v)
            gs = squash_grad(gv, s, norm)
            # aggregate s = c^T r + colsum(c) q
            dq = _accumulate(dq, _unbroadcast(
                c.sum(axis=-2)[..., None] * gs, qd.shape))
            dr = _accumulate(dr, c @ gs)
            if t == 0:          # the first logits are the constant prior
                break
            dc = rd @ gs.swapaxes(-1, -2)
            dc += (gs * qd).sum(axis=-1)[..., None, :]
            gc = c * (dc - (dc * c).sum(axis=-1, keepdims=True))
            gb = _accumulate(gb, gc)
        push(r, dr)
        push(q, dq)

    return _emit(out, fn), trace


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
