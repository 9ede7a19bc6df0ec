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

:func:`route` takes any leading axes. The model routes k transfer
directions of a group of G equal-length sentences in one call: r, b, c, s
and v are [k, G, n, d_route] and [k, G, n, n], q is [k, 1, n, d_route]
(it depends only on the position and the direction, so the group shares
it), and the [G, n, n] adjacency is shared by the directions. Equal lengths
mean there is no padding and nothing to mask. The number of targets equals
the sentence length, so the output is a dynamic-length set of vectors
rather than a fixed capsule bank.

The loop is one tape node: the forward is plain numpy, and a hand-written
backward replays the unrolled iterations in reverse. The node saves each
iteration's couplings c_t [k, G, n, n] and its s_t, |s_t| and v_t
([k, G, n, d_route]), so a call holds O(T*k*G*n^2 + k*G*n*d) memory for T
iterations, never the O(n^2*d) vote tensor. It returns what it saves but
|s_t|, as one :class:`RoutingState` per iteration: a routing trace is a view
of those arrays and costs no extra work. :func:`directions_per_call`
keeps one coupling array within :data:`COUPLING_BUDGET` elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (ConfigError, Tensor, _emit, _unbroadcast, add,
                     constant, default_dtype, matmul)

SQUASH_EPS = 1e-9   # guards squash's division at the zero vector
# Most elements of one stacked [k, G, n, n] coupling array (256 KiB in
# float32); six directions at G 8, n 64 (2^18) ran slower stacked than apart.
COUPLING_BUDGET = 1 << 16


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
    """One routing iteration: the couplings c [..., n, n], aggregates s and
    outputs v [..., n, d_route]. Plain arrays, off the tape, that the
    backward pass reads, so treat them as read-only."""

    c: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass
class RoutingTrace:
    """One sentence's routing on one direction in aggregation round
    ``round``: one state per iteration, views of a :func:`route` call's."""

    round: int
    direction: str
    states: list[RoutingState]


def predict_vectors(h_source: Tensor, direction: TransferDirection,
                    pe: PositionalEncoding) -> Tensor:
    """Source part of the factored votes u_hat[g, i, j] = r[g, i] + q[j].

    ``h_source`` is [G, n, d] (or a single [n, d] sentence), and
    ``r = (h + PE) @ W`` is shaped like h with width d_route. W is shared
    across positions; the additive encodings make the votes position-aware.
    """
    n, d = h_source.shape[-2:]
    if d != pe.d_model:
        raise ConfigError(f"hidden width {d} does not match positional "
                          f"encoding dimension {pe.d_model}")
    return matmul(add(h_source, pe.prefix(n)), direction.weight)


def target_votes(direction: TransferDirection, pe: PositionalEncoding,
                 n: int) -> Tensor:
    """Target part ``q = PE @ W`` [n, d_route] of the factored votes; it
    depends only on n and W, so a forward pass computes it once."""
    return matmul(pe.prefix(n), direction.weight)


def directions_per_call(g: int, n: int) -> int:
    """How many directions one :func:`route` call stacks for a group of g
    sentences of length n: as many as keep a [k, g, n, n] coupling array
    within :data:`COUPLING_BUDGET` elements, and at least one."""
    return max(1, COUPLING_BUDGET // (g * n * n))


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


def _broadcasts_to(shape: tuple[int, ...], target: tuple[int, ...]) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def route(r: Tensor, q: Tensor, adjacency: np.ndarray, iterations: int
          ) -> tuple[Tensor, list[RoutingState]]:
    """Run the agreement loop; return the final target vectors and the
    states its backward reads, one per iteration.

    The votes are ``u_hat[..., i, j] = r[..., i] + q[..., j]`` for source i
    and target j, with ``r`` [..., n, d_route] and ``q`` [..., n, d_route]
    broadcasting against r, as from :func:`predict_vectors` and
    :func:`target_votes` (the model passes r [k, G, n, d], q [k, 1, n, d]).
    ``adjacency`` is the binary dependency prior, broadcasting to the logits
    ``r.shape[:-1] + (n,)`` and re-added at every iteration; it is used
    without a copy when it already has r's dtype. The loop is one tape node
    whose backward runs through every unrolled iteration.
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, "
                          f"got {iterations}")
    if r.ndim < 2:
        raise ConfigError(f"source votes r must be [..., n, d], got "
                          f"{tuple(r.shape)}")
    n, d = r.shape[-2:]
    logits = r.shape[:-1] + (n,)
    if q.shape[-2:] != (n, d) or not _broadcasts_to(q.shape, r.shape):
        raise ConfigError(f"target votes q must match r's ({n}, {d}) and "
                          f"broadcast to {tuple(r.shape)}, got "
                          f"{tuple(q.shape)}")
    if not _broadcasts_to(adjacency.shape, logits):
        raise ConfigError(f"adjacency shape {adjacency.shape} does not "
                          f"broadcast to the logits {logits}")
    rd, qd = r.data, q.data
    prior = np.asarray(adjacency, dtype=rd.dtype)
    b = np.zeros(logits, dtype=rd.dtype)
    states, norms = [], []      # what the backward reads, per iteration
    for it in range(1, iterations + 1):
        b += prior
        c = b - b.max(axis=-1, keepdims=True)      # softmax over targets
        np.exp(c, out=c)
        c /= c.sum(axis=-1, keepdims=True)
        s = c.swapaxes(-1, -2) @ rd                # aggregate
        s += c.sum(axis=-2)[..., None] * qd
        v, norm = squash(s)
        states.append(RoutingState(c, s, v))
        norms.append(norm)
        if it < iterations:                        # agreement
            a = rd @ v.swapaxes(-1, -2)
            a += (qd * v).sum(axis=-1)[..., None, :]
            b += a
    out = Tensor(v, requires_grad=r.requires_grad or q.requires_grad)

    def fn(g, push):
        dr = dq = gb = None     # gb: dLoss/db after the current iteration
        gv = g
        for t in range(iterations - 1, -1, -1):
            c, s, v, norm = states[t].c, states[t].s, states[t].v, norms[t]
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

    return _emit(out, fn), states


def agreement_trace(trace: RoutingTrace, tokens: tuple[str, ...]
                    ) -> list[dict]:
    """Plot-ready coupling matrices of the sentence ``tokens``, one record
    per iteration from 1; rows are source tokens, columns target tokens."""
    if not trace.states:
        raise ValueError("empty routing trace")
    tokens = list(tokens)
    return [{
        "direction": trace.direction,
        "iteration": it,
        "c": [[float(x) for x in row] for row in st.c],
        "tokens": tokens,
        "rows": "source",
        "cols": "target",
    } for it, st in enumerate(trace.states, 1)]
