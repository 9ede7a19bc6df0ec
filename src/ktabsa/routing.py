"""Dynamic-length agreement routing between task-specific token layers.

A routing step moves knowledge from every source token i to every target
token j of the same sentence. Each pair's vote is
``u_hat[i, j] = (h_i + PE(i) + PE(j)) W``: a weight matrix shared across
the whole sentence, made position-aware by adding sinusoidal encodings of i
and j. Because W is linear, the vote factors into
``u_hat[i, j] = p[i] + q[i] + q[j]`` with ``p = h W`` and ``q = PE W``;
:func:`route` forms the source part ``r = p + q`` once, and the loop only
ever holds r and q. Iteration t = 1..T:

    1. forms the logits b_t[i, j] = t A[i, j] + u_hat[i, j] . V_t[j] from
       the adjacency prior A and the sum V_t = v_1 + ... + v_{t-1},
    2. normalizes b_t over targets j into coupling coefficients c_t,
    3. aggregates votes per target, s[j] = sum_i c[i,j] * u_hat[i,j],
    4. bounds each aggregate with squash, v_t[j].

Logits and couplings are held target-major, [..., j, i], so the softmax
reduces axis -2. With r1 = [r | 1], b_t^T = t A^T + [V_t | q . V_t] r1^T,
and c_t r1 = [c_t r | m_t], m_t the coupling mass into each target, so
s_t = c_t r + m_t q. c_1 = softmax(A) is computed at A's shape by
:func:`routing_prior`, which a forward calls once for all of its routing.

:func:`route` takes any leading axes. The model routes k transfer
directions of a length group, the G consecutive sentences of one length n
in a forward's chunk, in one call: p and v are the group's rows of the
token axis, [k, G*n, d_route], q is [k, 1, n, d_route] (it depends only on
the position and the direction, so the group shares it), and the [G, n, n]
adjacency and c_1 are shared by the directions. The prior's [G, n] is how
:func:`route` folds the rows into squares, so the loop and its states s_t
and v_t are [k, G, n, d_route] and the couplings [k, G, n, n]; no caller
reshapes. :func:`predict_vectors` builds p from the group's rows of the
hidden stack and :func:`target_votes` builds q, in one grouped matmul
each. Equal lengths mean there is no padding and nothing to mask. The
number of targets equals the sentence length, so the output is a
dynamic-length set of vectors rather than a fixed capsule bank.

The loop is one tape node: the forward is plain numpy, and a hand-written
backward replays the unrolled iterations in reverse, rebuilding each v_t
as squash(s_t) and V_t from them. The node saves c_1 [G, n, n], c_2..c_T
[k, G, n, n] and each s_t and m_t: about (T-1)*k*G*n^2 + G*n^2 coupling
elements plus O(k*G*n*d), never the O(n^2*d) vote tensor. It returns c_t,
s_t and v_t as one :class:`RoutingState` per iteration: a routing trace is
a view of those arrays and costs no extra work, and the v_t that a caller
drops are freed. :func:`directions_per_call` keeps
one coupling array within :data:`COUPLING_BUDGET` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from .tensor import (ConfigError, Stack, Tensor, _emit, _unbroadcast,
                     constant, grouped_affine)

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


@cache
def _encoding(n: int, d_model: int, dtype: np.dtype) -> Tensor:
    """The [n, d_model] encodings of positions 0..n-1 as a constant of
    ``dtype``, computed once per key. There is no length cap: each row
    depends only on its position, so the table of n rows is the first n
    rows of any longer table."""
    return constant(positional_encoding(n, d_model).astype(dtype))


@dataclass
class TransferDirection:
    """One ordered source->target task pair."""

    source: str
    target: str

    @property
    def name(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass
class RoutingState:
    """One routing iteration: the couplings c [..., source, target] (a view;
    iteration 1's broadcasts c_1), aggregates s and outputs v [..., n,
    d_route]. Arrays off the tape that the backward reads: read-only."""

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


def predict_vectors(hidden: Tensor, *directions: TransferDirection,
                    tasks: tuple[str, ...], weights: Stack,
                    tokens: slice = slice(None)) -> Tensor:
    """Hidden parts ``p = h @ W`` [k, T, d_route] of the factored votes
    u_hat[g, i, j] = p[g, i] + q[i] + q[j] of k directions, in one grouped
    matmul, over the T rows ``tokens`` of the token axis.

    ``hidden`` [len(tasks), N, d] stacks the states of ``tasks``, in that
    order; direction t maps its source's states h by its weight W, entry t
    of ``weights``. W is shared across positions; :func:`target_votes`
    makes the votes position-aware.
    """
    return grouped_affine([[(hidden, (tasks.index(t.source), tokens))]
                           for t in directions], weights)


def target_votes(n: int, weights: Stack) -> Tensor:
    """Position parts ``q = PE @ W`` [k, 1, n, d_route] of the factored
    votes of k directions whose weights W are ``weights``, with W's input
    width and dtype; they depend only on n and the weights, so a forward
    pass computes them once."""
    k, d, _ = weights.data.shape
    pe = _encoding(n, d, weights.data.dtype)
    return grouped_affine([[(pe, None)]] * k, weights)


def directions_per_call(g: int, n: int) -> int:
    """How many directions one :func:`route` call stacks for a group of g
    sentences of length n: as many as keep a [k, g, n, n] coupling array
    within :data:`COUPLING_BUDGET` elements, and at least one."""
    return max(1, COUPLING_BUDGET // (g * n * n))


def squash(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norm-bounding nonlinearity over the last axis: keeps each row's
    direction and maps its norm |s| to |s|^2 / (1 + |s|^2); the zero row
    maps to itself. Returns the squashed rows and the norms [..., 1]."""
    nn = _dot(s, s)
    norm = np.sqrt(nn)
    return s * (nn / ((1.0 + nn) * (norm + SQUASH_EPS))), norm


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows (last axis) of a and b, as [..., 1]."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def squash_grad(g: np.ndarray, s: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """dLoss/ds of ``v = squash(s)`` from ``g`` = dLoss/dv and the norms
    :func:`squash` returned: ``g f(|s|) + s (g . s) f'(|s|) / |s|`` for the
    squash factor f, whose ``f'(x) / x = (x (1 - x^2) + 2 eps) / ((1 + x^2)
    (x + eps))^2`` is finite at 0, so a zero row has gradient 0."""
    nn = norm * norm
    den = (1.0 + nn) * (norm + SQUASH_EPS)
    coef = (norm * (1.0 - nn) + 2.0 * SQUASH_EPS) / (den * den)
    return g * (nn / den) + s * (_dot(g, s) * coef)


def _target_softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Softmax of target-major logits over the targets (axis -2)."""
    out = np.subtract(logits, logits.max(axis=-2, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-2, keepdims=True)
    return out


def routing_prior(adjacency: np.ndarray, dtype) -> tuple:
    """The prior as :func:`route` reads it, target-major: the transposed
    adjacency and c_1 = softmax(A) over the targets."""
    at = np.ascontiguousarray(adjacency.swapaxes(-1, -2), dtype)
    return at, _target_softmax(at)


def _broadcasts_to(shape: tuple[int, ...], target: tuple[int, ...]) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def route(p: Tensor, q: Tensor, prior: tuple[np.ndarray, np.ndarray],
          iterations: int) -> tuple[Tensor, list[RoutingState]]:
    """Run the agreement loop over the token rows of a length group; return
    the final target vectors, at p's shape, and the states its backward
    reads, one per iteration.

    ``prior`` is the :func:`routing_prior` of the binary dependency
    adjacency [G, n, n] of G sentences of length n ([n, n] for one), and
    ``p`` [..., G*n, d_route] holds their rows, as :func:`predict_vectors`
    gives them (the model passes p [k, G*n, d]). The loop, and so each
    state, folds p's rows into the prior's [G, n]. The votes are
    ``u_hat[..., i, j] = r[..., i] + q[..., j]`` for source i and target j
    of one sentence, with ``r = p + q`` and ``q`` [..., n, d_route]
    broadcasting to the folded p, as from :func:`target_votes`. The loop
    is one tape node whose backward runs through every unrolled iteration.
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, "
                          f"got {iterations}")
    if p.ndim < 2:
        raise ConfigError(f"hidden votes p must be [..., G*n, d], got "
                          f"{tuple(p.shape)}")
    at, c = prior                               # A^T and c_1, [..., n, n]
    if math.prod(at.shape[:-1]) != p.shape[-2]:
        raise ConfigError(f"adjacency shape {at.shape} does not fold the "
                          f"{p.shape[-2]} rows of p")
    fold = p.shape[:-2] + at.shape[:-1] + p.shape[-1:]
    n, d = fold[-2:]
    logits = fold[:-1] + (n,)
    if q.shape[-2:] != (n, d) or not _broadcasts_to(q.shape, fold):
        raise ConfigError(f"position votes q must match p's ({n}, {d}) and "
                          f"broadcast to {fold}, got {tuple(q.shape)}")
    pd, qd = p.data.reshape(fold), q.data
    r1 = np.empty(pd.shape[:-1] + (d + 1,), pd.dtype)
    r1[..., :d], r1[..., d] = pd + qd, 1
    states, masses = [], []
    for t in range(iterations):
        if t:                                   # iteration t + 1's logits
            c = vq @ r1.swapaxes(-1, -2)
            c += (t + 1) * at
            _target_softmax(c, out=c)
        else:   # c_1 broadcast as by np.broadcast_to, minus its set-up cost
            st = [0] * (len(logits) - c.ndim) + [
                x * (m > 1) for m, x in zip(c.shape, c.strides)]
            c = np.ndarray(logits, c.dtype, c, 0, st)
            c.flags.writeable = False
        s1 = c @ r1                             # [c r | coupling mass]
        mass = s1[..., d:].copy()               # so that s1 can be freed
        s = s1[..., :d] + mass * qd
        v, _ = squash(s)
        states.append(RoutingState(c.swapaxes(-1, -2), s, v))
        masses.append(mass)
        if t + 1 < iterations:                  # vq = [V | q . V]
            v1 = np.concatenate((v, _dot(qd, v)), -1)
            vq = vq + v1 if t else v1
    out = Tensor(v.reshape(p.shape),
                 requires_grad=p.requires_grad or q.requires_grad)
    saved = [(st.c, st.s) for st in states]     # each v_t is squash(s_t)

    def fn(g, push):
        r1 = np.concatenate((pd + qd, np.ones_like(pd[..., :1])), -1)
        sums = list(accumulate(squash(s)[0] for _, s in saved[:-1]))  # V_2..
        dr = dq = gsum = 0      # gsum: dLoss/dV from the later iterations
        gv, gl = g.reshape(fold), None
        for t in range(iterations - 1, -1, -1):
            c, s = saved[t]                     # c: [..., source, target]
            gs = squash_grad(gv, s, np.sqrt(_dot(s, s)))
            gq = masses[t] * gs
            if t == 0:                          # c_1 depends on A alone
                dr += c @ gs
            else:
                gs1 = np.concatenate((gs, _dot(gs, qd)), -1)
                x = c @ gs1                     # [c^T gs | c^T (gs . q)]
                gl = np.matmul(gs1, r1.swapaxes(-1, -2), out=gl)  # dLoss/dc
                gl -= _dot(x, r1).swapaxes(-1, -2)
                gl *= c.swapaxes(-1, -2)        # dLoss/dlogits
                y = gl @ r1                     # [gl r | row sums of gl]
                dr += x[..., :d] + gl.swapaxes(-1, -2) @ sums[t - 1]
                gq += y[..., d:] * sums[t - 1]
                gv = gsum = gsum + y[..., :d] + y[..., d:] * qd
            dq += gq                            # at p's shape until pushed
        dq += dr                                # r = p + q
        push(p, dr.reshape(p.shape))
        push(q, _unbroadcast(dq, qd.shape))

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
