"""Shared test oracles: finite differences and reference implementations."""

from __future__ import annotations

import contextlib
import itertools
import json

import numpy as np
import pytest

from ktabsa import data, routing
from ktabsa import tensor as T
from ktabsa.data import BEGIN, INSIDE, OUTSIDE, extract_spans
from ktabsa.model import ASPECT_TASKS, DOC_TASKS, IterationState, Prediction
from ktabsa.training import _gradcheck, aspect_loss


def numeric_grad(fn, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x (64-bit only)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def weighted_sum(t: T.Tensor, w=None) -> T.Tensor:
    """The scalar ``sum(w * t)`` as one tape node, ``w`` a constant array
    that broadcasts to ``t`` (all ones when None). Finite-difference checks
    reduce an op's output to a loss with it; a random ``w`` probes the whole
    Jacobian rather than its column sums."""
    w = np.ones(t.shape, t.dtype) if w is None else np.asarray(w, t.dtype)
    out = T.Tensor((t.data * w).sum(), requires_grad=t.requires_grad)

    def fn(g, push):
        push(t, np.broadcast_to(g * w, t.shape))

    return T._emit(out, fn)


def check_op_grads(build, arrays, step: float = 1e-3, tol: float = 1e-3):
    """FD-check every input of an op.

    ``build`` maps a list of float64 Tensors to a scalar Tensor; ``arrays``
    are the input values. Asserts analytic vs central-difference agreement.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with T.use_dtype(np.float64):
        tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
        tape = T.Tape()
        with T.record(tape):
            loss = build(tensors)
        tape.backward(loss)
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]

        for idx in range(len(tensors)):
            def scalar_at(x, idx=idx):
                saved = tensors[idx].data
                tensors[idx].data = np.ascontiguousarray(x)
                try:
                    return build(tensors).item()
                finally:
                    tensors[idx].data = saved

            num = numeric_grad(scalar_at, arrays[idx], step=step)
            err = rel_err(analytic[idx], num)
            assert err < tol, (
                f"input {idx}: analytic vs numeric gradient differ "
                f"(max rel err {err:.3e})")


def reshape(a: T.Tensor, shape: tuple[int, ...]) -> T.Tensor:
    """``a`` viewed at ``shape`` as one tape node: the layout changes the
    oracles build between their plain ops."""
    out = T.Tensor(a.data.reshape(shape), requires_grad=a.requires_grad)

    def fn(g, push):
        push(a, g.reshape(a.shape))

    return T._emit(out, fn)


def scale(a: T.Tensor, k: float) -> T.Tensor:
    """``k * a`` as one tape node, for a Python float ``k``: the oracles'
    form of a loss weight that the program folds into row weights."""
    k = float(k)
    out = T.Tensor(a.data * k, requires_grad=a.requires_grad)

    def fn(g, push):
        push(a, g * k)

    return T._emit(out, fn)


def matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """a @ b as one tape node, for a [..., n, k] and b either a [k, m]
    weight shared by every leading index or a [..., k, m] batch with the
    same leading axes: the plain product the oracles build layers from."""
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or (b.ndim > 2 and a.shape[:-2] != b.shape[:-2])):
        raise T.ShapeError(f"matmul shapes {tuple(a.shape)} and "
                           f"{tuple(b.shape)} do not chain")
    out = T.Tensor(a.data @ b.data,
                   requires_grad=a.requires_grad or b.requires_grad)

    def fn(g, push):
        push(a, g @ b.data.swapaxes(-1, -2))
        if b.ndim == 2:     # every leading axis folded into the rows
            push(b, a.data.reshape(-1, a.shape[-1]).T
                 @ g.reshape(-1, g.shape[-1]))
        else:
            push(b, a.data.swapaxes(-1, -2) @ g)

    return T._emit(out, fn)


def stacked(params) -> T.Stack:
    """Standalone parameters as the operand of a grouped op: their data
    copied into one zero-padded [k, rows, m] array, laid out as
    ``layers.Params.block`` lays out a family."""
    m = params[0].shape[-1]
    data = np.zeros((len(params), max(p.size // m for p in params), m),
                    params[0].dtype)
    for entry, p in zip(data, params):
        entry[:p.size // m] = p.data.reshape(-1, m)
    return T.Stack(list(params), data)


def assert_views_of_blocks(model) -> None:
    """Every parameter is a view of its entry of one block
    (``layers.Params.block``), and the entry's rows past it are exactly
    zero; the families of several hold every parameter but the
    embeddings', the encoder's and the document classifiers'."""
    blocks = model.params.blocks
    for block in blocks:
        m = block.data.shape[-1]
        for entry, p in zip(block.data, block.params):
            rows = p.size // m
            assert np.shares_memory(p.data, entry[:rows]), p.name
            np.testing.assert_array_equal(p.data.reshape(rows, m),
                                          entry[:rows], err_msg=p.name)
            assert not entry[rows:].any(), f"{p.name}: nonzero padding"
    assert sorted(p.name for b in blocks for p in b.params) == sorted(
        model.named_parameters())
    assert sorted(p.name for b in blocks if len(b.params) > 1
                  for p in b.params) == sorted(
        name for name in model.named_parameters()
        if not name.startswith(("emb.", "enc.", "doc.ddc.cls.",
                                "doc.dsc.cls.")))


def conv1d(x: T.Tensor, kernel: T.Tensor, bias: T.Tensor) -> T.Tensor:
    """One same-length convolution [G, n, d_out] of x [G, n, d_in]: a
    one-entry ``grouped_conv1d`` of the G sentences laid end to end."""
    g, n, d_in = x.shape
    out = T.grouped_conv1d(reshape(x, (g * n, d_in)), stacked([kernel]),
                           stacked([bias]), T.Segments([n] * g))
    return reshape(out, (g, n, out.shape[-1]))


def conv1d_naive(x: np.ndarray, kernel: np.ndarray,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """Triple-loop same-padding 1-d convolution reference."""
    n, d_in = x.shape
    w, _, d_out = kernel.shape
    pad = w // 2
    out = np.zeros((n, d_out), dtype=x.dtype)
    for t in range(n):
        for o in range(w):
            src = t + o - pad
            if 0 <= src < n:
                for c in range(d_out):
                    out[t, c] += float(x[src] @ kernel[o, :, c])
    if bias is not None:
        out += bias
    return out


@contextlib.contextmanager
def corrupt_squash_backward(k: float):
    """Mutation testing of the gradient checks: within the block the routing
    loop's squash keeps its forward value but its backward, the
    ``routing.squash_grad`` that ``routing.route`` calls, is scaled by
    ``k``."""
    exact = routing.squash_grad

    def squash_grad(g, s, norm):
        return k * exact(g, s, norm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "squash_grad", squash_grad)
        yield


@contextlib.contextmanager
def failing_disk(nth_write: int = 3):
    """Within the block, every file opened for writing through
    ``ktabsa.data.atomic_write`` fails its ``nth_write``-th write part-way,
    as on a full disk: half of that data reaches the file, then OSError
    (ENOSPC) is raised."""
    real_open = open

    class FailingFile:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def write(self, data):
            self.writes += 1
            if self.writes == nth_write:
                self.f.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")
            return self.f.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "open",
                   lambda *a, **k: FailingFile(real_open(*a, **k)),
                   raising=False)
        yield


def gradcheck(build_loss, params: dict):
    """Check the analytic gradients of the loss ``build_loss()`` records
    against central finite differences, per parameter, at
    ``training.GRADCHECK_STEP`` and ``GRADCHECK_TOL``; ``build_loss`` must
    be a deterministic pure function of the float64 ``params``."""
    def backprop() -> float:
        tape = T.Tape()
        with T.record(tape):
            loss = build_loss()
        tape.backward(loss)
        return loss.item()

    return _gradcheck(backprop, params)


def worst(report) -> float:
    """The largest relative error of a gradcheck report."""
    return max((e.max_rel_err for e in report.entries), default=0.0)


def param_shapes(model) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by name, in ``named_parameters`` order."""
    return {name: t.shape for name, t in model.named_parameters().items()}


def squash_ref(s: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    r = np.linalg.norm(s, axis=-1, keepdims=True)
    return (r * r) / (1 + r * r) * s / (r + eps)


def length_groups(items) -> list[list[int]]:
    """Indices of ``items`` grouped by length: groups in order of their
    first member, members in item order."""
    groups: dict[int, list[int]] = {}
    for i, it in enumerate(items):
        groups.setdefault(it.n, []).append(i)
    return list(groups.values())


def _stacked(parts):
    """Per-task tensors [G, n, ·] stacked as one [k, G * n, ·] tensor, the
    sentences' tokens laid end to end as the model lays them."""
    g, n, m = parts[0].shape
    return T.concat([reshape(p, (1, g * n, m)) for p in parts], axis=0)


def attend(h: T.Tensor, w: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Single-query attention of h [G, n, d] under weight w [d, 1]: the
    weights [G, n] and the pooled vectors [G, d]."""
    g, n, d = h.shape
    a = T.softmax(reshape(matmul(h, w), (g, n)), axis=-1)
    return a, reshape(matmul(reshape(a, (g, 1, n)), h), (g, d))


def per_task_forward(model, sentences, keep=None, keep_trace=False):
    """Reference for ``AbsaModel.forward`` that runs each length group of
    ``sentences`` (a run of consecutive sentences of one length) alone, as
    [G, n, ·] tensors, and every task as a chain of its own, reading the
    parameters by name: one one-entry convolution per task and layer, one
    attention pooling and classifier per document task, one affine map per
    decoder, projection and fusion, and one ``route`` call per transfer
    direction, the group's rows p = h W [G*n, d_route] against q = PE W
    [n, d_route], with no task or direction axis. Only the embedding and
    the shared encoder are the model's own code. The groups' states are
    laid end to end, [3, N, ·], as the model returns them, and the traces
    come in the model's order: by round, by length group, by direction in
    target-major order, then by sentence."""
    runs, start = [], 0
    for _, run in itertools.groupby(sentences, key=lambda s: s.n):
        run = list(run)
        runs.append(_per_task_group_forward(
            model, run, keep and keep[start:start + len(run)], keep_trace))
        start += len(run)
    states = [IterationState(parts[0].t, *(
        T.concat([getattr(p, f) for p in parts], axis=1)
        for f in ("hidden", "logits", "probs")))
        for parts in zip(*(st for st, _ in runs))]
    return states, sorted((tr for _, trs in runs for tr in trs),
                          key=lambda tr: tr.round)


def _per_task_group_forward(model, sentences, keep, keep_trace):
    """:func:`per_task_forward` of one length group."""
    cfg, P = model.config, model.params.tensors
    g, n = len(sentences), sentences[0].n
    nonlin = model.nonlin
    shared = reshape(model._shared(sentences, keep)[0], (g, n, -1))

    def stack(task, x):
        for k in range(cfg.task_depth):
            x = nonlin(conv1d(x, P[f"task.{task}.{k}.kernel"],
                              P[f"task.{task}.{k}.bias"]))
        return x

    def affine(x, name):
        return T.add(matmul(x, P[f"{name}.w"]), P[f"{name}.b"])

    def decode(hidden):
        logits = [affine(h, f"dec.{t}") for h, t in zip(hidden, ASPECT_TASKS)]
        return (hidden, logits, [T.softmax(x, axis=-1) for x in logits])

    doc = {}
    for task in DOC_TASKS:
        a, vec = attend(stack(task, shared), P[f"doc.{task}.attn.w"])
        logits = affine(vec, f"doc.{task}.cls")
        doc[f"{task}.attn"] = reshape(a, (g, n, 1))
        probs = reshape(T.softmax(logits, axis=-1), (g, 1, logits.shape[1]))
        doc[f"{task}.probs"] = T.add(T.constant(np.zeros((n, 1), probs.dtype)),
                                     probs)
    hidden, logits, probs = decode([stack(t, shared) for t in ASPECT_TASKS])
    prior = routing.routing_prior(np.stack([s.adjacency for s in sentences]),
                                  model.emb_general.dtype)
    states = [IterationState(0, _stacked(hidden), _stacked(logits),
                             _stacked(probs))]
    traces = []
    for t in range(1, cfg.iterations + 1):
        new_hidden = list(hidden)
        for i, target in enumerate(ASPECT_TASKS):
            if not cfg.receives_knowledge(target):
                continue
            h = hidden[i]
            srcs = cfg.sources_into(target)
            if srcs:
                routed = []
                for src in srcs:
                    w = P[f"route.{src}_to_{target}.w"]
                    pe = routing._encoding(n, w.shape[0], h.dtype)
                    v, kept = routing.route(
                        reshape(matmul(hidden[ASPECT_TASKS.index(src)], w),
                                (g * n, -1)),
                        matmul(pe, w), prior, cfg.route_iters)
                    routed.append(reshape(v, (g, n, -1)))
                    traces += [routing.RoutingTrace(t, f"{src}->{target}", [
                        routing.RoutingState(st.c[j], st.s[j], st.v[j])
                        for st in kept]) for j in range(g)] if keep_trace \
                        else []
                h = affine(T.concat([h] + routed, axis=-1),
                           f"fuse.{target}.proj")
            new_hidden[i] = nonlin(affine(T.concat(
                [h] + probs + [doc[s] for s in cfg.doc_inputs(target)],
                axis=-1), f"fuse.{target}.out"))
        hidden, logits, probs = decode(new_hidden)
        states.append(IterationState(t, _stacked(hidden), _stacked(logits),
                                     _stacked(probs)))
    return states, traces


def whole_batch_aspect_loss(model, batch, rng) -> T.Tensor:
    """Oracle for ``training.batch_aspect_loss``: the batch's mean
    per-sentence loss as one tensor on the caller's tape, one forward per
    whole length group, never cut into chunks. Training (an ``rng``) draws
    the dropout of the whole batch first, in batch order."""
    keep = model.draw_dropout(batch, rng) if rng is not None else None
    total = None
    for idx in length_groups(batch):
        group = [batch[i] for i in idx]
        states, _ = model.forward(
            group, None if keep is None else [keep[i] for i in idx])
        loss = aspect_loss(states, group, model.config, 1.0)
        total = loss if total is None else total + loss
    return scale(total, 1.0 / len(batch))


def _grads(model) -> dict:
    return {k: None if p.grad is None else p.grad.copy()
            for k, p in model.named_parameters().items()}


def retained_backward(tape: T.Tape, loss: T.Tensor) -> None:
    """Oracle for ``Tape.backward``: the same replay in reverse, but every
    node, its closure and the arrays it saved stay on the tape until the
    whole backward is done, and the tape can be replayed again."""
    flow: dict[int, list] = {}

    def push(t, g, at=...):
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
    for out, fn in reversed(tape.nodes):
        slot = flow.pop(id(out), None)
        if slot is not None:
            fn(slot[1], push)
    for t, g in flow.values():
        if t.grad is None:
            t.grad = g
        else:
            t.grad += g


def tape_grads(model, build, backward=T.Tape.backward) -> tuple[float, dict]:
    """The loss ``build()`` records on one tape and, from one ``backward``
    of it, every parameter's gradient (None where none flowed)."""
    for p in model.named_parameters().values():
        p.zero_grad()
    tape = T.Tape()
    with T.record(tape):
        loss = build()
    backward(tape, loss)
    return loss.item(), _grads(model)


def step_grads(model, batch_loss) -> tuple[float, dict]:
    """The loss ``batch_loss()`` (a ``training.batch_*_loss`` call, which
    backpropagates chunk by chunk) returns and the gradient it accumulates
    into every parameter (None where none flowed)."""
    for p in model.named_parameters().values():
        p.zero_grad()
    loss = batch_loss()
    return loss, _grads(model)


def assert_grads_close(a: dict, b: dict, atol: float = 0.0) -> None:
    """Gradients by name agree within ``atol``, and flowed to the same
    parameters."""
    assert a.keys() == b.keys()
    for name in a:
        if a[name] is None or b[name] is None:
            assert a[name] is None and b[name] is None, name
        else:
            np.testing.assert_allclose(a[name], b[name], rtol=0, atol=atol,
                                       err_msg=name)


def tags_from_spans(spans, n: int) -> tuple[int, ...]:
    """BIO tags of disjoint spans: the inverse of ``data.extract_spans``."""
    tags = [OUTSIDE] * n
    for s, e in spans:
        tags[s] = BEGIN
        for i in range(s + 1, e):
            tags[i] = INSIDE
    return tuple(tags)


def corpus_stats(sentences) -> dict[str, int]:
    return {
        "sentences": len(sentences),
        "aspect_terms": sum(len(extract_spans(s.ate_gold)) for s in sentences),
        "opinion_terms": sum(len(extract_spans(s.ote_gold)) for s in sentences),
    }


def read_predictions(path: str, schemes) -> list[Prediction]:
    """Predictions back from a ``metrics.write_predictions`` JSONL file."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            out.append(Prediction(
                tokens=tuple(rec["tokens"]),
                ate_spans=tuple(tuple(s) for s in rec["ate_spans"]),
                ote_spans=tuple(tuple(s) for s in rec["ote_spans"]),
                pairs=tuple((tuple(p["span"]),
                             schemes.asc_tags.index(p["sentiment"]))
                            for p in rec["pairs"])))
    return out
