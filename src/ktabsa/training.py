"""Losses, Adam and clipping, the two-phase schedule, and gradient checking.

Training runs in two phases: the document tasks are pretrained alone for a
few epochs, then each ``aspect_batches_per_doc`` sentence batches are
followed by one document batch, cycling through the epoch's document
batches; :func:`data.make_batches` cuts both kinds. A batch's loss is the
mean of the per-input losses; each input's share of the mean is a row
weight of the losses' cross-entropies, as the task weights ``lambda_*``
are, so the loss records no node that only scales. Training and inference
share one chunking rule, :func:`data.length_chunks`: one model forward
runs a chunk of inputs of any lengths, their tokens laid end to end ([N,
·] tensors, no padding), whose n^2 couplings per routing direction sum to
at most ``routing.COUPLING_BUDGET``. Each chunk is backpropagated as soon
as it is recorded, a node's saved arrays going as soon as its backward has
run, so a step's graph is bounded by the budget, not by ``batch_size``; the
gradients accumulate in place, and clipping and the optimizer step run once
per batch. Every epoch ends with a dev evaluation; the checkpoint with the
best pair-F1 is kept. All randomness flows from the model seed, so a rerun
with the same config reproduces the loss trace bit for bit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import (Document, Sentence, atomic_write, length_chunks,
                   make_batches)
from .metrics import evaluate
from .model import ASPECT_TASKS, AbsaModel, IterationState, ModelConfig
from .tensor import (ConfigError, DivergenceError, Tape, Tensor,
                     cross_entropy_rows, record)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# central-difference step and relative-error bound of every gradient check
GRADCHECK_STEP = 1e-3
GRADCHECK_TOL = 1e-3


def aspect_loss(states: Sequence[IterationState],
                sentences: Sequence[Sentence], config: ModelConfig,
                share: float) -> Tensor:
    """``share`` times the sum of the per-sentence losses of the sentences
    of a forward, whose tokens the states lay end to end.

    A sentence's loss is the token-averaged cross-entropy per task on the
    final iteration, weighted by ``config.lambda_ate/ote/asc``. The
    sentiment term averages over labeled tokens only and contributes 0 (not
    NaN) when the sentence has no aspect tokens. The three tasks' logits
    are stacked, so the loss is one cross-entropy with the lambdas and the
    share folded into its row weights.
    """
    n = np.array([s.n for s in sentences])
    asc = [lab for s in sentences for lab in s.asc_gold]
    labeled = np.array([lab is not None for lab in asc], dtype=np.float64)
    gold = np.array([[t for s in sentences for t in s.ate_gold],
                     [t for s in sentences for t in s.ote_gold],
                     [0 if lab is None else lab for lab in asc]])
    weights = share * np.stack([
        np.repeat(config.lambda_ate / n, n),
        np.repeat(config.lambda_ote / n, n),
        config.lambda_asc * labeled / np.repeat(np.maximum(np.add.reduceat(
            labeled, np.cumsum(n) - n), 1.0), n)])
    return cross_entropy_rows(states[-1].logits, gold, weights)


def backprop_chunks(model: AbsaModel, items: Sequence,
                    rng: np.random.Generator | None,
                    chunk_loss: Callable[[list, list | None, float], Tensor]
                    ) -> float:
    """Mean per-item loss of a batch, its gradient accumulated into every
    parameter's ``.grad``; training (an ``rng``, None in evaluation) draws
    the dropout of the whole batch first, in batch order.
    ``chunk_loss(chunk, keep, share)`` returns the summed loss of one chunk
    of :func:`data.length_chunks`, given its dropout masks, weighted by each
    item's share of the mean, ``1 / len(items)``. Each chunk's share of the
    mean is recorded on a tape of its own, checked and backpropagated at
    once, so a batch's graph never outgrows one chunk's. A non-finite chunk
    loss raises :class:`DivergenceError` before its backward."""
    keep = model.draw_dropout(items, rng) if rng is not None else None
    total = 0.0
    for idx in length_chunks(items):
        tape = Tape()
        with record(tape):
            loss = chunk_loss([items[i] for i in idx],
                              None if keep is None
                              else [keep[i] for i in idx], 1.0 / len(items))
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError("non-finite loss")
        tape.backward(loss)
        total += value
    return total


def batch_aspect_loss(model: AbsaModel, batch: Sequence[Sentence],
                      rng: np.random.Generator | None) -> float:
    """Mean per-sentence loss over a batch, backpropagated chunk by chunk
    with the dropout that ``rng`` draws (:func:`backprop_chunks`)."""
    def chunk_loss(chunk, keep, share):
        states, _ = model.forward(chunk, keep)
        return aspect_loss(states, chunk, model.config, share)

    return backprop_chunks(model, batch, rng, chunk_loss)


def document_loss(doc_logits: dict[str, Tensor],
                  documents: Sequence[Document], config: ModelConfig,
                  share: float) -> Tensor:
    """``share`` times the sum over a chunk of documents of the
    cross-entropy per present document label, weighted by
    ``config.lambda_ddc/dsc``; absent labels contribute 0. ``doc_logits``
    holds each task's [1, B, C] logits as :meth:`AbsaModel.forward_document`
    returns them, and the share and the lambdas are row weights of their
    cross-entropy."""
    if any(d.domain_gold is None and d.sentiment_gold is None
           for d in documents):
        raise ValueError("document carries no label")
    loss: Tensor | None = None
    for task, weight, gold in (
            ("ddc", config.lambda_ddc, [d.domain_gold for d in documents]),
            ("dsc", config.lambda_dsc, [d.sentiment_gold for d in documents])):
        present = [g is not None for g in gold]
        if not any(present):
            continue
        term = cross_entropy_rows(
            doc_logits[task], [[0 if g is None else g for g in gold]],
            share * weight * np.array([present], dtype=np.float64))
        loss = term if loss is None else loss + term
    return loss


def batch_document_loss(model: AbsaModel, docs: Sequence[Document],
                        rng: np.random.Generator | None) -> float:
    """Mean per-document loss, backpropagated chunk by chunk with the
    dropout that ``rng`` draws (:func:`backprop_chunks`)."""
    def chunk_loss(chunk, keep, share):
        return document_loss(model.forward_document(chunk, keep), chunk,
                             model.config, share)

    return backprop_chunks(model, docs, rng, chunk_loss)


class Adam:
    """Bias-corrected Adam over a named parameter dict, with moments in
    float32."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data, dtype=np.float32)
                  for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data, dtype=np.float32)
                  for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """One update of every parameter whose gradient is set, in place."""
        self.t += 1
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            mhat = m / (1.0 - ADAM_BETA1 ** self.t)
            vhat = v / (1.0 - ADAM_BETA2 ** self.t)
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(
                p.data.dtype)


def clip_grads(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``
    (0 clips nothing) and return their norm before clipping."""
    grads = [p.grad for p in params if p.grad is not None]
    norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                             for g in grads)))
    if norm > max_norm > 0:
        for g in grads:
            g *= max_norm / norm
    return norm


@dataclass
class Schedule:
    epochs: int = 30
    pretrain_epochs: int = 2
    aspect_batches_per_doc: int = 1
    batch_size: int = 32
    lr: float = 1e-4
    clip_norm: float = 5.0
    patience: int = 10
    target_token_acc: float = 0.0  # 0 disables accuracy-based early stop

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be >= 0")
        if self.aspect_batches_per_doc < 1:
            raise ConfigError("aspect_batches_per_doc must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ConfigError(f"clip_norm must be finite and >= 0, "
                              f"got {self.clip_norm}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if not 0.0 <= self.target_token_acc <= 1.0:
            raise ConfigError(f"target_token_acc must be in [0, 1], "
                              f"got {self.target_token_acc}")


@dataclass
class TrainResult:
    best_path: str | None
    best_f1_i: float
    epochs_run: int
    step_losses: list[float] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)
    reached_target_epoch: int | None = None
    final_token_acc: dict[str, float] = field(default_factory=dict)


def token_accuracy(model: AbsaModel,
                   sentences: Sequence[Sentence]) -> dict[str, float]:
    """Argmax tag accuracy per task; sentiment counts labeled tokens only."""
    hit = {t: 0 for t in ASPECT_TASKS}
    total = {t: 0 for t in ASPECT_TASKS}
    for sent, tags in zip(sentences, model._final_tags(sentences)):
        for task, gold in (("ate", sent.ate_gold), ("ote", sent.ote_gold)):
            hit[task] += int((tags[task] == np.array(gold)).sum())
            total[task] += sent.n
        for i, lab in enumerate(sent.asc_gold):
            if lab is not None:
                total["asc"] += 1
                hit["asc"] += int(tags["asc"][i] == lab)
    return {t: (hit[t] / total[t] if total[t] else 1.0) for t in ASPECT_TASKS}


def _train_step(opt: Adam, batch_loss: Callable[[], float],
                clip_norm: float, what: str,
                grad_norms: list[float] | None = None) -> float:
    """One optimizer step over the gradient that ``batch_loss()`` (a
    :func:`batch_aspect_loss` or :func:`batch_document_loss` call)
    accumulates; returns its loss and appends the pre-clip global gradient
    norm to ``grad_norms``. A non-finite loss or gradient norm raises
    :class:`DivergenceError` before any parameter changes."""
    opt.zero_grad()
    try:
        value = batch_loss()
    except DivergenceError as err:
        raise DivergenceError(f"{err} on {what}") from None
    norm = clip_grads(opt.params.values(), clip_norm)
    if not np.isfinite(norm):
        raise DivergenceError(f"non-finite gradient norm on {what}")
    opt.step()
    if grad_norms is not None:
        grad_norms.append(norm)
    return value


def grad_norm_stats(norms: Sequence[float], clip_norm: float) -> dict:
    """Per-epoch gradient-norm summary; ``clip_frac`` is the share of steps
    whose norm was clipped."""
    if not norms:
        return {"grad_norm_min": None, "grad_norm_mean": None,
                "grad_norm_max": None, "clip_frac": None}
    clipped = sum(n > clip_norm for n in norms) if clip_norm > 0 else 0
    return {"grad_norm_min": float(min(norms)),
            "grad_norm_mean": float(np.mean(norms)),
            "grad_norm_max": float(max(norms)),
            "clip_frac": clipped / len(norms)}


def fit(model: AbsaModel, train_sentences: Sequence[Sentence],
        dev_sentences: Sequence[Sentence], documents: Sequence[Document],
        schedule: Schedule, out_dir: str | None = None,
        log: Callable[[str], None] | None = None) -> TrainResult:
    """Deterministic two-phase training loop; returns holding no gradient."""
    schedule.validate()
    opt = Adam(model.named_parameters(), schedule.lr)
    rng = np.random.default_rng(np.random.SeedSequence(
        [model.config.seed, 9261]))

    result = TrainResult(best_path=None, best_f1_i=-1.0, epochs_run=0)
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")

    def emit(msg: str) -> None:
        if log is not None:
            log(msg)

    def write_metrics() -> None:
        """Rewrite metrics.jsonl whole and atomically: a write that fails
        part-way leaves the previous epoch's complete file."""
        if metrics_path is not None:
            with atomic_write(metrics_path) as f:
                for rec in result.history:
                    f.write(json.dumps(rec) + "\n")

    def log_epoch(rec: dict) -> None:
        result.history.append(rec)
        write_metrics()

    write_metrics()

    # phase 1: document pretraining
    for epoch in range(schedule.pretrain_epochs):
        if not documents:
            break
        t0 = time.time()
        losses, norms = [], []
        for bi, docs in enumerate(make_batches(
                documents, schedule.batch_size, int(rng.integers(2 ** 31)))):
            losses.append(_train_step(
                opt, lambda: batch_document_loss(model, docs, rng),
                schedule.clip_norm, f"pretrain epoch {epoch} batch {bi}",
                norms))
        rec = {"epoch": epoch, "phase": "pretrain",
               "J_d": float(np.mean(losses)) if losses else None,
               **grad_norm_stats(norms, schedule.clip_norm),
               "wall_time_s": round(time.time() - t0, 3)}
        result.step_losses.extend(losses)
        log_epoch(rec)
        emit(f"pretrain {epoch}: J_d={rec['J_d']:.4f}")

    # phase 2: alternating aspect/document updates
    stale = 0
    for epoch in range(schedule.epochs):
        t0 = time.time()
        batches = make_batches(train_sentences, schedule.batch_size,
                               int(rng.integers(2 ** 31)))
        doc_batches = (make_batches(documents, schedule.batch_size,
                                    int(rng.integers(2 ** 31)))
                       if documents else [])
        di = 0
        ja_losses, jd_losses, norms = [], [], []
        steps_t0 = time.perf_counter()
        for bi, batch in enumerate(batches):
            ja_losses.append(_train_step(
                opt, lambda: batch_aspect_loss(model, batch, rng),
                schedule.clip_norm, f"epoch {epoch} aspect batch {bi}",
                norms))
            if doc_batches and (bi + 1) % schedule.aspect_batches_per_doc == 0:
                docs = doc_batches[di % len(doc_batches)]
                jd_losses.append(_train_step(
                    opt, lambda: batch_document_loss(model, docs, rng),
                    schedule.clip_norm, f"epoch {epoch} doc batch {di}",
                    norms))
                di += 1
        steps_s = time.perf_counter() - steps_t0
        result.step_losses.extend(ja_losses)
        result.step_losses.extend(jd_losses)
        result.epochs_run = epoch + 1

        rec = {"epoch": epoch, "phase": "joint",
               "J_a": float(np.mean(ja_losses)) if ja_losses else None,
               "J_d": float(np.mean(jd_losses)) if jd_losses else None,
               **grad_norm_stats(norms, schedule.clip_norm),
               "train_sent_per_s": round(len(train_sentences) / steps_s, 1)}

        if dev_sentences:
            report = evaluate(model.predict_many(dev_sentences),
                              dev_sentences)
            rec["dev"] = report.as_dict()
            if report.f1_i > result.best_f1_i:
                result.best_f1_i = report.f1_i
                stale = 0
                if out_dir is not None:
                    result.best_path = os.path.join(out_dir, "best.ckpt")
                    model.save(result.best_path)
            else:
                stale += 1

        if schedule.target_token_acc > 0:
            acc = token_accuracy(model, train_sentences)
            rec["train_token_acc"] = {k: round(v, 4) for k, v in acc.items()}
            result.final_token_acc = acc
            if (result.reached_target_epoch is None
                    and all(v >= schedule.target_token_acc
                            for v in acc.values())):
                result.reached_target_epoch = epoch + 1

        rec["wall_time_s"] = round(time.time() - t0, 3)
        log_epoch(rec)
        ja = rec.get("J_a")
        emit(f"epoch {epoch}: J_a={ja:.4f}" if ja is not None
             else f"epoch {epoch}")

        if result.reached_target_epoch is not None:
            break
        if dev_sentences and schedule.patience > 0 and stale >= schedule.patience:
            emit(f"early stop: no dev F1-I gain for {schedule.patience} epochs")
            break

    if out_dir is not None and result.best_path is None:
        result.best_path = os.path.join(out_dir, "best.ckpt")
        model.save(result.best_path)
    if schedule.target_token_acc > 0 and not result.final_token_acc:
        result.final_token_acc = token_accuracy(model, train_sentences)
    opt.zero_grad()
    return result


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradcheckEntry:
    name: str
    shape: tuple[int, ...]
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRADCHECK_TOL


@dataclass
class GradcheckReport:
    entries: list[GradcheckEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> list[GradcheckEntry]:
        return [e for e in self.entries if not e.passed]


def gradcheck_harness():
    """Small float64 model plus one labeled sentence and one document.

    The harness uses the sigmoid nonlinearity: central differences at
    :data:`GRADCHECK_STEP` are meaningless across a relu kink, and with a
    few hundred relu sites some preactivation always sits within a step of
    zero. relu's backward rule is finite-difference-checked at the op level
    instead.
    """
    from .data import (DEFAULT_SCHEMES, Document, Sentence,
                       assign_embedding_ids, random_embeddings)
    from .tensor import use_dtype

    config = ModelConfig(
        d_general=5, d_domain=3, d_enc=8, d_task=8, d_route=6,
        kernel_widths=(3,), task_depth=1, nonlinearity="sigmoid",
        dropout=0.0, iterations=2, route_iters=2, seed=5)
    config.validate()
    words = ["the", "battery", "is", "great", "awful", "service"]
    rng = np.random.default_rng(config.seed + 101)
    general = random_embeddings(words, config.d_general, rng)
    domain = random_embeddings(words, config.d_domain, rng)
    adjacency = np.eye(4, dtype=np.float32)
    for i, j in ((0, 1), (1, 2), (2, 3), (1, 3)):
        adjacency[i, j] = adjacency[j, i] = 1.0
    sentence = Sentence(tokens=("the", "battery", "is", "great"),
                        ate_gold=(2, 0, 2, 2), ote_gold=(2, 2, 2, 0),
                        asc_gold=(None, 0, None, None), adjacency=adjacency)
    document = Document(tokens=("great", "battery", "service"),
                        domain_gold=0, sentiment_gold=0)
    with use_dtype(np.float64):
        model = AbsaModel(config, DEFAULT_SCHEMES, general, domain)
    assign_embedding_ids([sentence, document], general, domain)
    return model, sentence, document


def model_gradcheck(model: AbsaModel, sentences: Sequence[Sentence],
                    documents: Sequence[Document] | None = None
                    ) -> GradcheckReport:
    """Finite-difference check, per parameter, of the gradient that training
    accumulates for the batch sentence loss (and, when documents are given,
    the batch document loss): both sides run :func:`batch_aspect_loss` and
    :func:`batch_document_loss`, chunk by chunk exactly as in training."""
    params = model.named_parameters()
    losses = [lambda: batch_aspect_loss(model, sentences, None)]
    if documents:
        losses.append(lambda: batch_document_loss(model, documents, None))
    reports = [_gradcheck(loss, params) for loss in losses]
    return GradcheckReport([
        GradcheckEntry(entries[0].name, entries[0].shape,
                       max(e.max_rel_err for e in entries))
        for entries in zip(*(r.entries for r in reports))])


def _gradcheck(loss: Callable[[], float], params: dict[str, Tensor]
               ) -> GradcheckReport:
    """Compare the gradient ``loss()`` accumulates into the parameters'
    ``.grad`` against central differences of the value it returns.

    Parameters must be float64; float32 rounding drowns the comparison.
    ``loss`` must be a deterministic pure function of the parameters.
    """
    for p in params.values():
        if p.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 parameters; "
                             f"{p.name or 'parameter'} is {p.dtype}")
    for p in params.values():
        p.zero_grad()
    loss()
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in params.items()}

    # the differences need no graph: with the parameters frozen, nothing
    # that ``loss()`` computes from them is recorded or backpropagated
    frozen = [p for p in params.values() if p.requires_grad]
    for p in frozen:
        p.requires_grad = False
    entries = []
    try:
        for name, p in params.items():
            flat = p.data.reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + GRADCHECK_STEP
                hi = loss()
                flat[i] = orig - GRADCHECK_STEP
                lo = loss()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * GRADCHECK_STEP)
                a = analytic[name].reshape(-1)[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
                worst = max(worst, err)
            entries.append(GradcheckEntry(name, tuple(p.shape), worst))
    finally:
        for p in frozen:
            p.requires_grad = True
    return GradcheckReport(entries)
